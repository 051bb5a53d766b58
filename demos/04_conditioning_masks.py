"""Prefix conditioning: splitting phrase lists and masking attention step by step.

Run: python demos/04_conditioning_masks.py
"""

from ctxseq.conditioning import compute_mask, split_greedy, split_rule_based
from ctxseq.vocab import graphemize

phrases = [
    "talk to pharmacy flashcards",
    "talk to pirate speech",
    "talk to quiz master",
]

print("rule-based split (trigger 'talk to'):")
entries = split_rule_based(phrases)
for e in entries:
    print(f"  prefix={e.prefix!r:24s} phrase={e.phrase!r}")

print("\nmasks as a hypothesis grows (0 = enabled, inf = masked; slot 0 is no-bias):")
for hyp in ["", "talk to p", "talk to pharmacy", "talk to pharmacy fla"]:
    mask = compute_mask(entries, graphemize(hyp))
    cells = " ".join("0" if m == 0 else "#" for m in mask)
    print(f"  {hyp!r:26s} [{cells}]")

# With thousands of phrases per trigger, the first-letter rule keeps the
# number of simultaneously enabled phrases small while adding few entries.
print(f"\n{len(phrases)} phrases became {len(entries)} entries")

print("\ngreedy splitter (extend shared prefixes until <= max_share each):")
for e in split_greedy(["a x", "a y", "b z"], max_share=1):
    print(f"  prefix={e.prefix!r:8s} phrase={e.phrase!r}")
