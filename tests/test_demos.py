"""Demos 01-04 run from a fresh working directory and exit 0.

Demo 03 prints the fusion scorer's per-grapheme increments, of which the
every-subword ones (an abandoned word refunded, then a match restarted
mid-word) are checked here, and writes `demo_output/context.txt`, which must
equal the committed file byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_autodiff_basics", "02_phrase_sampling", "03_fusion_scoring", "04_conditioning_masks"]
EVERY_SUBWORD_LINES = """\
--- every-subword (bonus 3.0 per word) ---
  'cat '     increments [+1.00 +1.00 +1.00 +0.00] end-refund +0.00 total +3.00
  'cars '    increments [+1.00 +1.00 -2.00 +0.75 -0.75] end-refund +0.00 total +0.00
  'scat '    increments [+0.75 +0.25 +1.00 +1.00 +0.00] end-refund +0.00 total +3.00
"""


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    if demo == "03_fusion_scoring":
        assert EVERY_SUBWORD_LINES in out.stdout
        context = "demo_output/context.txt"
        assert (tmp_path / context).read_bytes() == (ROOT / context).read_bytes()
