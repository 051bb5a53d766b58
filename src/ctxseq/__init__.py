"""ctxseq: attention-based sequence transduction with contextual phrase biasing.

The library has three legs: a small float64 autodiff core (`tensor`), an
encoder-decoder model whose decoder attends both to audio frames and to an
embedded list of context phrases (`model`, `sampler`, `conditioning`,
`decoding`), and a weighted finite-state shallow-fusion baseline (`fst`).
A synthetic transcription task plus experiment harness (`corpus`,
`experiments`, `metrics`) make the behavioral claims testable end to end.
"""
