"""ctxseq: attention-based sequence transduction with contextual phrase biasing.

The library has three legs: a small float64 autodiff core (`tensor`), an
encoder-decoder model whose decoder attends both to audio frames and to an
embedded list of context phrases (`model`, `sampler`, `conditioning`,
`decoding`), and a weighted finite-state shallow-fusion baseline (`fst`).
A synthetic transcription task plus experiment harness (`corpus`,
`experiments`, `metrics`) make the behavioral claims testable end to end.
"""

from . import conditioning, corpus, decoding, experiments, fst, metrics, sampler, tensor, train, vocab
from .conditioning import BiasEntry, PrefixTable, compute_mask, split_greedy, split_rule_based
from .corpus import SyntheticTaskConfig, Utterance, generate_corpus, read_manifest
from .decoding import DecodeConfig, beam_search
from .fst import (
    BEGINNING_OF_WORD,
    END_OF_WORD,
    EVERY_SUBWORD,
    FusionScorer,
    Wfst,
    apply_strategy,
    build_grammar,
    build_speller,
    compile_context,
    compose_det_min,
    load_context,
    save_context,
)
from .metrics import WerReport, compute_wer, corpus_wer
from .model import ModelConfig, Recognizer
from .sampler import SamplerConfig, insert_bias_tokens, sample_bias_list
from .tensor import Adam, Tape, Tensor
from .train import TrainConfig, train_model
from .vocab import Vocabulary, graphemize, normalize, render

__version__ = "0.1.0"
