import pytest

from ctxseq.vocab import BIAS_END, EOS, SOS, SPACE, Vocabulary


@pytest.mark.parametrize(
    "symbols, message",
    [
        ([SOS, EOS, SPACE, "a"], "vocabulary must contain '</bias>' exactly once"),
        ([SOS, SOS, EOS, BIAS_END, SPACE, "a"], "vocabulary must contain '<s>' exactly once"),
        ([SOS, EOS, BIAS_END, SPACE, "a", "a"], "duplicate symbols in vocabulary"),
    ],
    ids=["no-bias-end", "two-sos", "duplicate"],
)
def test_malformed_symbol_list_rejected(symbols, message):
    with pytest.raises(ValueError, match=message):
        Vocabulary(symbols)
