import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffex import PauliString, PauliTerm, parse_pauli
from cliffex.errors import LengthMismatch, SchemaError

from oracle import dense_pauli


def test_parse_basic():
    p = parse_pauli("XIZ")
    assert p.n == 3
    assert p.x == 0b001 and p.z == 0b100
    assert p.sign == 1


def test_parse_sign_prefix():
    for text in ("-ZZ", "−ZZ"):
        p = parse_pauli(text)
        assert p.sign == -1
        assert p.z == 0b11 and p.x == 0
    assert parse_pauli("+XY").sign == 1


@pytest.mark.parametrize("bad", ["XQ", "", "+", "-", "xz", "X Z"])
def test_parse_rejects(bad):
    with pytest.raises(SchemaError):
        parse_pauli(bad)


def _loop_parse(text: str) -> PauliString:
    """``parse_pauli`` as a per-letter loop, the reference for its string form."""
    sign = 1
    if text[:1] in ("+", "-", "−"):
        if text[0] != "+":
            sign = -1
        text = text[1:]
    if not text:
        raise SchemaError("empty Pauli word")
    x = z = 0
    bits = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
    for q, ch in enumerate(text):
        try:
            xb, zb = bits[ch]
        except KeyError:
            raise SchemaError(f"invalid Pauli letter {ch!r} at position {q}") from None
        x |= xb << q
        z |= zb << q
    return PauliString(len(text), x, z, sign)


def _outcome(fn, text):
    try:
        return fn(text)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(["", "+", "-", "−"]),
    st.one_of(st.text("IXYZ", max_size=80), st.text("IXYZ_ \txyzi１", max_size=12)),
)
def test_parse_matches_the_letter_loop(sign, word):
    # covers empty and sign-only words, int()'s own separators (_ and
    # blanks), lowercase letters and a non-ASCII digit
    assert _outcome(parse_pauli, sign + word) == _outcome(_loop_parse, sign + word)


def test_label_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        word = "".join(rng.choice(list("IXYZ"), size=n))
        sign = "-" if rng.random() < 0.5 else ""
        p = parse_pauli(sign + word)
        assert p.label() == sign + word
        assert parse_pauli(p.label()) == p


def test_weight_examples():
    assert parse_pauli("ZZZIXYX").weight() == 6
    assert parse_pauli("IIII").weight() == 0
    assert parse_pauli("IIIIXYX").weight() == 3


def test_commutes_examples():
    assert not parse_pauli("X").commutes(parse_pauli("Z"))
    assert parse_pauli("ZZZZ").commutes(parse_pauli("YYXX"))
    assert not parse_pauli("XII").commutes(parse_pauli("ZZI"))


def test_commutes_mismatch():
    with pytest.raises(LengthMismatch):
        parse_pauli("X").commutes(parse_pauli("XX"))


def _dense_commutator_zero(p, q):
    a, b = dense_pauli(p), dense_pauli(q)
    return np.allclose(a @ b - b @ a, 0.0, atol=1e-12)


def test_commutes_matches_dense_exhaustive():
    # every unsigned pair on 1..3 qubits
    for n in (1, 2, 3):
        for aw in itertools.product("IXYZ", repeat=n):
            for bw in itertools.product("IXYZ", repeat=n):
                p, q = parse_pauli("".join(aw)), parse_pauli("".join(bw))
                assert p.commutes(q) == _dense_commutator_zero(p, q)


def test_commutes_matches_dense_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(4, 9))
        p = parse_pauli("".join(rng.choice(list("IXYZ"), size=n)))
        q = parse_pauli("".join(rng.choice(list("IXYZ"), size=n)))
        if n <= 8:
            assert p.commutes(q) == _dense_commutator_zero(p, q)


def test_pauli_term_rejects_nonfinite():
    with pytest.raises(ValueError):
        PauliTerm(parse_pauli("Z"), float("nan"))


def test_sign_restricted():
    with pytest.raises(ValueError):
        PauliString(2, 0, 1, sign=2)
