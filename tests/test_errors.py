"""The raise contract of README's "Errors" table: given invalid values,
each public entry point raises only the exception types documented for
it, compared by exact type (a plain ``ValueError`` is not a
``SchemaError``, nor the reverse)."""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffex import (
    Circuit,
    CountsHistogram,
    PauliTerm,
    ProbabilityAbsorption,
    absorb_observables,
    cx,
    extract,
    gen_labs,
    gen_maxcut,
    map_expectations,
    native_circuit,
    parse_pauli,
    parse_qasm,
    postprocess_counts,
)
from cliffex import errors
from cliffex.errors import InvalidSize, LengthMismatch, SchemaError


def test_errors_module_defines_five_types():
    defined = {name for name, v in vars(errors).items() if isinstance(v, type)}
    assert defined == {"CliffexError", "SchemaError", "LengthMismatch", "InvalidSize", "NotReducible"}


def _only(allowed, fn, *args):
    """``fn(*args)``, or None when it raised an exception whose type is one
    of ``allowed``; any other exception fails the test."""
    try:
        return fn(*args)
    except Exception as exc:
        assert type(exc) in allowed, f"{fn.__name__}{args!r} raised {type(exc).__name__}: {exc}"
        return None


def _pauli(data):
    text = data.draw(st.one_of(st.text("IXYZ+-−ixy 0\n", max_size=6), st.text(max_size=4)))
    _only({SchemaError}, parse_pauli, text)


_INDEX = st.sampled_from(["0", "1", "2", "7", "٣", "-1", "", "x"])
_STATEMENT = st.one_of(
    st.sampled_from(["OPENQASM 2.0;", 'include "qelib1.inc";', "measure q[0];", "h q[0]", "// x"]),
    _INDEX.map("qreg q[{}];".format),
    st.tuples(st.sampled_from(["h", "s", "sdg", "t"]), _INDEX).map(lambda a: "{} q[{}];".format(*a)),
    st.tuples(_INDEX, _INDEX).map(lambda a: "cx q[{}],q[{}];".format(*a)),
    st.tuples(st.sampled_from(["0.5", "-1e-3", "1e999", "-", ".", "nan"]), _INDEX).map(
        lambda a: "rz({}) q[{}];".format(*a)),
    st.text(max_size=8),
)


def _qasm(data):
    head = data.draw(st.sampled_from([[], ["OPENQASM 2.0;", 'include "qelib1.inc";']]))
    _only({SchemaError}, parse_qasm, "\n".join(head + data.draw(st.lists(_STATEMENT, max_size=5))))


def _histogram(data):
    n = data.draw(st.integers(0, 3))
    key = st.one_of(st.text("01", min_size=n, max_size=n), st.text("01_ １", max_size=4),
                    st.integers(0, 11), st.binary(max_size=3), st.none(), st.tuples(st.integers(0, 1)))
    count = st.one_of(st.integers(-2, 9), st.booleans(), st.floats(-1, 9), st.none(), st.text(max_size=1))
    counts = data.draw(st.dictionaries(key, count, max_size=4))
    n = data.draw(st.sampled_from([n, n, n, -1, float(n), n == 1]))
    shots = data.draw(st.one_of(st.integers(-1, 30), st.floats(0, 30), st.booleans()))
    if _only({SchemaError}, CountsHistogram, n, counts, shots) is not None:
        assert type(n) is int and type(shots) is int


def test_counts_histogram_refuses_non_int_sizes():
    for args in ((1, {"0": 3}, 3.0), (0, {}, False), (1.0, {"0": 1}, 1), (-1, {}, 0), (True, {"0": 1}, 1)):
        with pytest.raises(SchemaError, match="is not a non-negative integer"):
            CountsHistogram(*args)


def _absorption_then_postprocess(data):
    n = data.draw(st.integers(0, 5))
    qubit = st.one_of(st.integers(-2, n + 2), st.floats(-2, n + 2), st.booleans())
    mask = frozenset(data.draw(st.lists(qubit, max_size=3)))
    network = tuple(data.draw(st.lists(st.tuples(qubit, qubit), max_size=4)))
    size = data.draw(st.sampled_from([n, n, n, float(n)]))
    pa = _only({ValueError}, ProbabilityAbsorption, size, mask, network)
    if pa is None:
        return
    m = data.draw(st.sampled_from([n, n, 0, n + 1]))
    keys = data.draw(st.lists(st.integers(0, 2**m - 1), unique=True, max_size=6))
    counts = {format(k | 1 << m, "b")[1:]: 1 for k in keys}
    _only({LengthMismatch}, postprocess_counts, pa, CountsHistogram(m, counts, len(counts)))


# angles include non-finite ones and finite ones whose product with a
# term's weight overflows: PauliTerm refuses both with a plain ValueError
_ANGLES = st.one_of(st.none(), st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=3))


def _maxcut(data):
    n = data.draw(st.integers(-1, 7))
    degree, edges = data.draw(st.sampled_from([(True, False), (False, True), (True, True), (False, False)]))
    args = (
        n,
        data.draw(st.integers(-1, 8)) if degree else None,
        data.draw(st.integers(-1, 25)) if edges else None,
        data.draw(st.integers(0, 3)),
        data.draw(st.integers(-1, 3)),
        data.draw(_ANGLES),
        data.draw(_ANGLES),
    )
    _only({InvalidSize, ValueError}, gen_maxcut, *args)


def _labs(data):
    args = (data.draw(st.integers(-1, 7)), data.draw(st.integers(-1, 3)), data.draw(_ANGLES),
            data.draw(_ANGLES))
    _only({InvalidSize, ValueError}, gen_labs, *args)


def _expectations(data):
    words = data.draw(st.lists(st.sampled_from(["ZZ", "-XY", "IZ"]), max_size=3))
    records = absorb_observables(Circuit(2, (cx(0, 1),)), [parse_pauli(w) for w in words])
    values = data.draw(st.lists(st.floats(allow_nan=True), max_size=4))
    _only({LengthMismatch}, map_expectations, records, values)


def _term_list(data):
    # empty lists, mixed qubit counts and identity-only lists
    sizes = data.draw(st.lists(st.integers(1, 3), max_size=4))
    identity = data.draw(st.booleans())
    words = [data.draw(st.just("I" * n) if identity else st.text("IXYZ", min_size=n, max_size=n))
             for n in sizes]
    terms = [PauliTerm(parse_pauli(w), 0.5) for w in words]
    fn = data.draw(st.sampled_from([extract, native_circuit]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # extract warns about each identity term
        if _only({LengthMismatch} if terms else {ValueError}, fn, terms) is None:
            assert not terms or len(set(sizes)) > 1


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_public_entry_points_raise_only_documented_types(data):
    entry = data.draw(st.sampled_from([_pauli, _qasm, _histogram, _absorption_then_postprocess,
                                       _maxcut, _labs, _expectations, _term_list]))
    entry(data)
