import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffex import load_terms, native_circuit, parse_pauli
from cliffex.cli import _same_rotations, main
from cliffex.circuit import Circuit, cnot_count, cx, emit_qasm, h, parse_qasm
from cliffex.errors import CliffexError
from cliffex.pauli import PauliString, PauliTerm
from cliffex.tableau import replay

from oracle import circuit_unitary, dense_pauli, equivalent_up_to_phase, outputs_by_name, same_rotations


def run(*argv):
    return main([str(a) for a in argv])


def write_json(path, payload):
    Path(path).write_text(json.dumps(payload))
    return path


@pytest.fixture()
def two_rotation_input(tmp_path):
    return write_json(
        tmp_path / "input.json",
        {
            "num_qubits": 4,
            "terms": [
                {"pauli": "ZZZZ", "coeff": 0.31},
                {"pauli": "YYXX", "coeff": -0.7},
            ],
            "observables": ["XXZZ"],
        },
    )


@pytest.fixture()
def triangle_input(tmp_path):
    assert run("gen", "maxcut", "--nodes", 3, "--degree", 2, "--seed", 1,
               "--gamma", 0.3, "--beta", 0.7, "--out", tmp_path / "tri.json") == 0
    return tmp_path / "tri.json"


def _opt_args(tmp_path, input_path, *extra):
    return (
        "optimize", input_path,
        "--out", tmp_path / "opt.qasm",
        "--clifford", tmp_path / "clifford.qasm",
        "--report", tmp_path / "report.json",
        *extra,
    )


def test_gen_counts(tmp_path):
    out = tmp_path / "mc.json"
    assert run("gen", "maxcut", "--nodes", 20, "--degree", 8, "--seed", 7, "--out", out) == 0
    data = json.loads(out.read_text())
    assert data["num_qubits"] == 20 and len(data["terms"]) == 100
    out = tmp_path / "labs.json"
    assert run("gen", "labs", "--n", 10, "--out", out) == 0
    assert len(json.loads(out.read_text())["terms"]) == 80


def test_gen_infeasible_degree(tmp_path):
    assert run("gen", "maxcut", "--nodes", 3, "--degree", 3, "--out", tmp_path / "x.json") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "labs", "--n", 2),
        ("gen", "maxcut", "--nodes", 6, "--degree", 3, "--layers", 0),
        ("gen", "maxcut", "--nodes", 6, "--edges", 99),
        ("gen", "maxcut", "--nodes", 0, "--edges", 0),
        ("gen", "maxcut", "--nodes", 6, "--degree", 3, "--edges", 5),
        ("gen", "maxcut", "--nodes", 6),
        ("gen", "maxcut", "--nodes", 6, "--degree", 3, "--layers", 3, "--gamma", 0.1, "--gamma", 0.2),
        ("gen", "labs", "--n", 5, "--layers", 2, "--beta", 0.1, "--beta", 0.2, "--beta", 0.3),
        # an angle that makes a coefficient non-finite (LABS weights are 2 or more)
        ("gen", "labs", "--n", 4, "--gamma", "nan"),
        ("gen", "maxcut", "--nodes", 4, "--degree", 2, "--beta", "inf"),
        ("gen", "labs", "--n", 4, "--gamma", 1e308),
        # finite coefficients whose RZ angles 2|c| sum past float range
        ("gen", "maxcut", "--nodes", 1, "--edges", 0, "--beta", 1e308),
    ],
)
def test_gen_parameter_errors_exit_2(tmp_path, capsys, argv):
    assert run(*argv, "--out", tmp_path / "x.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "argv, coeffs",
    [
        (("maxcut", "--nodes", 4, "--degree", 2),
         [0.1] * 4 + [0.3] * 4 + [0.2] * 4 + [0.4] * 4),
        # LABS n3: one Z0 Z2 term of multiplicity 2, then the mixer
        (("labs", "--n", 3), [0.2] + [0.3] * 3 + [0.4] + [0.4] * 3),
    ],
    ids=["maxcut", "labs"],
)
def test_gen_per_layer_angles(tmp_path, argv, coeffs):
    out = tmp_path / "x.json"
    angles = ("--layers", 2, "--gamma", 0.1, "--gamma", 0.2, "--beta", 0.3, "--beta", 0.4)
    assert run("gen", *argv, *angles, "--out", out) == 0
    assert [t["coeff"] for t in json.loads(out.read_text())["terms"]] == pytest.approx(coeffs)


# sha256 of the file ``gen`` writes for each argv; a refactor of the
# generators that is meant to keep their output must keep these
GEN_GOLDEN = {
    ("maxcut", "--nodes", 8, "--degree", 3):
        "ee7cd582a7607824ad1182b8b9f35c25d37c68eb3d78f84e2e1451f055cd2553",
    ("maxcut", "--nodes", 12, "--degree", 5, "--seed", 7):
        "e205ca59f0208942f4305c93165cf8d81baaa4153f02db3810d3df3dafae525d",
    ("maxcut", "--nodes", 9, "--edges", 14, "--seed", 3, "--layers", 2):
        "b971484eb6923d38b606780544030b42ff87dd95e346f926b00332059aa5235f",
    ("maxcut", "--nodes", 6, "--degree", 3, "--seed", 2, "--layers", 2,
     "--gamma", 0.15, "--gamma", -0.35, "--beta", 0.6, "--beta", 0.05):
        "9dd9bc67f9da522210b73732ef9d03138728012ef6d31cbb4d331036b46190c7",
    ("maxcut", "--nodes", 10, "--degree", 4, "--seed", 1, "--layers", 3, "--beta", 0.27):
        "63e375c3d54dc2ab2a245ffab7b647da39c42231303926a1581f012021944a61",
    ("labs", "--n", 3, "--layers", 3, "--gamma", 0.1, "--gamma", 0.2, "--gamma", 0.3):
        "13db1ce4a84f78582e763be88286e7b9296caaab0c424bd32174824d97d6c28f",
    ("labs", "--n", 10, "--layers", 2):
        "e02796edc9fa59b3c3bae83ee6253b11f1b942e189e45294edd517c1e6585b20",
    ("labs", "--n", 24, "--gamma", 0.013):
        "bb6a8f48379ac513db52c52ac18ba8a9f9c47060e9383fd258f88b08621c0d45",
}


@pytest.mark.parametrize("argv", list(GEN_GOLDEN), ids=lambda a: " ".join(map(str, a)))
def test_gen_golden_bytes(tmp_path, argv):
    out = tmp_path / "x.json"
    assert run("gen", *argv, "--out", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_GOLDEN[argv]


def test_optimize_observables(tmp_path, two_rotation_input):
    assert run(*_opt_args(tmp_path, two_rotation_input)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mode"] == "observables"
    assert report["metrics"]["cnot_before"] == 12
    assert report["metrics"]["cnot_after"] <= 4
    assert len(report["observables"]) == 1
    opt = parse_qasm((tmp_path / "opt.qasm").read_text())
    assert cnot_count(opt) == report["metrics"]["cnot_after"]
    executed = parse_qasm(Path(report["artifacts"]["executed"][0]).read_text())
    assert cnot_count(executed) == report["metrics"]["cnot_after"]


def test_optimize_probabilities_triangle(tmp_path, triangle_input):
    assert run(*_opt_args(tmp_path, triangle_input)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mode"] == "probabilities"
    assert report["metrics"]["cnot_after"] == 5
    assert report["absorption"]["h_mask"] == [0, 1, 2]
    executed = parse_qasm(Path(report["artifacts"]["executed"][0]).read_text())
    assert sum(1 for g in executed.gates if g.kind == "h") >= 3


def test_optimize_mode_probabilities_rejects_y_terms(tmp_path, capsys):
    inp = write_json(
        tmp_path / "y.json",
        {"num_qubits": 2, "terms": [{"pauli": "YZ", "coeff": 0.4}]},
    )
    code = run(*_opt_args(tmp_path, inp))
    assert code == 2
    assert "observables" in capsys.readouterr().err


def test_optimize_refusal_message_and_no_outputs(tmp_path, capsys, monkeypatch):
    # the refusal comes straight after extraction: no peephole, no baseline
    import cliffex.cli as cli

    def unreached(*args):
        raise AssertionError("a refused input reached the artifacts")

    monkeypatch.setattr(cli, "peephole", unreached)
    monkeypatch.setattr(cli, "native_cost", unreached)
    inp = write_json(tmp_path / "y.json", {"num_qubits": 2, "terms": [{"pauli": "YZ", "coeff": 0.4}]})
    assert run(*_opt_args(tmp_path, inp)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: cannot absorb the extracted Clifford into bitstrings (gate kind 's' is not H or CNOT); "
        'give the input "mode": "observables" and an "observables" list\n'
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["y.json"]


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    import cliffex.cli as cli

    built, original = [], cli.build_parser

    def build():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", build)
    for n in (4, 6):
        assert run("gen", "labs", "--n", n, "--out", tmp_path / f"l{n}.json") == 0
    assert run("gen", "maxcut", "--nodes", 3, "--degree", 3, "--out", tmp_path / "x.json") == 2
    assert len(built) == 1


def test_optimize_observables_requires_list(tmp_path):
    inp = write_json(
        tmp_path / "noobs.json",
        {"num_qubits": 2, "terms": [{"pauli": "ZZ", "coeff": 0.4}], "mode": "observables"},
    )
    assert run(*_opt_args(tmp_path, inp)) == 2


def test_optimize_identity_term_warns_on_one_line(tmp_path, capsys):
    inp = write_json(tmp_path / "id.json", {"num_qubits": 3, "terms": [
        {"pauli": "ZZI", "coeff": 0.3}, {"pauli": "III", "coeff": 0.5}, {"pauli": "XII", "coeff": 0.7}]})
    assert run(*_opt_args(tmp_path, inp)) == 0
    err = capsys.readouterr().err
    assert err == "warning: term 1 is the identity; it only adds a global phase and was skipped\n"
    assert run("verify", inp, "--report", tmp_path / "report.json") == 0


def test_cli_import_leaves_numpy_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import cliffex.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_verify_pipeline_and_perturbation(tmp_path, triangle_input):
    assert run(*_opt_args(tmp_path, triangle_input)) == 0
    assert run("verify", triangle_input, "--report", tmp_path / "report.json") == 0
    # perturb one rz angle by 1e-3: verification must fail
    opt_path = tmp_path / "opt.qasm"
    lines = opt_path.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("rz("):
            theta = float(line[3 : line.index(")")])
            rest = line[line.index(")") :]
            lines[i] = f"rz({theta + 1e-3:.17g}{rest}"
            break
    opt_path.write_text("\n".join(lines) + "\n")
    assert run("verify", triangle_input, "--report", tmp_path / "report.json") == 1


def test_verify_observables_mode(tmp_path, two_rotation_input):
    assert run(*_opt_args(tmp_path, two_rotation_input)) == 0
    assert run("verify", two_rotation_input, "--report", tmp_path / "report.json") == 0


def _maxcut_pipeline(tmp_path, nodes, degree):
    """Generate and optimize 3-layer regular MaxCut; returns the input path."""
    inp = tmp_path / "input.json"
    assert run("gen", "maxcut", "--nodes", nodes, "--degree", degree, "--layers", 3, "--out", inp) == 0
    assert run(*_opt_args(tmp_path, inp)) == 0
    return inp


@pytest.mark.parametrize("nodes, degree", [(12, 3), (50, 8)])
def test_verify_above_ten_qubits(tmp_path, capsys, nodes, degree):
    inp = _maxcut_pipeline(tmp_path, nodes, degree)
    assert run("verify", inp, "--report", tmp_path / "report.json") == 0
    assert "all checks passed" in capsys.readouterr().out


def _edit_lines(path, edit):
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


def _first(lines, prefix):
    return next(k for k, line in enumerate(lines) if line.startswith(prefix))


def _reverse_cx(lines):
    k = _first(lines, "cx ")
    c, t = re.findall(r"q\[(\d+)\]", lines[k])
    lines[k] = f"cx q[{t}],q[{c}];"


def _angle(line):
    return float(line[3 : line.index(")")])


def _with_angle(line, theta):
    return f"rz({theta:.17g}{line[line.index(')'):]}"


def _nudge_rz(lines):
    k = _first(lines, "rz(")
    lines[k] = _with_angle(lines[k], _angle(lines[k]) + 1e-6)


def _swap_anticommuting_rz(lines):
    """Swap the angles of the first two rz lines of different angle whose
    rotations anticommute (one line per gate after the 3 header lines)."""
    circ = parse_qasm("\n".join(lines))
    _, rotations = replay(circ.gates, circ.n)
    at = [k + 3 for k, g in enumerate(circ.gates) if g.kind == "rz"]
    i, j = next(
        (i, j) for i, j in itertools.combinations(range(len(at)), 2)
        if not rotations[i][0].commutes(rotations[j][0]) and abs(rotations[i][1] - rotations[j][1]) > 1e-3
    )
    a, b = lines[at[i]], lines[at[j]]
    lines[at[i]], lines[at[j]] = _with_angle(a, _angle(b)), _with_angle(b, _angle(a))


def _edit_absorption(path, edit):
    report = json.loads(path.read_text())
    edit(report["absorption"])
    write_json(path, report)


def _toggle_mask_qubit(a):
    a["h_mask"] = sorted(set(a["h_mask"]) ^ {0})


# file edited, the edit, the check that must fail
_MUTATIONS = {
    "cx-reversed": ("opt.qasm", lambda p: _edit_lines(p, _reverse_cx), "unitary round-trip"),
    "rz-nudged": ("opt.qasm", lambda p: _edit_lines(p, _nudge_rz), "unitary round-trip"),
    "rz-swapped": ("opt.qasm", lambda p: _edit_lines(p, _swap_anticommuting_rz), "unitary round-trip"),
    "clifford-gate-dropped": ("clifford.qasm", lambda p: _edit_lines(p, lambda ls: ls.pop(3)),
                              "unitary round-trip"),
    "network-edge-reversed": ("report.json",
                              lambda p: _edit_absorption(p, lambda a: a["network"][0].reverse()),
                              "output distribution"),
    "mask-qubit-toggled": ("report.json", lambda p: _edit_absorption(p, _toggle_mask_qubit),
                           "output distribution"),
}


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
@pytest.mark.parametrize("nodes, degree", [(8, 3), (50, 8)])
def test_verify_mutated_artifact_exits_1(tmp_path, capsys, nodes, degree, mutation):
    inp = _maxcut_pipeline(tmp_path, nodes, degree)
    name, edit, check = _MUTATIONS[mutation]
    edit(tmp_path / name)
    capsys.readouterr()
    assert run("verify", inp, "--report", tmp_path / "report.json") == 1
    assert f"FAIL  {check}" in capsys.readouterr().out


@st.composite
def _rotation_lists(draw):
    """Input terms and the replayed rotations (P, t) of exp(-i t/2 P) that
    multiply to them, then edited: rotations dropped or swapped (commuting
    neighbours or any), a rotation split into two of its string, pairs of
    rotations or of terms that sum to zero, and angles nudged by more or
    less than the tolerance.  Few distinct words make strings repeat; up
    to 90 rotations on up to 70 qubits cross machine-word lanes."""
    n = draw(st.sampled_from([1, 2, 3, 5, 64, 70]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    letters = draw(st.sampled_from(["IZ", "XZ", "IXYZ"]))
    width = min(n, 3)
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        word = ["I"] * n
        for q in rng.sample(range(n), width):
            word[q] = rng.choice(letters)
        pool.append("".join(word))
    terms, rots = [], []
    for _ in range(draw(st.sampled_from([0, 1, 4, 12, 30, 90]))):
        coeff = rng.choice([0.0, 1e-12, rng.uniform(-2, 2)])
        t = PauliTerm(parse_pauli(rng.choice("+-") + rng.choice(pool)), coeff)
        terms.append(t)
        if t.pauli.weight():
            sr = rng.choice([1, -1])
            rots.append((PauliString(n, t.pauli.x, t.pauli.z, sr), -2.0 * coeff * t.pauli.sign * sr))
    for edit in draw(st.lists(st.sampled_from(
            ["drop", "swap", "commuting swap", "split", "zero pair", "zero terms", "nudge"]), max_size=3)):
        k = rng.randrange(len(rots) + 1)
        if edit == "zero terms":
            p = parse_pauli(rng.choice(pool))
            terms[k:k] = [PauliTerm(p, 0.7), PauliTerm(p, -0.7)]
        elif edit == "zero pair" and rots[k - 1:k]:
            p, t = rots[k - 1]
            rots[k:k] = [(p, 0.9), (p, -0.9)]
        elif k == len(rots):
            continue
        elif edit == "drop":
            del rots[k]
        elif edit == "split":
            p, t = rots[k]
            rots[k:k + 1] = [(p, t / 3), (p, t - t / 3)]
        elif edit == "nudge":
            p, t = rots[k]
            rots[k] = (p, t * (1 + rng.choice([1e-13, 1e-6])) + rng.choice([0.0, 1e-10, 1e-3]))
        elif k + 1 < len(rots) and (edit == "swap" or rots[k][0].commutes(rots[k + 1][0])):
            rots[k], rots[k + 1] = rots[k + 1], rots[k]
    return terms, rots, n


@settings(max_examples=400, deadline=None)
@given(_rotation_lists())
def test_same_rotations_matches_the_walk(case):
    terms, rots, n = case
    assert _same_rotations(terms, rots, n) == same_rotations(terms, rots, n)


@pytest.mark.parametrize("words, same", [
    ([("X", 0.5), ("X", -0.5), ("Z", 0.3)], True),
    ([("X", 0.5), ("Z", 0.3), ("X", -0.5)], False),
])
def test_left_over_term_cancels_only_in_front_of_its_stop(words, same):
    # X(0.5) is left over in front of the rotation Z: the second X takes
    # it off there, unless the term Z came between them
    terms = [PauliTerm(parse_pauli(w), c) for w, c in words]
    rots = [(parse_pauli("Z"), -0.6)]  # the term Z's coefficient 0.3
    assert _same_rotations(terms, rots, 1) == same_rotations(terms, rots, 1) == same


def test_verify_generated_instances_end_to_end(tmp_path):
    cases = [
        ("gen", "maxcut", "--nodes", 6, "--degree", 3, "--seed", 4),
        ("gen", "maxcut", "--nodes", 7, "--edges", 9, "--seed", 2, "--layers", 2),
        ("gen", "labs", "--n", 5),
    ]
    for k, case in enumerate(cases):
        inp = tmp_path / f"case{k}.json"
        assert run(*case, "--out", inp) == 0
        assert run(*_opt_args(tmp_path, inp)) == 0
        assert run("verify", inp, "--report", tmp_path / "report.json") == 0


def test_postprocess_counts(tmp_path):
    report = write_json(
        tmp_path / "report.json",
        {"num_qubits": 2, "mode": "probabilities",
         "absorption": {"h_mask": [0, 1], "network": [[0, 1]]}},
    )
    counts = write_json(tmp_path / "counts.json", {"n": 2, "shots": 5, "counts": {"10": 5}})
    out = tmp_path / "post.json"
    assert run("postprocess", counts, "--report", report, "--out", out) == 0
    data = json.loads(out.read_text())
    assert data["counts"] == {"11": 5} and data["shots"] == 5


def _postprocess_case(name):
    """(n, network, counts) of a ``postprocess`` golden case."""
    if name == "empty":
        return 3, [[0, 1]], {}
    if name == "zero-qubits":
        return 0, [], {"": 3}
    if name == "two-qubit-triangle":  # three CNOTs, 0->1->0->1: a swap
        return 2, [[0, 1], [1, 0], [0, 1]], {"00": 4, "01": 3, "10": 2, "11": 1}
    rng = np.random.default_rng(2024)  # "n50": 1,000 keys, 200 edges
    keys = list(dict.fromkeys(int(k) for k in rng.integers(0, 2**50, size=1100)))[:1000]
    counts = {format(k, "050b"): int(c) for k, c in zip(keys, rng.integers(1, 200, size=1000))}
    network = [[int(q) for q in rng.choice(50, size=2, replace=False)] for _ in range(200)]
    return 50, network, counts


def _run_postprocess(d, n, network, counts):
    """Run ``postprocess`` on the case in directory ``d``; the text it wrote."""
    report = write_json(d / "report.json", {"num_qubits": n, "mode": "probabilities",
                                            "absorption": {"h_mask": [], "network": network}})
    counts_path = write_json(d / "counts.json",
                             {"n": n, "shots": sum(counts.values()), "counts": counts})
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("postprocess", counts_path, "--report", report, "--out", d / "post.json") == 0
    return (d / "post.json").read_text(encoding="utf-8")


# sha256 of the file ``postprocess`` writes for each case; a faster
# post-processing path must keep these
POSTPROCESS_GOLDEN = {
    "empty":
        "85afa65160234f934cb49a90657040e4c26342309e7d5b71bef1b815b74d5b4f",
    "zero-qubits":
        "69d627670a5a06964714d008d564a7f5eef85685a0bd10c63ec57d6b5aa91408",
    "two-qubit-triangle":
        "dfd5f9d93748cb30aeecabf456fd8f56ffe4054b8736a6722505c8a0b2cea699",
    "n50":
        "cdf975d85d26ec09881e0f12aadabedc869f7b8423ce3a35813ebb3697763d96",
}


@pytest.mark.parametrize("name", list(POSTPROCESS_GOLDEN))
def test_postprocess_golden_bytes(tmp_path, name):
    text = _run_postprocess(tmp_path, *_postprocess_case(name))
    assert _sha(text.encode()) == POSTPROCESS_GOLDEN[name]


@st.composite
def _postprocess_inputs(draw):
    n = draw(st.integers(0, 70))
    network = []
    if n >= 2:
        edge = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        network = draw(st.lists(edge, max_size=60))
    keys = draw(st.lists(st.integers(0, 2**n - 1), unique=True, max_size=30))
    counts = {format(k | 1 << n, "b")[1:]: draw(st.integers(0, 10**12)) for k in keys}
    return n, network, counts


@settings(max_examples=60, deadline=None)
@given(_postprocess_inputs())
def test_postprocess_writes_canonical_json(case):
    with tempfile.TemporaryDirectory() as tmp:
        text = _run_postprocess(Path(tmp), *case)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_postprocess_requires_absorption_section(tmp_path):
    report = write_json(tmp_path / "report.json", {"num_qubits": 2, "mode": "observables"})
    counts = write_json(tmp_path / "counts.json", {"n": 2, "shots": 1, "counts": {"00": 1}})
    assert run("postprocess", counts, "--report", report, "--out", tmp_path / "o.json") == 2


def test_map_expectations(tmp_path):
    report = write_json(
        tmp_path / "report.json",
        {"num_qubits": 4, "mode": "observables",
         "observables": [{"original": "XXZZ", "transformed": "-ZIZX", "basis_layer": []}]},
    )
    values = write_json(tmp_path / "values.json", {"values": [0.5]})
    out = tmp_path / "mapped.json"
    assert run("map-expectations", values, "--report", report, "--out", out) == 0
    assert json.loads(out.read_text())["values"] == [-0.5]


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda r: r["observables"][0].pop("original"), 'lacks "original"', id="original"),
        pytest.param(
            lambda r: r["observables"][0].pop("transformed"), 'lacks "transformed"', id="transformed"
        ),
        pytest.param(lambda r: r.update(observables="abc"), "observables is not a list",
                     id="observables-string"),
        pytest.param(lambda r: r.update(observables=5), "observables is not a list",
                     id="observables-number"),
        pytest.param(lambda r: r.update(observables=[5]), "observables[0] is not an object",
                     id="record-number"),
        pytest.param(lambda r: r["observables"][0].update(original=5), "original is not a string",
                     id="original-number"),
        pytest.param(lambda r: r["observables"][0].update(transformed=5),
                     "transformed is not a string", id="transformed-number"),
        pytest.param(lambda r: r["observables"][0].update(transformed=["Z"]),
                     "transformed is not a string", id="transformed-list"),
        pytest.param(lambda r: r.pop("observables"), "lacks an 'observables' section",
                     id="no-observables"),
        pytest.param(
            lambda r: r["observables"][0].update(transformed=r["observables"][0]["transformed"] + "Z"),
            "observables[0] transformed: Pauli has", id="transformed-too-long",
        ),
        pytest.param(lambda r: r.pop("num_qubits"), 'lacks "num_qubits"', id="no-num-qubits"),
    ],
)
def test_report_observable_missing_key_exits_2(tmp_path, capsys, two_rotation_input, edit, message):
    assert run(*_opt_args(tmp_path, two_rotation_input)) == 0
    report_path = tmp_path / "report.json"
    report = json.loads(report_path.read_text())
    edit(report)
    write_json(report_path, report)
    values = write_json(tmp_path / "values.json", {"values": [0.5]})
    capsys.readouterr()
    for argv in (
        ("map-expectations", values, "--report", report_path, "--out", tmp_path / "m.json"),
        ("verify", two_rotation_input, "--report", report_path),
    ):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


def _one_error_line(capsys):
    return _one_error_line_in(capsys.readouterr().err)


def _one_error_line_in(err):
    return err.startswith("error: ") and err.count("\n") == 1


def _without(report_path, path):
    """Rewrite the report with the key at ``path`` (a tuple of keys) removed."""
    report = json.loads(Path(report_path).read_text())
    section = report
    for key in path[:-1]:
        section = section[key]
    del section[path[-1]]
    write_json(report_path, report)
    return report_path


@pytest.mark.parametrize(
    "payload",
    [{"vals": [0.1]}, {"values": 0.1}, 0.1, {"values": ["a"]}, {"values": [None]}, [True],
     [0.5], {"values": [float("nan")]}, {"values": [float("inf")]}, {"values": [-float("inf")]},
     {"values": [True]}, {"values": [10**400]}],
    ids=["no-values", "not-a-list", "number", "string-value", "null-value", "bool-value",
         "bare-list", "nan-value", "inf-value", "minus-inf-value", "bool-in-object",
         "int-past-float-range"],
)
def test_map_expectations_without_values_list_exits_2(tmp_path, capsys, payload):
    report = write_json(
        tmp_path / "report.json",
        {"num_qubits": 4, "mode": "observables",
         "observables": [{"original": "XXZZ", "transformed": "-ZIZX", "basis_layer": []}]},
    )
    values = write_json(tmp_path / "values.json", payload)
    out = tmp_path / "mapped.json"
    assert run("map-expectations", values, "--report", report, "--out", out) == 2
    err = capsys.readouterr().err
    assert _one_error_line_in(err) and "values file" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "path",
    [
        ("input_digest",), ("artifacts",), ("metrics",), ("mode",), ("absorption",), ("num_qubits",),
        ("artifacts", "optimized"), ("artifacts", "clifford"), ("artifacts", "executed"),
        ("metrics", "cnot_after"), ("absorption", "h_mask"), ("absorption", "network"),
        ("metrics", "entangling_depth_before"), ("metrics", "rotation_count"),
    ],
    ids="-".join,
)
def test_verify_report_missing_key_exits_2(tmp_path, capsys, triangle_input, path):
    assert run(*_opt_args(tmp_path, triangle_input)) == 0
    report = _without(tmp_path / "report.json", path)
    capsys.readouterr()
    assert run("verify", triangle_input, "--report", report) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize(
    "path, value",
    [
        (("mode",), 5), (("mode",), "probability"), (("input_digest",), 5),
        (("metrics", "cnot_after"), "12"), (("metrics", "cnot_after"), True),
        (("metrics", "entangling_depth_after"), 7.0), (("metrics", "cnot_before"), None),
        (("metrics", "entangling_depth_before"), "many"), (("metrics", "rotation_count"), "many"),
        (("metrics", "rotation_count"), 2.0),
    ],
    ids=["mode-number", "mode-unknown", "digest-number", "cnot-string", "cnot-bool",
         "depth-float", "before-null", "depth-before-string", "rotations-string",
         "rotations-float"],
)
def test_verify_report_mistyped_field_exits_2(tmp_path, capsys, triangle_input, path, value):
    assert run(*_opt_args(tmp_path, triangle_input)) == 0
    report_path = tmp_path / "report.json"
    report = json.loads(report_path.read_text())
    section = report
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    write_json(report_path, report)
    capsys.readouterr()
    assert run("verify", triangle_input, "--report", report_path) == 2
    err = capsys.readouterr().err
    assert _one_error_line_in(err) and path[-1] in err


@pytest.mark.parametrize(
    "path, value, names",
    [
        (("metrics", "entangling_depth_before"), 999, ["entangling_depth_before matches input"]),
        (("metrics", "rotation_count"), 999, ["rotation_count matches input"]),
        (("absorption", "h_mask"), [],
         ["executed circuit is opt plus H on the h_mask", "output distribution"]),
    ],
    ids=["depth-before", "rotations", "empty-mask"],
)
def test_verify_report_wrong_value_exits_1(tmp_path, capsys, triangle_input, path, value, names):
    assert run(*_opt_args(tmp_path, triangle_input)) == 0
    report_path = tmp_path / "report.json"
    report = json.loads(report_path.read_text())
    report[path[0]][path[1]] = value
    write_json(report_path, report)
    capsys.readouterr()
    assert run("verify", triangle_input, "--report", report_path) == 1
    out = capsys.readouterr().out
    assert all(f"FAIL  {name}" in out for name in names)
    assert f"{len(names)} check(s) failed" in out


@pytest.mark.parametrize("key", ["h_mask", "network"])
def test_postprocess_report_missing_key_exits_2(tmp_path, capsys, key):
    report = write_json(
        tmp_path / "report.json",
        {"num_qubits": 2, "mode": "probabilities",
         "absorption": {"h_mask": [0, 1], "network": [[0, 1]]}},
    )
    _without(report, ("absorption", key))
    counts = write_json(tmp_path / "counts.json", {"n": 2, "shots": 5, "counts": {"10": 5}})
    out = tmp_path / "post.json"
    assert run("postprocess", counts, "--report", report, "--out", out) == 2
    assert _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("network", [[0]]), ("network", [[0, 99]]), ("network", [[0, "a"]]), ("network", 7),
        ("network", [[1, 1]]), ("network", [[0, -1]]), ("h_mask", 7), ("h_mask", [0, 3]),
        ("num_qubits", "3"), ("num_qubits", 4),
    ],
    ids=["not-a-pair", "out-of-range", "not-an-int", "not-a-list", "equal-ends", "negative",
         "mask-not-a-list", "mask-out-of-range", "num-qubits-not-an-int", "num-qubits-mismatch"],
)
def test_malformed_absorption_exits_2(tmp_path, capsys, triangle_input, key, value):
    assert run(*_opt_args(tmp_path, triangle_input)) == 0
    report_path = tmp_path / "report.json"
    report = json.loads(report_path.read_text())
    (report if key == "num_qubits" else report["absorption"])[key] = value
    write_json(report_path, report)
    counts = write_json(tmp_path / "counts.json", {"n": 3, "shots": 5, "counts": {"100": 5}})
    out = tmp_path / "post.json"
    capsys.readouterr()
    assert run("postprocess", counts, "--report", report_path, "--out", out) == 2
    assert _one_error_line(capsys)
    assert not out.exists()
    assert run("verify", triangle_input, "--report", report_path) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize(
    "payload, message",
    [
        ([1, 2], "counts file is not an object"),
        ({"n": 2, "shots": 5, "counts": [1]}, '"counts" is not an object'),
        ({"n": 2, "shots": 4, "counts": {"10": 5}}, "counts sum to 5, expected 4 shots"),
        ({"n": 2, "shots": 5, "counts": {"10": 5.0}}, "count for '10' must be a non-negative"),
        ({"n": 2, "shots": -1, "counts": {"10": -1}}, '"shots" is not a non-negative integer'),
        ({"n": 2, "shots": 5, "counts": {"1": 5}}, "bitstring '1' is not 2 binary digits"),
        ({"n": 2, "shots": 3.0, "counts": {"10": 3}}, '"shots" is not a non-negative integer'),
        ({"n": 2, "shots": True, "counts": {"10": 1}}, '"shots" is not a non-negative integer'),
        ({"n": True, "shots": 1, "counts": {"1": 1}}, '"n" is not a non-negative integer'),
        ({"n": -2, "shots": 0, "counts": {}}, '"n" is not a non-negative integer'),
        ({"n": 3, "shots": 1, "counts": {"010": True}}, "count for '010' must be a non-negative"),
        # int(key, 2) reads each of these three keys; the counts reader does not
        ({"n": 3, "shots": 1, "counts": {"0_1": 1}}, "bitstring '0_1' is not 3 binary digits"),
        ({"n": 2, "shots": 1, "counts": {"00": 0, "\uff110": 1}},
         "bitstring '\uff110' is not 2 binary digits"),
        ({"n": 3, "shots": 1, "counts": {"01\n": 1}}, "bitstring '01\\n' is not 3 binary digits"),
    ],
    ids=["not-an-object", "counts-not-an-object", "shot-sum", "non-integer", "negative",
         "short-key", "shots-float", "shots-bool", "n-bool", "n-negative", "count-bool",
         "underscore", "fullwidth-digit", "trailing-newline"],
)
def test_malformed_counts_exits_2(tmp_path, capsys, payload, message):
    report = write_json(
        tmp_path / "report.json",
        {"num_qubits": 2, "mode": "probabilities",
         "absorption": {"h_mask": [0, 1], "network": [[0, 1]]}},
    )
    counts = write_json(tmp_path / "counts.json", payload)
    out = tmp_path / "post.json"
    assert run("postprocess", counts, "--report", report, "--out", out) == 2
    err = capsys.readouterr().err
    assert _one_error_line_in(err) and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "postprocess", "map-expectations"])
def test_output_path_is_a_directory_exits_2(tmp_path, capsys, command):
    # a write error is an input error (exit 2), not a verification failure
    d = tmp_path / "d"
    d.mkdir()
    report = write_json(tmp_path / "report.json", {
        "num_qubits": 2,
        "absorption": {"h_mask": [0], "network": [[0, 1]]},
        "observables": [{"original": "XZ", "transformed": "-ZX", "basis_layer": []}],
    })
    counts = write_json(tmp_path / "counts.json", {"n": 2, "shots": 5, "counts": {"10": 5}})
    values = write_json(tmp_path / "values.json", {"values": [0.5]})
    argv = {
        "gen": ("gen", "labs", "--n", 5),
        "postprocess": ("postprocess", counts, "--report", report),
        "map-expectations": ("map-expectations", values, "--report", report),
    }[command]
    assert run(*argv, "--out", d) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize("command, target", [
    ("postprocess", "counts.json"), ("postprocess", "report.json"),
    ("map-expectations", "values.json"), ("map-expectations", "report.json"),
])
def test_output_path_that_is_an_input_exits_2(tmp_path, capsys, command, target):
    # --out naming an input, here through a detour, must not replace it
    report = write_json(tmp_path / "report.json", {
        "num_qubits": 2,
        "absorption": {"h_mask": [0], "network": [[0, 1]]},
        "observables": [{"original": "XZ", "transformed": "-ZX", "basis_layer": []}],
    })
    counts = write_json(tmp_path / "counts.json", {"n": 2, "shots": 5, "counts": {"10": 5}})
    values = write_json(tmp_path / "values.json", {"values": [0.5]})
    (tmp_path / "d").mkdir()
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    first = counts if command == "postprocess" else values
    assert run(command, first, "--report", report, "--out", tmp_path / "d" / ".." / target) == 2
    err = capsys.readouterr().err
    assert _one_error_line_in(err) and "is the same file as the" in err
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def _written(d, name, *gates):
    """Path of a fresh 3-qubit QASM file ``name`` in ``d`` holding ``gates``."""
    path = d / name
    path.write_text(emit_qasm(Circuit(3, gates)))
    return str(path)


def _edited(name, edit):
    """A path maker: the artifact ``name`` with ``edit`` applied to its
    text, written to edit.qasm."""

    def make(d):
        path = d / "edit.qasm"
        path.write_text(edit((d / name).read_text()))
        return str(path)

    return make


@pytest.mark.parametrize(
    "key, value, message",
    [
        pytest.param("optimized", lambda d: 5, '"optimized" is not a path string', id="number"),
        pytest.param("clifford", lambda d: [str(d / "clifford.qasm")],
                     '"clifford" is not a path string', id="list"),
        pytest.param("executed", lambda d: "abc", '"executed" is not a list of path strings',
                     id="executed-string"),
        pytest.param("executed", lambda d: [5], '"executed" is not a list of path strings',
                     id="executed-number"),
        pytest.param("optimized", str, "cannot read optimized circuit", id="directory"),
        pytest.param("clifford", lambda d: str(d / "bad.qasm"), "cannot read Clifford circuit",
                     id="not-utf8"),
        pytest.param("optimized", lambda d: str(d / "absent.qasm"),
                     "cannot read optimized circuit", id="absent"),
        pytest.param("executed", lambda d: [str(d)], "cannot read executed circuit",
                     id="executed-directory"),
        pytest.param("executed", lambda d: [], '"executed" is empty', id="executed-empty"),
        pytest.param("executed",
                     lambda d: [str(d / "opt.executed.qasm"), _written(d, "h.qasm", h(0))],
                     '"executed" lists 2 files', id="executed-two"),
        pytest.param("optimized", _edited("opt.qasm", lambda t: t + "cx q[0],q[7];\n"),
                     "'cx q[0],q[7]': qubit 7 outside the 3-qubit register", id="qubit-outside"),
        pytest.param("clifford", _edited("clifford.qasm", lambda t: t + "cx q[1],q[1];\n"),
                     "'cx q[1],q[1]': cx control and target must differ", id="control-is-target"),
        pytest.param("executed", lambda d: [_edited("opt.executed.qasm",
                                                    lambda t: t + "rz(1e999) q[0];\n")(d)],
                     "'rz(1e999) q[0]': rz needs a finite angle", id="infinite-angle"),
        pytest.param("optimized", _edited("opt.qasm", lambda t: t + "h q[0]\n"),
                     "missing ';'", id="missing-semicolon"),
        pytest.param("optimized", _edited("opt.qasm", lambda t: t.split("qreg")[0]),
                     "lacks a qreg declaration", id="no-qreg"),
        pytest.param("optimized", _edited("opt.qasm", lambda t: t.replace("qreg q[3]", "qreg q[0]")),
                     "edit.qasm: bad qasm statement 'qreg q[0]': qubit count must be positive, got 0",
                     id="empty-register"),
    ],
)
def test_verify_bad_artifact_path_exits_2(tmp_path, capsys, triangle_input, key, value, message):
    assert run(*_opt_args(tmp_path, triangle_input)) == 0
    (tmp_path / "bad.qasm").write_bytes(b"OPENQASM 2.0;\n// \xff\n")
    report_path = tmp_path / "report.json"
    report = json.loads(report_path.read_text())
    report["artifacts"][key] = value(tmp_path)
    write_json(report_path, report)
    capsys.readouterr()
    assert run("verify", triangle_input, "--report", report_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("qubits", [2, 4])
@pytest.mark.parametrize("key", ["optimized", "clifford", "executed"])
def test_verify_artifact_register_mismatch_exits_2(tmp_path, capsys, triangle_input, key, qubits):
    assert run(*_opt_args(tmp_path, triangle_input)) == 0
    other = tmp_path / "other.qasm"
    other.write_text(emit_qasm(Circuit(qubits)))
    report_path = tmp_path / "report.json"
    report = json.loads(report_path.read_text())
    report["artifacts"][key] = [str(other)] if key == "executed" else str(other)
    write_json(report_path, report)
    capsys.readouterr()
    assert run("verify", triangle_input, "--report", report_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{key} circuit" in err.lower() and f"declares {qubits} qubits, the input has 3" in err


@pytest.mark.parametrize("payload", [b"\xff\xfe", b"[1, 2]", b"5"], ids=["not-utf8", "list", "number"])
def test_report_not_a_json_object_exits_2(tmp_path, capsys, triangle_input, payload):
    report = tmp_path / "report.json"
    report.write_bytes(payload)
    counts = write_json(tmp_path / "counts.json", {"n": 3, "shots": 1, "counts": {"000": 1}})
    values = write_json(tmp_path / "values.json", {"values": [0.5]})
    for argv in (
        ("postprocess", counts, "--report", report, "--out", tmp_path / "post.json"),
        ("map-expectations", values, "--report", report, "--out", tmp_path / "m.json"),
        ("verify", triangle_input, "--report", report),
    ):
        capsys.readouterr()
        assert run(*argv) == 2
        assert _one_error_line(capsys)


@pytest.fixture()
def xyz_input(tmp_path):
    return write_json(tmp_path / "xyz.json", {
        "num_qubits": 4,
        "terms": [{"pauli": "ZZZZ", "coeff": 0.31}, {"pauli": "YYXX", "coeff": -0.7},
                  {"pauli": "XIZY", "coeff": 0.2}, {"pauli": "IXYZ", "coeff": -0.45}],
        "observables": ["XXZZ", "ZIIY", "-YXZI"],
    })


def test_verify_reads_executed_observable_circuits(tmp_path, capsys, xyz_input):
    assert run(*_opt_args(tmp_path, xyz_input)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    paths = report["artifacts"]["executed"]
    assert len(paths) == 3
    assert run("verify", xyz_input, "--report", tmp_path / "report.json") == 0
    assert "pass  executed circuit 2 is opt plus observable 2's basis layer" in capsys.readouterr().out
    # drop the last gate of a file whose basis layer is not empty
    k = next(k for k, rec in enumerate(report["observables"]) if rec["basis_layer"])
    valid = Path(paths[k]).read_text()
    Path(paths[k]).write_text("".join(valid.splitlines(keepends=True)[:-1]))
    assert run("verify", xyz_input, "--report", tmp_path / "report.json") == 1
    assert f"FAIL  executed circuit {k} is opt plus" in capsys.readouterr().out
    Path(paths[k]).write_text("garbage")
    assert run("verify", xyz_input, "--report", tmp_path / "report.json") == 2
    err = capsys.readouterr().err
    assert _one_error_line_in(err) and f"executed circuit {paths[k]}" in err


def test_optimize_and_verify_never_build_the_native_circuit(tmp_path, monkeypatch, xyz_input, triangle_input):
    # the baseline is counted from the term supports (extract.native_cost);
    # the CLI holds no name of its own for the mirrored circuit
    cli = importlib.import_module("cliffex.cli")
    assert not hasattr(cli, "native_circuit")

    def unreached(*args):
        raise AssertionError("the native circuit was built")

    monkeypatch.setattr(importlib.import_module("cliffex.extract"), "native_circuit", unreached)
    for inp in (xyz_input, triangle_input):
        assert run(*_opt_args(tmp_path, inp)) == 0
        assert run("verify", inp, "--report", tmp_path / "report.json") == 0


def test_verify_parses_opt_once(tmp_path, monkeypatch, xyz_input):
    # structural, no timing: an executed file that starts with opt's text
    # is parsed only after it, so the gate pattern runs once per gate line
    # of opt, of the Clifford file and of each basis layer
    assert run(*_opt_args(tmp_path, xyz_input)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    bound = sum(len(parse_qasm((tmp_path / name).read_text()).gates) for name in ("opt.qasm", "clifford.qasm"))
    bound += sum(len(rec["basis_layer"]) for rec in report["observables"])
    module = importlib.import_module("cliffex.circuit")
    pattern, lines = module._QASM_GATE, []

    class Counting:
        def fullmatch(self, line):
            lines.append(line)
            return pattern.fullmatch(line)

    monkeypatch.setattr(module, "_QASM_GATE", Counting())
    assert run("verify", xyz_input, "--report", tmp_path / "report.json") == 0
    assert 0 < len(lines) <= bound


def test_verify_verdicts_do_not_depend_on_the_opt_prefix(tmp_path, capsys, xyz_input):
    assert run(*_opt_args(tmp_path, xyz_input)) == 0
    report = tmp_path / "report.json"
    paths = json.loads(report.read_text())["artifacts"]["executed"]
    opt_path = tmp_path / "opt.qasm"
    opt = opt_path.read_text()
    valid = Path(paths[0]).read_text()

    def verify():
        capsys.readouterr()
        return run("verify", xyz_input, "--report", report)

    # reformatted, so no longer starting with opt's text: still passes
    Path(paths[0]).write_text("// reformatted\n\n" + "".join(
        line.replace(",", " ,  ") + "  // gate\n\n" for line in valid.splitlines()))
    assert verify() == 0
    Path(paths[0]).write_text(valid)
    # opt's text without its trailing newline: every file is parsed whole
    opt_path.write_text(opt[:-1])
    assert verify() == 0
    opt_path.write_text(opt)
    # a statement outside the register after opt's text
    Path(paths[0]).write_text(opt + "h q[9];\n")
    assert verify() == 2
    assert capsys.readouterr().err == (
        f"error: executed circuit {paths[0]}: bad qasm statement 'h q[9]': "
        "qubit 9 outside the 4-qubit register\n")
    # one of opt's gates dropped
    lines = valid.splitlines(keepends=True)
    Path(paths[0]).write_text("".join(lines[:3] + lines[4:]))
    assert verify() == 1
    assert "FAIL  executed circuit 0 is opt plus observable 0's basis layer" in capsys.readouterr().out


def test_verify_passes_an_observable_with_an_empty_basis_layer(tmp_path, capsys):
    inp = write_json(tmp_path / "zz.json", {
        "num_qubits": 3,
        "terms": [{"pauli": "ZZI", "coeff": 0.3}, {"pauli": "IZZ", "coeff": -0.2}],
        "observables": ["ZIZ", "XXX"],
    })
    assert run(*_opt_args(tmp_path, inp)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["observables"][0]["basis_layer"] == []
    assert Path(report["artifacts"]["executed"][0]).read_text() == (tmp_path / "opt.qasm").read_text()
    capsys.readouterr()
    assert run("verify", inp, "--report", tmp_path / "report.json") == 0
    assert "pass  executed circuit 0 is opt plus observable 0's basis layer" in capsys.readouterr().out


_COMMON_CHECKS = [
    "input digest matches report",
    "mode matches input",
    "observables match input",
    "unitary round-trip",
    "cnot_after matches artifact",
    "entangling_depth_after matches artifact",
    "cnot_before matches input",
    "entangling_depth_before matches input",
    "rotation_count matches input",
]


@pytest.mark.parametrize("fixture, checks", [
    ("triangle_input", ["executed circuit is opt plus H on the h_mask", "output distribution"]),
    ("xyz_input", ["observable expectations"]
     + [f"executed circuit {k} is opt plus observable {k}'s basis layer" for k in range(3)]),
])
def test_verify_prints_every_check_in_order(tmp_path, capsys, request, fixture, checks):
    inp = request.getfixturevalue(fixture)
    assert run(*_opt_args(tmp_path, inp)) == 0
    capsys.readouterr()
    assert run("verify", inp, "--report", tmp_path / "report.json") == 0
    lines = [f"pass  {name}" for name in _COMMON_CHECKS + checks] + ["all checks passed"]
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda r: r["artifacts"]["executed"].pop(), "lists 2 files for 3 observables",
                     id="one-file-short"),
        pytest.param(lambda r: r["observables"][1].pop("basis_layer"), 'lacks "basis_layer"',
                     id="no-layer"),
        pytest.param(lambda r: r["observables"][1].update(basis_layer="h"),
                     "observables[1] basis_layer is not a list", id="layer-string"),
        pytest.param(lambda r: r["observables"][1].update(basis_layer=[["x", 0]]),
                     "observables[1] basis_layer is not a list", id="layer-kind"),
        pytest.param(lambda r: r["observables"][1].update(basis_layer=[["h", 4]]),
                     "observables[1] basis_layer is not a list", id="layer-qubit-outside"),
        pytest.param(lambda r: r["observables"][1].update(basis_layer=[["h", True]]),
                     "observables[1] basis_layer is not a list", id="layer-qubit-bool"),
        pytest.param(lambda r: r["observables"][1].update(basis_layer=[["h"]]),
                     "observables[1] basis_layer is not a list", id="layer-short-pair"),
        pytest.param(
            lambda r: r["observables"][1].update(transformed=r["observables"][1]["transformed"] + "Z",
                                                 basis_layer=[["h", r["num_qubits"]]]),
            "observables[1] transformed: Pauli has 5 letters, expected 4", id="transformed-too-long",
        ),
        pytest.param(lambda r: r["observables"][0].update(original="ZZZ"),
                     "observables[0] original: Pauli has 3 letters, expected 4", id="original-too-short"),
        pytest.param(lambda r: r.update(num_qubits=7), "num_qubits", id="num-qubits-mismatch"),
        pytest.param(lambda r: r.update(num_qubits="4"), "num_qubits", id="num-qubits-string"),
        pytest.param(lambda r: r.pop("num_qubits"), 'lacks "num_qubits"', id="no-num-qubits"),
    ],
)
def test_verify_malformed_observable_layers_exit_2(tmp_path, capsys, xyz_input, edit, message):
    assert run(*_opt_args(tmp_path, xyz_input)) == 0
    report_path = tmp_path / "report.json"
    report = json.loads(report_path.read_text())
    edit(report)
    write_json(report_path, report)
    capsys.readouterr()
    assert run("verify", xyz_input, "--report", report_path) == 2
    err = capsys.readouterr().err
    assert _one_error_line_in(err) and message in err


def test_optimize_bad_output_path_writes_nothing(tmp_path, capsys, triangle_input):
    report = tmp_path / "report.json"
    report.write_text("an earlier run's report\n")
    argv = _opt_args(tmp_path, triangle_input, "--clifford", tmp_path / "nodir" / "c.qasm")
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert _one_error_line_in(err) and "nodir" in err
    assert not (tmp_path / "opt.qasm").exists()
    assert report.read_text() == "an earlier run's report\n"
    # an output path that is a directory is refused the same way
    assert run(*_opt_args(tmp_path, triangle_input, "--out", tmp_path)) == 2
    assert _one_error_line(capsys)
    assert report.read_text() == "an earlier run's report\n"
    # so are two outputs, or an output and the input, that are one file
    (tmp_path / "d").mkdir()
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    for extra in (
        ("--out", tmp_path / "x.qasm", "--clifford", tmp_path / "x.qasm"),
        ("--clifford", tmp_path / "opt.executed.qasm"),
        ("--report", tmp_path / "d" / ".." / "clifford.qasm"),
        ("--report", triangle_input),
    ):
        assert run(*_opt_args(tmp_path, triangle_input, *extra)) == 2
        err = capsys.readouterr().err
        assert _one_error_line_in(err) and "is the same file as" in err
        assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def _io_files(tmp_path):
    """A report for both modes, a counts file and a values file in tmp_path."""
    report = write_json(tmp_path / "report.json", {
        "num_qubits": 2,
        "absorption": {"h_mask": [0], "network": [[0, 1]]},
        "observables": [{"original": "XZ", "transformed": "-ZX", "basis_layer": []}],
    })
    counts = write_json(tmp_path / "counts.json", {"n": 2, "shots": 5, "counts": {"10": 5}})
    values = write_json(tmp_path / "values.json", {"values": [0.5]})
    return report, counts, values


@pytest.mark.parametrize("command, target", [
    ("optimize", "tri.json"),
    ("postprocess", "counts.json"), ("postprocess", "report.json"),
    ("map-expectations", "values.json"), ("map-expectations", "report.json"),
])
def test_output_hard_linked_to_an_input_exits_2(tmp_path, capsys, triangle_input, command, target):
    # a hard link has its own name, so only the file's identity shows
    # that writing it would replace the input
    report, counts, values = _io_files(tmp_path)
    link = tmp_path / "link.json"
    os.link(tmp_path / target, link)
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    argv = {
        "optimize": _opt_args(tmp_path, triangle_input, "--report", link),
        "postprocess": ("postprocess", counts, "--report", report, "--out", link),
        "map-expectations": ("map-expectations", values, "--report", report, "--out", link),
    }[command]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert _one_error_line_in(err) and "is the same file as the" in err
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_optimize_output_symlinks(tmp_path, capsys, triangle_input):
    # a symlink to the input, a dangling symlink to another output, and
    # an output reached through a symlinked directory are all refused
    (tmp_path / "to-input").symlink_to(triangle_input)
    (tmp_path / "dangling").symlink_to(tmp_path / "clifford.qasm")
    (tmp_path / "ldir").symlink_to(tmp_path, target_is_directory=True)
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    for extra, what in (
        (("--report", tmp_path / "to-input"), "the input"),
        (("--report", tmp_path / "dangling"), tmp_path / "clifford.qasm"),
        (("--report", tmp_path / "ldir" / "clifford.qasm"), tmp_path / "clifford.qasm"),
    ):
        assert run(*_opt_args(tmp_path, triangle_input, *extra)) == 2
        err = capsys.readouterr().err
        assert _one_error_line_in(err) and f"is the same file as {what}" in err
        assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
    # a symlink loop is a one-line error before anything is written
    (tmp_path / "loop").symlink_to(tmp_path / "loop")
    assert run(*_opt_args(tmp_path, triangle_input, "--report", tmp_path / "loop")) == 2
    assert _one_error_line(capsys)
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
    # a dangling symlink to a fresh name is written through, creating it
    (tmp_path / "to-new").symlink_to(tmp_path / "new.json")
    assert run(*_opt_args(tmp_path, triangle_input, "--report", tmp_path / "to-new")) == 0
    assert json.loads((tmp_path / "new.json").read_text())["num_qubits"] == 3
    # once the outputs exist, the symlinked directory still reaches them
    assert run(*_opt_args(tmp_path, triangle_input, "--out", tmp_path / "ldir" / "clifford.qasm")) == 2
    assert "is the same file as" in capsys.readouterr().err


@pytest.mark.parametrize("outputs", [
    ("./x.qasm", "x.qasm"), ("d/../x.qasm", "x.qasm"), ("d/./x.qasm", "d/x.qasm"),
    ("x.qasm/", "x.qasm"), ("x.qasm/.", "x.qasm"), ("x.qasm//", "d/x.qasm"),
    ("ABS/x.qasm", "./x.qasm"), ("d/x.qasm", "ldir/x.qasm"), ("dangling", "new.qasm"),
    ("old.qasm", "./old.qasm"), ("old.qasm/", "d/../old.qasm"), ("d/old.qasm", "ldir/old.qasm"),
    ("d/../in.json",), ("in.json/",), ("link",), ("ABS/in.json",), ("to-old", "old.qasm"),
    ("nodir/x.qasm",), ("nodir/../x.qasm",), ("in.json/x.qasm",), ("x.qasm", "in.json/.."),
    ("d",), ("d/",), ("ldir",), ("d/..",), (".",), ("",), ("/",), ("ABS",),
], ids=lambda outputs: "|".join(outputs))
def test_output_check_matches_the_resolved_name_rule(tmp_path, monkeypatch, outputs):
    # on every path but a hard link, one stat per file decides as the
    # resolved-name rule did, message for message
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    for name in ("in.json", "old.qasm", "d/old.qasm"):
        (tmp_path / name).write_text("{}")
    (tmp_path / "link").symlink_to("in.json")
    (tmp_path / "to-old").symlink_to("d/../old.qasm")
    (tmp_path / "dangling").symlink_to("d/../new.qasm")
    (tmp_path / "ldir").symlink_to("d", target_is_directory=True)
    outputs = [p.replace("ABS", str(tmp_path)) for p in outputs]
    inputs = {"in.json": "the input in.json", "d/old.qasm": "the report d/old.qasm"}
    cli = importlib.import_module("cliffex.cli")
    try:
        cli._check_outputs(inputs, outputs)
        verdict = None
    except CliffexError as exc:
        verdict = str(exc)
    assert verdict == outputs_by_name(inputs, outputs)


def test_output_check_stats_instead_of_resolving(tmp_path, monkeypatch):
    # one check resolves no Path and each distinct directory string at
    # most once, however many new files it holds
    cli = importlib.import_module("cliffex.cli")
    pathlib = importlib.import_module("pathlib")
    posixpath = importlib.import_module("os.path")
    calls = {"resolve": 0, "realpath": []}
    resolve, realpath = pathlib.Path.resolve, posixpath.realpath

    def counted_resolve(self, *args, **kwargs):
        calls["resolve"] += 1
        return resolve(self, *args, **kwargs)

    def counted_realpath(path, *args, **kwargs):
        calls["realpath"].append(os.fspath(path))
        return realpath(path, *args, **kwargs)

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "in.json").write_text("{}")
    (tmp_path / "b" / "old.qasm").write_text("")
    monkeypatch.setattr(pathlib.Path, "resolve", counted_resolve)
    monkeypatch.setattr(posixpath, "realpath", counted_realpath)
    outputs = [str(tmp_path / d / f"{k}.qasm") for d in ("a", "b") for k in range(4)]
    cli._check_outputs({str(tmp_path / "in.json"): "the input"}, outputs + [str(tmp_path / "b" / "old.qasm")])
    assert calls["resolve"] == 0
    assert len(calls["realpath"]) == len(set(calls["realpath"])) <= 2


def test_optimize_formats_opt_once(tmp_path, monkeypatch, xyz_input):
    # with three observables, each gate of opt, of the Clifford and of
    # each basis layer is formatted once: the executed files append
    # their layers to opt's text
    cli = importlib.import_module("cliffex.cli")
    formatted = []

    def recorded(fn):
        def call(arg):
            formatted.append(arg.gates if isinstance(arg, Circuit) else tuple(arg))
            return fn(arg)
        return call

    for name in ("emit_qasm", "_qasm_gates"):
        monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
    assert run(*_opt_args(tmp_path, xyz_input)) == 0
    opt = parse_qasm((tmp_path / "opt.qasm").read_text())
    cliff = parse_qasm((tmp_path / "clifford.qasm").read_text())
    layers = [rec["basis_layer"] for rec in json.loads((tmp_path / "report.json").read_text())["observables"]]
    assert opt.gates and len(layers) == 3
    assert sum(map(len, formatted)) == len(opt.gates) + len(cliff.gates) + sum(map(len, layers))


def test_verify_checks_input_digest(tmp_path, capsys, triangle_input):
    assert run(*_opt_args(tmp_path, triangle_input)) == 0
    assert run("verify", triangle_input, "--report", tmp_path / "report.json") == 0
    assert "pass  input digest matches report" in capsys.readouterr().out
    # the same terms in other bytes: only the digest check sees the edit
    triangle_input.write_text(json.dumps(json.loads(triangle_input.read_text()), indent=4))
    assert run("verify", triangle_input, "--report", tmp_path / "report.json") == 1
    out = capsys.readouterr().out
    assert "FAIL  input digest matches report" in out and "1 check(s) failed" in out


def test_verify_report_dropping_an_observable_exits_1(tmp_path, capsys, xyz_input):
    assert run(*_opt_args(tmp_path, xyz_input)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    # drop observable 1 together with its executed file: every other
    # check still holds, but the report no longer answers the input
    del report["observables"][1]
    del report["artifacts"]["executed"][1]
    write_json(tmp_path / "report.json", report)
    capsys.readouterr()
    assert run("verify", xyz_input, "--report", tmp_path / "report.json") == 1
    out = capsys.readouterr().out
    assert "FAIL  observables match input" in out and "1 check(s) failed" in out


def test_verify_report_of_another_mode_exits_1(tmp_path, capsys, xyz_input):
    assert run(*_opt_args(tmp_path, xyz_input)) == 0
    # the same terms and observables in probabilities mode, and a report
    # whose digest was edited to match that input
    other = write_json(tmp_path / "prob.json",
                       dict(json.loads(xyz_input.read_text()), mode="probabilities"))
    report = json.loads((tmp_path / "report.json").read_text())
    report["input_digest"] = hashlib.sha256(other.read_bytes()).hexdigest()
    write_json(tmp_path / "report.json", report)
    capsys.readouterr()
    assert run("verify", other, "--report", tmp_path / "report.json") == 1
    out = capsys.readouterr().out
    assert "FAIL  mode matches input" in out and "FAIL  observables match input" in out
    assert "2 check(s) failed" in out


def test_optimize_is_byte_deterministic(tmp_path, triangle_input):
    outputs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        assert run(
            "optimize", triangle_input,
            "--out", d / "opt.qasm", "--clifford", d / "clifford.qasm",
            "--report", d / "report.json",
        ) == 0
        outputs.append((d / "opt.qasm").read_bytes() + (d / "clifford.qasm").read_bytes())
    assert outputs[0] == outputs[1]


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    term = {"pauli": "ZZ", "coeff": 0.1}
    for payload in (
        b"{nope",
        b'{"num_qubits": 2, "terms": [{"pauli": "ZZ", "coeff": 0.1}]}\xff',
        json.dumps({"num_qubits": 2, "terms": [{"pauli": 5, "coeff": 0.1}]}).encode(),
        json.dumps({"num_qubits": True, "terms": [{"pauli": "Z", "coeff": 0.1}]}).encode(),
        json.dumps({"num_qubits": 2, "terms": [term, {"pauli": "ZZ", "coeff": True}]}).encode(),
        # an int past float range; an angle 2c past it; two angles that merge past it
        json.dumps({"num_qubits": 2, "terms": [term, {"pauli": "ZZ", "coeff": 10**400}]}).encode(),
        json.dumps({"num_qubits": 2, "terms": [{"pauli": "ZZ", "coeff": 1e308}]}).encode(),
        json.dumps({"num_qubits": 2, "terms": [{"pauli": "ZZ", "coeff": 8.9e307}] * 2}).encode(),
    ):
        bad.write_bytes(payload)
        capsys.readouterr()
        assert run(*_opt_args(tmp_path, bad)) == 2
        assert _one_error_line(capsys)
        assert not (tmp_path / "report.json").exists()


def test_missing_file_exits_2(tmp_path, capsys, triangle_input):
    assert run("optimize", tmp_path / "absent.json") == 2
    assert _one_error_line(capsys)
    assert run(*_opt_args(tmp_path, triangle_input, "--out", tmp_path / "absent" / "opt.qasm")) == 2
    assert _one_error_line(capsys)


# sha256 of every emitted file and of report["metrics"] (canonical JSON).
# A refactor must leave these unchanged; only a deliberate change to the
# compiler's output may update them.
GOLDEN = {
    "triangle": {
        "opt": "fd44f848f16e41055c8119c9754d330ee96bde19a52278b1b202d668ac72b11d",
        "clifford": "068629424fa738d5edb9bd24e227c33f82c70bd845cf1766b47c7108672cbbfa",
        "executed": ["dc1105980314f14d80299e7ee25dc470f12ea513da4167c574d3e36567c53211"],
        "metrics": "59626ae490459bbe24730ac731bfebb1f0473a689b69920373997acd3e5a2fe8",
    },
    "labs8": {
        "opt": "5e05b85dda493cd90339940eb192d0e5cdf2e0561ac75f8bcdf2d1928817a826",
        "clifford": "4099b980d4068fa3ea753da54485a369e947ba28a2a1e1b42ee9a7da75ee5331",
        "executed": ["d9a2b9b5560064aae8758fba1ca20c0a850d72c5ae525260ba623827887ed58c"],
        "metrics": "d3397c3294d6d06f8f697d8013e5786f99f4c454578eeebcec33d58e44e63c22",
    },
    # seven X/Y/Z strings in blocks of 2, 2, 1, 1, 1: the trees of the first
    # block are guided by the second block's strings
    "multiblock": {
        "opt": "e072db9fd83365d8ac471b5aa12292fb1370bc35984e9b0350f79af4c3ae2dcf",
        "clifford": "53d7848b86ed9881bf5a0a5198fbcfa6ca5acbefb55c10334e3d850fe5962fdb",
        "executed": [
            "c7d6b5d925f2182633a7ed714a9a82b749fa35e1a7ed58ca2f0e165435be742b",
            "a7bdc5a4f18a1f5b9c77b73b501a4962592c0aa5beb789ba4d76176c2fd4fdf1",
        ],
        "metrics": "e337f26c10198750e4fcaa73dcc5134fed82d92de2343861d4bc6210d4b7da9b",
    },
    "xyz": {
        "opt": "7dc2861b66b773886f7c85b459dfe4f53be64722b288b3e2e00f988a470b91b7",
        "clifford": "8a246ae445d1b581dd4e0feabddfa92c5e46884929a9888e1dde76b7e18dd9dc",
        "executed": [
            "bde731e48565cf0d1ceef57443ce8035dbf748e13563023f2a250e5b098067d4",
            "d3d2eb8502446068d31115a93551077f0c9f0132087dd3251dec4c2bf02d31cd",
            "5140df68c31423a8f5cbf3beb5ada172d12c38890197ebd7bb892b71c76e4ce9",
        ],
        "metrics": "bc7164b89f0ff70dbce92b38cb1f88176a3ac76a9f5867fd84d4e1fd831d8905",
    },
    # reorder-heavy: 115 and 119 candidate reorders pin the scorer's choices
    "labs12": {
        "opt": "6ddd9338ed335ecc6503b16314ae44e04eb7fa0b0b8326abcea6ed4e81f0b34a",
        "clifford": "b2373fafcb5f07313e19d58ad4aa7a09205d8ac99e00a361e979b046d75503c2",
        "executed": ["3007af20e2c1300481351b46d40b684591368e0c85ece80835abdadeccfa3bec"],
        "metrics": "19ab84d9f6714f5996635f836ea6ab360d1554f2b69e7b8b3d0047c6713f8725",
    },
    "maxcut20r4": {
        "opt": "559257dc354daca5fc2b9202bf09cb9b171787c768e3c702f1d80ff6083cec8a",
        "clifford": "78ac05a08604ad11f1dcc57a49facc91b4f97f6631358066479651b61287def5",
        "executed": ["cfb73e436a934da0cb6a29e02b6e14c07cde264a4045c59512bbf5f0557e4b5d"],
        "metrics": "906c66f476c0586de14fbe62232c92397270926c709c1d086b2f9d3599989850",
    },
}

# ``gen`` argv of the generated golden inputs
GOLDEN_GEN = {
    "labs8": ("labs", "--n", 8),
    "labs12": ("labs", "--n", 12),
    "maxcut20r4": ("maxcut", "--nodes", 20, "--degree", 4, "--layers", 3),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(tmp_path, triangle_input, xyz_input, name):
    if name == "triangle":
        inp = triangle_input
    elif name in GOLDEN_GEN:
        inp = tmp_path / f"{name}.json"
        assert run("gen", *GOLDEN_GEN[name], "--out", inp) == 0
    elif name == "multiblock":
        words = ["XXXZY", "IYZXX", "YIYYI", "YIYYY", "ZYXZZ", "XIYIY", "ZIZYZ"]
        coeffs = [0.31, -0.7, 0.2, -0.45, 0.6, 0.15, -0.25]
        inp = write_json(tmp_path / "multiblock.json", {
            "num_qubits": 5,
            "terms": [{"pauli": w, "coeff": c} for w, c in zip(words, coeffs)],
            "observables": ["XZYIZ", "-ZZIXY"],
        })
    else:
        inp = xyz_input
    assert run(*_opt_args(tmp_path, inp)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert {
        "opt": _sha((tmp_path / "opt.qasm").read_bytes()),
        "clifford": _sha((tmp_path / "clifford.qasm").read_bytes()),
        "executed": [_sha(Path(p).read_bytes()) for p in report["artifacts"]["executed"]],
        "metrics": _sha(json.dumps(report["metrics"], sort_keys=True).encode()),
    } == GOLDEN[name]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """For each mode, a valid input, the report ``optimize`` writes for it
    and a counts (probabilities) or values (observables) file."""
    d = tmp_path_factory.mktemp("valid")
    inputs = {
        "probabilities": {"num_qubits": 3, "terms": [
            {"pauli": "ZZI", "coeff": 0.3}, {"pauli": "IZZ", "coeff": 0.3},
            {"pauli": "XII", "coeff": 0.7}, {"pauli": "IXI", "coeff": 0.7}]},
        "observables": {"num_qubits": 3, "terms": [
            {"pauli": "ZZZ", "coeff": 0.31}, {"pauli": "YYX", "coeff": -0.7}],
            "observables": ["XXZ", "-ZIY"]},
    }
    files = {}
    for mode, payload in inputs.items():
        inp = write_json(d / f"{mode}.json", payload)
        assert run("optimize", inp, "--out", d / f"{mode}.qasm", "--clifford", d / f"{mode}.c.qasm",
                   "--report", d / f"{mode}.report.json") == 0
        files[mode] = {"input": inp, "report": d / f"{mode}.report.json"}
    files["probabilities"]["counts"] = write_json(
        d / "counts.json", {"n": 3, "shots": 6, "counts": {"010": 4, "111": 2}})
    files["observables"]["values"] = write_json(d / "values.json", {"values": [0.5, -0.25]})
    return files


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    # ints past float range, and floats whose doubled sum (an RZ angle) overflows
    | st.integers(2**1024, 10**400) | st.integers(-10**400, -2**1024)
    | st.floats(4e307, sys.float_info.max) | st.floats(-sys.float_info.max, -4e307),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _json_paths(doc, prefix=()):
    """The key path of every value inside ``doc``, the document itself first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


# the commands that read each file, given the file set of one mode
_READERS = {
    "input": lambda f, out: [
        ("optimize", f["input"], "--out", out / "o.qasm", "--clifford", out / "c.qasm",
         "--report", out / "r.json"),
        ("verify", f["input"], "--report", f["report"]),
    ],
    "report": lambda f, out: [
        ("verify", f["input"], "--report", f["report"]),
        ("postprocess", f["counts"], "--report", f["report"], "--out", out / "p.json")
        if "counts" in f else
        ("map-expectations", f["values"], "--report", f["report"], "--out", out / "m.json"),
    ],
    "counts": lambda f, out: [
        ("postprocess", f["counts"], "--report", f["report"], "--out", out / "p.json"),
    ],
    "values": lambda f, out: [
        ("map-expectations", f["values"], "--report", f["report"], "--out", out / "m.json"),
    ],
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_file_exits_0_1_or_2(valid_files, data):
    mode = data.draw(st.sampled_from(sorted(valid_files)))
    kind = data.draw(st.sampled_from(sorted(valid_files[mode])))
    doc = json.loads(valid_files[mode][kind].read_text())
    # up to three edits, since some faults need two fields to disagree
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        if not path:
            doc = data.draw(_JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_JSON_VALUES)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        files = {**valid_files[mode], kind: write_json(out / f"{kind}.json", doc)}
        for argv in _READERS[kind](files, out):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(*argv)
            assert code in (0, 1, 2), argv[0]
            if code == 2:
                assert _one_error_line_in(err.getvalue()), (argv[0], err.getvalue())


@pytest.mark.parametrize("kind", sorted(_READERS))
def test_deeply_nested_json_exits_2(valid_files, tmp_path, capsys, kind):
    # nesting past the recursion limit is malformed JSON, not a traceback
    nested = tmp_path / f"{kind}.json"
    nested.write_text("[" * 100000 + "]" * 100000)
    for files in valid_files.values():
        if kind in files:
            for argv in _READERS[kind]({**files, kind: nested}, tmp_path):
                assert run(*argv) == 2, argv[0]
                assert _one_error_line(capsys), argv[0]


_ANGLES = st.lists(st.floats() | st.sampled_from([1e308, -1e308]), max_size=3)
_SIZES = st.none() | st.integers(-1, 10)


@st.composite
def _gen_argv(draw):
    """``gen`` argv: sizes may be absent, negative or infeasible, and
    angles nan, +-inf or so large that a term's coefficient overflows.
    Every value is attached with ``=`` so that a negative one is read as
    a value, not as an option."""
    kind = draw(st.sampled_from(["maxcut", "labs"]))
    if kind == "maxcut":
        sizes = {"--nodes": st.integers(-1, 10), "--degree": _SIZES,
                 "--edges": st.none() | st.integers(-1, 50), "--seed": st.integers(0, 3),
                 "--layers": _SIZES}
    else:
        sizes = {"--n": st.integers(-1, 8), "--layers": _SIZES}
    argv = ["gen", kind]
    for flag, values in sizes.items():
        value = draw(values)
        if value is not None:
            argv.append(f"{flag}={value}")
    for flag in ("--gamma", "--beta"):
        argv += [f"{flag}={a!r}" for a in draw(_ANGLES)]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_gen_argv())
def test_gen_argv_exits_0_or_2(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "x.json"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(*argv, "--out", out)
        assert code in (0, 2), argv
        if code == 2:
            assert _one_error_line_in(err.getvalue()) and not out.exists(), argv
        else:
            assert load_terms(out).terms, argv


@pytest.fixture(scope="module")
def small_pipelines(tmp_path_factory):
    """For each mode, an input on at most 6 qubits and the report
    ``optimize`` writes for it."""
    d = tmp_path_factory.mktemp("small")
    inputs = {
        "probabilities": {"num_qubits": 4, "terms": [
            {"pauli": "ZZII", "coeff": 0.3}, {"pauli": "IZZI", "coeff": 0.3}, {"pauli": "IIZZ", "coeff": 0.3},
            {"pauli": "ZIIZ", "coeff": 0.3}, {"pauli": "XIII", "coeff": 0.7}, {"pauli": "IXII", "coeff": 0.7},
            {"pauli": "IIXI", "coeff": 0.7}, {"pauli": "IIIX", "coeff": 0.7}]},
        "observables": {"num_qubits": 4, "terms": [
            {"pauli": "ZZZZ", "coeff": 0.31}, {"pauli": "YYXX", "coeff": -0.7},
            {"pauli": "XIZY", "coeff": 0.2}, {"pauli": "IXYZ", "coeff": -0.45}],
            "observables": ["XXZZ", "ZIIY", "-YXZI"]},
    }
    out = {}
    for mode, payload in inputs.items():
        inp = write_json(d / f"{mode}.json", payload)
        assert run("optimize", inp, "--out", d / f"{mode}.qasm", "--clifford", d / f"{mode}.c.qasm",
                   "--report", d / f"{mode}.report.json") == 0
        out[mode] = (inp, json.loads((d / f"{mode}.report.json").read_text()))
    return out


def _dense_equivalent(inp, report, opt_text, cliff_text) -> bool:
    """The dense oracle's verdict: the optimized circuit then the Clifford
    is the input's unitary, and the Clifford is absorbed as the report
    says (observables rewritten to E†OE, or the H layer then the network)."""
    prob = load_terms(inp)
    opt, cliff = parse_qasm(opt_text), parse_qasm(cliff_text)
    n = prob.n
    if not equivalent_up_to_phase(circuit_unitary(Circuit(n, opt.gates + cliff.gates)),
                                  circuit_unitary(native_circuit(prob.terms)), 1e-6):
        return False
    e = circuit_unitary(cliff)
    if report["mode"] == "probabilities":
        a = report["absorption"]
        absorbed = tuple(h(q) for q in a["h_mask"]) + tuple(cx(c, t) for c, t in a["network"])
        return equivalent_up_to_phase(e, circuit_unitary(Circuit(n, absorbed)), 1e-6)
    return all(
        np.allclose(e.conj().T @ dense_pauli(parse_pauli(r["original"])) @ e,
                    dense_pauli(parse_pauli(r["transformed"])), atol=1e-6)
        for r in report["observables"]
    )


def _edit_qasm(data, lines, n):
    """One random edit of the QASM ``lines``: drop, duplicate or swap
    lines, move one qubit reference, or change one rz angle."""
    pick = st.integers(0, len(lines) - 1)
    kind = data.draw(st.sampled_from(["drop", "duplicate", "swap", "qubit", "angle"]))
    k = data.draw(pick)
    if kind == "drop":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    elif kind == "swap":
        j = data.draw(pick)
        lines[k], lines[j] = lines[j], lines[k]
    elif kind == "qubit":
        refs = list(re.finditer(r"q\[(\d+)\]", lines[k]))
        if refs:
            m = data.draw(st.sampled_from(refs))
            q = data.draw(st.integers(0, n))
            lines[k] = f"{lines[k][:m.start()]}q[{q}]{lines[k][m.end():]}"
    else:
        rzs = [i for i, line in enumerate(lines) if line.startswith("rz(")]
        if rzs:
            i = data.draw(st.sampled_from(rzs))
            lines[i] = _with_angle(lines[i], data.draw(st.floats(-4.0, 4.0)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verify_is_sound_under_qasm_edits(small_pipelines, data):
    mode = data.draw(st.sampled_from(sorted(small_pipelines)))
    inp, report = small_pipelines[mode]
    key = data.draw(st.sampled_from(["optimized", "clifford"]))
    texts = {k: Path(report["artifacts"][k]).read_text() for k in ("optimized", "clifford")}
    lines = texts[key].splitlines()
    _edit_qasm(data, lines, report["num_qubits"])
    texts[key] = "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        edited = Path(tmp) / "edited.qasm"
        edited.write_text(texts[key])
        report_path = write_json(Path(tmp) / "report.json", {
            **report, "artifacts": {**report["artifacts"], key: str(edited)}})
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run("verify", inp, "--report", report_path)
    assert code in (0, 1, 2)
    if code == 2:
        assert _one_error_line_in(err.getvalue())
    if code == 0:
        assert _dense_equivalent(inp, report, texts["optimized"], texts["clifford"])


@st.composite
def _problems(draw):
    """A random input on 1 to 12 qubits, in observables mode (with random
    observables) or in probabilities mode."""
    n = draw(st.integers(1, 12))
    word = st.text("IXYZ", min_size=n, max_size=n)
    term = st.builds(lambda w, c: {"pauli": w, "coeff": c}, word, st.floats(-3.0, 3.0))
    payload = {"num_qubits": n, "terms": draw(st.lists(term, min_size=1, max_size=12))}
    if draw(st.booleans()):
        signed = st.builds(str.__add__, st.sampled_from(["", "-"]), word)
        payload["observables"] = draw(st.lists(signed, min_size=1, max_size=3))
    return payload


@settings(max_examples=100, deadline=None)
@given(payload=_problems())
def test_optimize_output_always_verifies(payload):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        inp = write_json(d / "input.json", payload)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run(*_opt_args(d, inp))
            # probabilities mode refuses Cliffords with no H-layer-then-network form
            assert code == 0 or (code == 2 and "observables" not in payload)
            if code == 0:
                assert run("verify", inp, "--report", d / "report.json") == 0
