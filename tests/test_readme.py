import ast
import importlib
import re
import shlex
from pathlib import Path

import cliffex
import cliffex.errors
from cliffex.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _export_cells() -> list[str]:
    """The Names cells of README's "Everything `cliffex` exports" table."""
    after = README.read_text(encoding="utf-8").split("Everything `cliffex` exports", 1)[1]
    rows = []
    for line in after.splitlines()[1:]:
        if line.startswith("|"):
            rows.append(line)
        elif rows:
            break
    return [row.split("|")[2] for row in rows[2:]]  # skip the header and the rule


def test_readme_export_table_is_cliffex_all():
    names, methods = [], []
    for cell in _export_cells():
        listed = re.search(r"`PauliString` \(([^)]*)\)", cell)
        if listed:
            methods += re.findall(r"`([^`]+)`", listed.group(1))
            cell = cell.replace(listed.group(0), "`PauliString`")
        names += re.findall(r"`([^`]+)`", cell)
    assert sorted(names) == sorted(cliffex.__all__)
    assert methods
    for name in methods:
        assert callable(getattr(cliffex.PauliString, name, None)), name


def test_readme_errors_table_is_cliffex_errors():
    block = README.read_text(encoding="utf-8").split("### Errors", 1)[1]
    table = next(part for part in block.split("\n\n") if part.startswith("| Type |"))
    rows = table.splitlines()[2:]  # skip the header and the rule
    types = [re.search(r"`([^`]+)`", row.split("|")[1]).group(1) for row in rows]
    defined = [name for name, v in vars(cliffex.errors).items() if isinstance(v, type)]
    assert sorted(types) == sorted(defined + ["ValueError"])


def test_readme_python_example_runs(capsys):
    block = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    # the CNOT count, then the signed string to measure instead of XXZZ
    assert capsys.readouterr().out.splitlines() == ["4", "-ZIZX"]


def test_readme_gen_examples_run(tmp_path, monkeypatch):
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    commands = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in commands.splitlines() if line.startswith("cliffex gen ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


# tracer targets whose code is gone, each reading 0 until the bench drops
# or retargets it
_DEAD_TARGETS = {
    ("cliffex.extract", "convert_commute_sets"),
    ("cliffex.tableau", "ConjugationTableau.conj_raw"),
    ("cliffex.tableau", "ConjugationTableau.append_gate"),
    ("cliffex.oracle", "circuit_unitary"),
    ("cliffex.oracle", "statevector"),
}


def test_tracer_targets_exist():
    # the bench's tracer times the (module, attribute) pairs in its
    # TARGETS, read here without importing it: a rename in src/ would
    # leave that layer's metric at 0 without failing anything else
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    targets = [(entry.elts[0].value, entry.elts[1].value) for entry in value.elts]
    assert ("cliffex.circuit", "peephole") in targets
    missing = set()
    for modname, attr in targets:
        try:
            owner = importlib.import_module(modname)
            for part in attr.split("."):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            missing.add((modname, attr))
    assert missing <= _DEAD_TARGETS, sorted(missing - _DEAD_TARGETS)
