import re
import shlex
from pathlib import Path

import cliffex
import cliffex.errors
from cliffex.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


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
