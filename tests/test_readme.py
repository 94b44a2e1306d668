import re
from pathlib import Path

import cliffex

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
