"""The README's library example runs, and it names every export and only real routes."""

import fnmatch
import re
from pathlib import Path

import qscatter

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _section(heading: str) -> str:
    # The text under a markdown heading, up to the next heading of any level.
    start = README.index(f"\n{heading}\n") + len(heading) + 2
    return README[start:].split("\n#", 1)[0]


def test_library_example_runs(capsys):
    block = re.search(r"```python\n(.*?)```", _section("## Library example"), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert "elementary gates" in capsys.readouterr().out


def test_budget_table_names_resolve_on_the_package():
    # Column one lists library routes, then CLI routes after a semicolon; a
    # glob such as synth_* must match at least one name.
    rows = [row for row in _section("### Qubit budget").splitlines() if row.startswith("| `")]
    names = re.findall(r"`([^`]+)`", " ".join(row.split("|")[1].split(";")[0] for row in rows))
    assert "phase_point_operator" in names and "synth_*" in names
    assert [name for name in names if not fnmatch.filter(dir(qscatter), name)] == []


def test_every_exported_name_is_documented():
    # A name counts when the README writes it out or names it by a glob, such
    # as the budget table's synth_*.
    globs = [span for span in re.findall(r"`([\w*]+)`", README) if "*" in span]
    missing = [
        name for name in qscatter.__all__
        if not re.search(rf"\b{name}\b", README)
        and not any(fnmatch.fnmatch(name, glob) for glob in globs)
    ]
    assert missing == []
