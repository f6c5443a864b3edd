"""The README's "Public API" list is the package's export list, its CLI
examples name exactly the registered subcommands, and its "Thresholds" table
is the ``tolerances`` module, the only home of threshold literals."""

import argparse
import re
import tokenize
import types
from pathlib import Path

import triqent
from triqent import cli, tolerances

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_api() -> list:
    """(module, names) per bullet of the README's "Public API" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    entries = []
    for bullet in section.split("\n- ")[1:]:
        module, *names = re.findall(r"`(\w+)`", bullet)
        entries.append((module, names))
    return entries


def test_readme_lists_every_export_once():
    exported = {
        name
        for name, value in vars(triqent).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    listed = [name for _, names in readme_api() for name in names]
    assert len(listed) == len(set(listed))
    assert set(listed) == exported


def test_each_export_is_listed_under_its_module():
    for module, names in readme_api():
        for name in names:
            assert getattr(triqent, name).__module__ == f"triqent.{module}", name


def test_readme_cli_examples_name_every_subcommand():
    text = README.read_text(encoding="utf-8")
    named = set(re.findall(r"^triqent ([\w-]+)", text, flags=re.MULTILINE))
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert named == set(subparsers.choices)


def test_thresholds_live_in_the_table():
    """No exponent-form number token (``1e-12``, ``2e-2``, ``1e10``) in the
    package outside ``tolerances.py``; comments and docstrings are free."""
    found = []
    for path in sorted((ROOT / "src" / "triqent").glob("*.py")):
        if path.name == "tolerances.py":
            continue
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NUMBER and re.fullmatch(r"[\d_.]+[eE][+-]?\d+[jJ]?", tok.string):
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert found == []


def test_readme_thresholds_table_is_the_module():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Thresholds\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", section, flags=re.MULTILINE)
    constants = {
        name: value
        for name, value in vars(tolerances).items()
        if not name.startswith("__") and name.lstrip("_").isupper()
    }
    assert [name for name, _ in rows] == list(constants)
    assert all(isinstance(value, (int, float)) for value in constants.values())
    assert [float(value) for _, value in rows] == list(constants.values())
