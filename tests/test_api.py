"""The README's "Public API" list is the package's export list, and its CLI
examples name exactly the registered subcommands."""

import argparse
import re
import types
from pathlib import Path

import triqent
from triqent import cli

README = Path(__file__).resolve().parents[1] / "README.md"


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
