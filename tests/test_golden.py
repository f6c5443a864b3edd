"""`triqent analyze` reports on pinned seeded ensembles against a stored golden file.

Labels, omega cases and flags must match exactly, every number within
GOLDEN_TOL.  Regenerate the file (only when the analyze output is meant to
change) with:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from triqent.cli import main

ENSEMBLES = ("haar", "real", "class2", "class3", "class4")
COUNT, SEED = 10, 7
GOLDEN = Path(__file__).parent / "data" / "analyze_golden.json"
GOLDEN_TOL = 1e-12


def analyze_reports(ensemble: str, tmp_dir) -> list:
    """What `triqent random <ensemble> --count 10 --seed 7 | triqent analyze` prints."""
    path = Path(tmp_dir) / f"{ensemble}.json"
    assert main(["random", ensemble, "--count", str(COUNT), "--seed", str(SEED),
                 "--out", str(path)]) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", str(path)]) == 0
    return json.loads(out.getvalue())


def assert_matches(golden, got, where="$"):
    if isinstance(golden, dict):
        assert sorted(got) == sorted(golden), where
        for key, value in golden.items():
            assert_matches(value, got[key], f"{where}.{key}")
    elif isinstance(golden, list):
        assert len(got) == len(golden), where
        for idx, (g, x) in enumerate(zip(golden, got)):
            assert_matches(g, x, f"{where}[{idx}]")
    elif isinstance(golden, float):
        assert isinstance(got, float) and abs(got - golden) <= GOLDEN_TOL, (
            f"{where}: {got!r} vs {golden!r}"
        )
    else:
        # Labels, omega cases, ids, flags and E6: exact, type included.
        assert type(got) is type(golden) and got == golden, f"{where}: {got!r} vs {golden!r}"


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_analyze_matches_golden(ensemble, tmp_path):
    golden = json.loads(GOLDEN.read_text())[ensemble]
    assert_matches(golden, analyze_reports(ensemble, tmp_path), ensemble)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = {ens: analyze_reports(ens, tmp) for ens in ENSEMBLES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
