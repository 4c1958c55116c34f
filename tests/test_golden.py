"""Golden reports: the CLI's human and machine output on the fixtures, byte for byte.

The reports print no floating-point text, so they are the same on every
platform.  To rewrite the files after an intended change of output, run
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import io
from pathlib import Path

import pytest

from subentity_lab.cli import run_cli

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def _named(suffix):
    return sorted(p.name for p in FIXTURES.glob("*" + suffix))


CASES = (
    [("check-axioms", f) for f in _named(".lattice") + _named(".sps")]
    + [("sps-check", f) for f in _named(".sps")]
    + [("subentity-search", part, "whole_bell.sps")
       for part in ("part_density.sps", "part_pure.sps")]
    + [("subentity-quantum", "bell_completed.model")]
    + [("lecce-build", f) for f in _named(".labworld")]
)
FORMATS = ("human", "machine")


def _golden_path(case, fmt):
    return GOLDEN / ("__".join(case) + "." + fmt)


def _render(case, fmt):
    command, *files = case
    out = io.StringIO()
    run_cli([command, *(str(FIXTURES / f) for f in files), "--format", fmt],
            stdout=out, stderr=io.StringIO())
    return out.getvalue()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CASES, ids="__".join)
def test_report_matches_golden(case, fmt):
    assert _render(case, fmt) == _golden_path(case, fmt).read_text()


def test_every_golden_file_has_a_case():
    expected = {_golden_path(case, fmt).name for case in CASES for fmt in FORMATS}
    assert {p.name for p in GOLDEN.iterdir()} == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        for fmt in FORMATS:
            _golden_path(case, fmt).write_text(_render(case, fmt))
