"""Smoke runs of the experiment scripts on small grids."""
import importlib.util
from pathlib import Path

import pytest

from circbound.cli import FIGURE_PRESETS
from conftest import parse_rows

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, lines", [
    # header plus the -20, -5 and +10 dB rows
    ("map_vs_bounds", ["--trials", "50", "--step", "15"], 4),
    # blank line, K/kappa line, header, the -12, -6 and 0 dB rows, peak, sign change
    ("bound_gap_scan", ["--k", "20", "--step", "6"], 8),
])
def test_script_runs(name, argv, lines, capsys):
    assert _load(name).run(argv) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == lines
    assert "nan" not in out


def test_reproduce_figures_writes_every_preset(tmp_path):
    assert _load("reproduce_figures").run(["--trials", "20", "--outdir", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == [f"figure_{fig:02d}.csv" for fig in sorted(FIGURE_PRESETS)]
    assert len(written) == 6
    for path in tmp_path.iterdir():
        assert "nan" not in path.read_text()
    # figure 6 runs its preset axis to the top, +10 dB, at every K and s
    fig6 = parse_rows((tmp_path / "figure_06.csv").read_text())
    assert max(r["snr_db"] for r in fig6) == 10.0
    assert len(fig6) == 31 * 3 * 2
