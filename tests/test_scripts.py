"""Smoke runs of the experiment scripts on small grids, and checks that they
format rows of the one sweep loop."""
import ast
import importlib.util
import math
from pathlib import Path

import pytest

from circbound.cli import FIGURE_PRESETS, main
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


GOLDEN = Path(__file__).resolve().parent / "golden"
# relative tolerances of value_rad2 and the float extras per kind. The bounds'
# only BLAS call is the 8-weight dot product of each quadrature panel; the MAP
# grid search is a BLAS matrix product per block of trials, whose rounding can
# differ between BLAS builds, and MAP refinement forms e^{-j theta k} as K
# running products, so its rows carry about K roundings
GOLDEN_RTOL = {"WWB": 1e-12, "BCRB": 1e-12, "ZZB": 1e-12, "MAP": 1e-9}


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    """The figure tables as `reproduce_figures.py --trials 200` writes them,
    the command that wrote tests/golden."""
    outdir = tmp_path_factory.mktemp("figures")
    assert _load("reproduce_figures").run(["--outdir", str(outdir), "--trials", "200"]) == 0
    return outdir


def _keyed(rows) -> dict:
    keyed = {(r["kind"], r["k"], r["kappa"], r["mu_rad"], r["snr_db"], r["trio"], r["s"]): r
             for r in rows}
    assert len(keyed) == len(rows), "duplicate rows"
    return keyed


def _assert_rows_match(rows, golden):
    """The same row set, each row's value and float extras within its kind's
    tolerance and every other field, such as dropped_points and s_failed, identical."""
    got, want = _keyed(rows), _keyed(golden)
    assert sorted(got) == sorted(want)
    for key, row in got.items():
        ref, rtol = want[key], GOLDEN_RTOL[row["kind"]]
        assert row["value_rad2"] == pytest.approx(ref["value_rad2"], rel=rtol, abs=0.0), key
        assert row["value_db"] == pytest.approx(ref["value_db"], rel=rtol, abs=5.0 * rtol), key
        assert sorted(row["extra"]) == sorted(ref["extra"]), key
        for name, value in row["extra"].items():
            if isinstance(value, float):
                assert value == pytest.approx(ref["extra"][name], rel=rtol, abs=0.0), (key, name)
            else:
                assert value == ref["extra"][name], (key, name)


@pytest.mark.parametrize("fig", sorted(FIGURE_PRESETS))
def test_reproduce_figures_matches_golden_rows(fig, reproduced):
    name = f"figure_{fig:02d}.csv"
    _assert_rows_match(parse_rows((reproduced / name).read_text()),
                      parse_rows((GOLDEN / name).read_text()))


def _table(name, argv, capsys) -> list[list[str]]:
    """The whitespace-split body rows of a script's one-table output."""
    assert _load(name).run(argv) == 0
    return [line.split() for line in capsys.readouterr().out.splitlines()[1:]]


def test_map_column_on_the_bounds_rmse_scale(capsys):
    # at +10 dB the MAP estimator is efficient: its RMSE meets the BCRB
    ((snr, map_db, _, _, _, bcrb_db, _),) = _table(
        "map_vs_bounds", ["--snr-min", "10", "--snr-max", "10", "--trials", "2000"], capsys)
    assert snr == "10.0"
    assert abs(float(map_db) - float(bcrb_db)) < 0.3


def test_map_column_matches_map_sim_rows(tmp_path, capsys):
    common = ["--k", "24", "--kappa", "2", "--trials", "60", "--seed", "5"]
    table = _table("map_vs_bounds", common + ["--snr-min", "-20", "--step", "15"], capsys)
    out = tmp_path / "map.csv"
    assert main(["map-sim", "--snr-db=-20,-5,10", *common, "--out", str(out)]) == 0
    rows = parse_rows(out.read_text())
    assert len(table) == len(rows) == 3
    for (snr, map_db, se_db, *_, outliers), row in zip(table, rows):
        mse, se = row["value_rad2"], row["extra"]["mse_se"]
        assert float(snr) == row["snr_db"]
        assert map_db == f"{5.0 * math.log10(mse):.3f}"
        assert se_db == f"{5.0 * (math.log10(mse + se) - math.log10(mse)):.3f}"
        assert outliers == f"{row['extra']['outlier_fraction']:.4f}"


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_scripts_import_only_the_cli(path):
    # a script that imports a library module directly has its own sweep loop
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "circbound":
            imported.update(f"circbound.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert {m for m in imported if m.split(".")[0] == "circbound"} == {"circbound.cli"}
