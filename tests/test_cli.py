"""Command-line surface: sweeps, presets, serialization, exit codes."""
import json
import math
import warnings

import numpy as np
import pytest

from circbound import mapsim, testpoints, wwb
from circbound.cli import (
    SpecError,
    SweepSpec,
    _build_parser,
    _make_spec,
    _snr_axis,
    emit,
    main,
    run_sweep,
)
from circbound.prior import VonMisesPrior
from circbound.signal_model import SignalConfig
from circbound.testpoints import TestPointConfig
from conftest import parse_rows


def _small_spec(**overrides):
    base = dict(
        snr_db=[-5.0, 0.0],
        k_values=[20],
        kappa_values=[1.0],
        mu_values=[0.0],
        bound_kinds=["BCRB", "ZZB"],
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSweepValidation:
    def test_empty_kappa_list(self):
        with pytest.raises(SpecError) as exc:
            _small_spec(kappa_values=[]).validate()
        assert exc.value.fieldname == "kappa_values"

    def test_snr_out_of_range(self):
        with pytest.raises(SpecError):
            _small_spec(snr_db=[-50.0]).validate()

    def test_unknown_bound_kind(self):
        with pytest.raises(SpecError):
            _small_spec(bound_kinds=["CRB"]).validate()

    def test_bad_exponent_grid(self):
        with pytest.raises(SpecError):
            _small_spec(s_grid=[1.5]).validate()

    @pytest.mark.parametrize("field, overrides", [
        ("snr_db", dict(snr_db=[0.0, -5.0, 0.0])),
        ("snr_db", dict(snr_db=[0.0, -0.0])),
        ("k_values", dict(k_values=[20, 20])),
        ("kappa_values", dict(kappa_values=[1.0, 1.0])),
        ("mu_values", dict(mu_values=[0.5, 0.5])),
        ("bound_kinds", dict(bound_kinds=["ZZB", "BCRB", "ZZB"])),
        ("testpoint_trio", dict(trios=[(2, 9, 10), (2, 9, 10)])),
        ("s_grid", dict(s_grid=[0.5, 0.3, 0.5])),
    ])
    def test_repeated_axis_value_names_field(self, field, overrides):
        with pytest.raises(SpecError) as exc:
            _small_spec(**overrides).validate()
        assert exc.value.fieldname == field and "repeated" in str(exc.value)

    @pytest.mark.parametrize("argv, field", [
        (["sweep", "--s", "0.5,0.5", "--snr-db", "0"], "s_grid"),
        (["sweep", "--kappa", "1,1", "--snr-db", "-3"], "kappa_values"),
        (["bcrb", "--snr-db", "0,0"], "snr_db"),
    ])
    def test_repeated_flag_value_exits_2(self, argv, field, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: invalid {field}: value ")

    @pytest.mark.parametrize("field, overrides", [
        ("k_values", dict(k_values=[20.5])),
        ("k_values", dict(k_values=[20.0], bound_kinds=["MAP"])),
        ("seed", dict(seed=1.5)),
        ("trials", dict(trials=10.0, bound_kinds=["WWB", "MAP"])),
    ])
    def test_integer_fields_checked_before_any_work(self, field, overrides, monkeypatch):
        # a float K would be computed at K = 20.5 and labelled k = 20
        def no_work(*args, **kwargs):
            raise AssertionError("a bound was computed before the spec was checked")
        monkeypatch.setattr("circbound.wwb.wwb_axis", no_work)
        monkeypatch.setattr("circbound.mapsim.run_monte_carlo", no_work)
        with pytest.raises(SpecError) as exc:
            run_sweep(_small_spec(**overrides))
        assert exc.value.fieldname == field and "expected an integer" in str(exc.value)

    def test_numpy_integer_fields_accepted(self):
        spec = _small_spec(k_values=[np.int64(20)], seed=np.uint32(3), trials=np.int32(20),
                           bound_kinds=["BCRB", "MAP"])
        rows = run_sweep(spec)
        assert all(r["k"] == 20 for r in rows)
        assert type(rows[-1]["extra"]["trials"]) is int and rows[-1]["extra"]["trials"] == 20


class TestRunSweep:
    def test_row_count_and_sorting(self):
        rows = run_sweep(_small_spec())
        assert len(rows) == 4  # 2 kinds x 2 SNRs
        keys = [(r["kind"], r["snr_db"]) for r in rows]
        assert keys == sorted(keys)

    def test_db_column_consistent(self):
        for row in run_sweep(_small_spec()):
            assert row["value_db"] == pytest.approx(
                10.0 * math.log10(row["value_rad2"]), abs=1e-12
            )

    def test_wwb_rows_carry_trio_and_exponent(self):
        spec = _small_spec(bound_kinds=["WWB"], trios=[(2, 9, 0)], s_grid=[0.5])
        rows = run_sweep(spec)
        assert all(r["trio"] == "2,9,0" and r["s"] == 0.5 for r in rows)

    def test_map_rows_record_diagnostics(self):
        spec = _small_spec(bound_kinds=["MAP"], snr_db=[0.0], trials=50)
        rows = run_sweep(spec)
        assert rows[0]["extra"]["trials"] == 50
        assert 0.0 <= rows[0]["extra"]["outlier_fraction"] <= 1.0
        assert 0.0 < rows[0]["extra"]["mse_se"] < math.inf

    def test_wwb_rows_own_their_s_grid(self):
        spec = _small_spec(bound_kinds=["WWB"], s_grid=[0.3, 0.5], maximize_s=True)
        grids = [r["extra"]["s_grid"] for r in run_sweep(spec)]
        assert len(grids) == 2 and all(g == [0.3, 0.5] for g in grids)
        assert grids[0] is not grids[1] and all(g is not spec.s_grid for g in grids)

    def test_hz_conversion(self):
        spec = _small_spec(f_int_hz=1000.0)
        for row in run_sweep(spec):
            want = math.sqrt(row["value_rad2"]) * 1000.0 / (2.0 * math.pi)
            assert row["extra"]["rmse_hz"] == pytest.approx(want)


class TestSnrAxis:
    @pytest.mark.parametrize("axis, want", [
        ("0:11:4", [0.0, 4.0, 8.0]),
        ("0:30:4", [0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0]),
    ])
    def test_stops_at_stop(self, axis, want, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["sweep", "--kinds", "BCRB", f"--snr-db={axis}", "--out", str(out)]) == 0
        assert [r["snr_db"] for r in parse_rows(out.read_text())] == want

    # the figure presets' axis and both phases of a 0.5 dB benchmark axis
    @pytest.mark.parametrize("start, stop, step", [
        (-20.0, 10.0, 1.0), (-20.0, 10.0, 0.5), (-19.75, 10.25, 0.5),
    ])
    def test_exact_multiples_keep_every_point(self, start, stop, step):
        n = round((stop - start) / step)
        assert _snr_axis(f"{start!r}:{stop!r}:{step!r}") == [start + i * step for i in range(n + 1)]


class TestEmit:
    def test_csv_round_trip(self, tmp_path):
        rows = run_sweep(_small_spec())
        out = tmp_path / "table.csv"
        emit(rows, "csv", str(out))
        back = parse_rows(out.read_text())
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert a["kind"] == b["kind"]
            assert a["value_rad2"] == b["value_rad2"]  # 17 digits is lossless
            assert a["extra"] == b["extra"]

    def test_single_row_layout(self, tmp_path):
        rows = run_sweep(_small_spec(bound_kinds=["BCRB"], snr_db=[0.0]))
        out = tmp_path / "one.csv"
        emit(rows, "csv", str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "kind,snr_db,k,kappa,mu_rad,s,trio,value_rad2,value_db,extra"

    def test_json_format(self, tmp_path):
        rows = run_sweep(_small_spec())
        out = tmp_path / "table.json"
        emit(rows, "json", str(out))
        back = json.loads(out.read_text())
        assert len(back) == len(rows)
        assert back[0]["kind"] == rows[0]["kind"]

    @pytest.mark.parametrize("fmt", ["xml", "CSV", ""])
    def test_unknown_format_rejected(self, fmt, tmp_path):
        out = tmp_path / "table"
        with pytest.raises(SpecError) as exc:
            emit(run_sweep(_small_spec()), fmt, str(out))
        assert exc.value.fieldname == "output_format" and not out.exists()

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(SpecError):
            emit([], "csv", str(tmp_path / "x.csv"))


class TestMainExitCodes:
    def test_success(self, tmp_path):
        rc = main(["bcrb", "--snr-db", "0", "--out", str(tmp_path / "b.csv")])
        assert rc == 0

    def test_validation_failure(self, capsys):
        rc = main(["zzb", "--snr-db", "-99"])
        assert rc == 2
        assert "snr_db" in capsys.readouterr().err

    def test_preset_with_unstated_parameter_requires_flag(self, capsys):
        rc = main(["sweep", "--figure", "7", "--snr-db", "-4"])
        assert rc == 2
        assert "kappa" in capsys.readouterr().err

    def test_numerical_failure(self, tmp_path, capsys):
        rc = main(["wwb", "--snr-db", "30", "--k", "200",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "numerical" in capsys.readouterr().err

    def test_s_grid_failure_names_grid_point(self, capsys):
        rc = main(["wwb", "--k", "200", "--snr-db=25", "--s", "0.3,0.5"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "snr_db=25.0" in err
        # one line: the failures of the single exponents are part of it
        assert err.count("\n") == 1 and err.startswith("numerical error:")
        assert "s=0.3:" in err and "s=0.5:" in err

    def test_axis_failure_reported_at_first_failing_point(self, capsys):
        # WWB is evaluated over the whole SNR axis first; its failures are
        # still reported in SNR-then-kind order
        rc = main(["sweep", "--kinds", "WWB,ZZB", "--k", "200", "--kappa", "1",
                   "--snr-db=0,18,20"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: numerical failure at kind=WWB K=200 ")
        assert "snr_db=18.0: bound value 0 underflows double precision" in err

    def test_s_grid_failure_follows_snr_order(self, capsys):
        rc = main(["wwb", "--k", "200", "--kappa", "1", "--snr-db=20,18", "--s", "0.3,0.5"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "snr_db=20.0: bound evaluation failed at every s grid point" in err
        assert "s=0.3: bound value 0 underflows double precision" in err
        assert "s=0.5: bound value 0 underflows double precision" in err

    def test_s_grid_partial_failure_recorded_in_row(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        rc = main(["wwb", "--k", "60", "--kappa", "2", "--trio", "2,9,0", "--snr-db=30",
                   "--s", "0.1,0.5", "--out", str(out)])
        assert rc == 0
        (row,) = parse_rows(out.read_text())
        assert row["s"] == 0.5
        ((s_failed, message),) = row["extra"]["s_failed"]
        assert s_failed == 0.1 and "underflows double precision" in message
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("k", ["2", "3"])
    def test_missing_side_lobes_name_trio(self, k, capsys):
        rc = main(["wwb", "--k", k])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid testpoint_trio:") and f"K={k}" in err

    def test_two_samples_without_side_lobes(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = main(["wwb", "--k", "2", "--trio", "2,0,10", "--out", str(out)])
        assert rc == 0
        (row,) = parse_rows(out.read_text())
        assert row["value_rad2"] == 0.5171918780647798

    def test_row_records_dropped_points(self, tmp_path):
        # two samples cannot tell 62 offsets apart: most pivots from point 12 on fail
        out = tmp_path / "w.csv"
        argv = ["wwb", "--k", "2", "--trio", "2,0,60", "--kappa", "20", "--snr-db=-10", "--s", "0.1"]
        assert main(argv + ["--out", str(out)]) == 0
        (row,) = parse_rows(out.read_text())
        dropped = row["extra"]["dropped_points"]
        assert dropped and all(isinstance(i, int) for i in dropped)
        assert all(a < b for a, b in zip(dropped, dropped[1:]))
        points = testpoints.build(TestPointConfig(2, 0, 60), 2)
        ((res,),) = wwb.wwb_axis(VonMisesPrior(kappa=20.0), 2, points, [0.1], [0.1])
        assert dropped == list(res.dropped_points)

    def test_negative_seed_names_field(self, capsys):
        rc = main(["map-sim", "--seed", "-1", "--trials", "5"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: invalid seed:")

    @pytest.mark.parametrize("argv, field", [
        (["map-sim", "--seed", "1.5"], "seed"),
        (["map-sim", "--trials", "x"], "trials"),
        (["map-sim", "--trials", "4e3"], "trials"),
        (["sweep", "--trials", "1.5"], "trials"),
        (["sweep", "--seed", "x"], "seed"),
        (["zzb", "--k", "10,2e1"], "k_values"),
        (["wwb", "--k", "20.5"], "k_values"),
        (["wwb", "--trio", "2,9,x"], "testpoint_trio"),
        (["testpoints", "--k", "ten"], "k"),
    ])
    def test_integer_flags_name_field(self, argv, field, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid {field}: expected an integer")

    @pytest.mark.parametrize("argv, field", [
        (["wwb", "--kappa", "abc"], "kappa_values"),
        (["sweep", "--mu", "0,x"], "mu_values"),
        (["sweep", "--snr-db=0:x:1"], "snr_db"),
        (["bcrb", "--snr-db", "1,2dB"], "snr_db"),
        (["zzb", "--kappa", "1,2,y"], "kappa_values"),
        (["bcrb", "--f-int="], "f_int_hz"),
        (["wwb", "--s", "x"], "s_grid"),
        (["wwb", "--f-int", "abc"], "f_int_hz"),
    ])
    def test_float_flags_name_field(self, argv, field, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid {field}: expected a number")

    @pytest.mark.parametrize("axis", ["0:inf:1", "nan:10:1", "0:10:inf"])
    def test_non_finite_snr_axis_names_field(self, axis, capsys):
        assert main(["sweep", f"--snr-db={axis}"]) == 2
        assert capsys.readouterr().err.startswith("error: invalid snr_db: start, stop and step must be finite")

    @pytest.mark.parametrize("f_int", ["-5", "0", "nan", "inf"])
    def test_f_int_must_be_finite_and_positive(self, f_int, capsys):
        assert main(["wwb", f"--f-int={f_int}"]) == 2
        assert capsys.readouterr().err.startswith("error: invalid f_int_hz: must be finite and > 0")

    @pytest.mark.parametrize("argv, message", [
        (["bcrb", "--k", "0"], "invalid k_values: K must be >= 1"),
        (["bcrb", "--mu", "4"], "invalid mu_values: mu must lie in [-pi, pi]"),
        (["bcrb", "--snr-db=0:10"], "invalid snr_db: expected start:stop:step"),
        (["bcrb", "--snr-db=0:10:0"], "invalid snr_db: step must be > 0"),
        (["wwb", "--trio", "2,9"], "invalid testpoint_trio: expected C,S,E"),
        # 3e13 points, counted before any is built
        (["bcrb", "--snr-db=0:30:1e-12"], "invalid snr_db: an axis holds at most 1000000"),
    ])
    def test_out_of_domain_flag_names_field(self, argv, message, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}")

    @pytest.mark.parametrize("argv", [
        pytest.param(["bcrb", "--kappa=nan"], id="nan"),
        pytest.param(["bcrb", "--kappa=inf"], id="inf"),
        pytest.param(["wwb", "--kappa=-inf"], id="wwb-minus-inf"),
        pytest.param(["sweep", "--kinds", "WWB,ZZB,BCRB,MAP", "--snr-db=0", "--kappa=1,inf"],
                     id="sweep"),
    ])
    def test_non_finite_kappa_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "error: invalid kappa_values: kappa must be finite and >= 0")

    def test_large_kappa_accepted(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["bcrb", "--kappa", "600", "--out", str(out)])
        assert rc == 0
        (row,) = parse_rows(out.read_text())
        assert math.isfinite(row["value_rad2"]) and row["value_rad2"] > 0.0

    def test_wwb_past_former_exponent_limit(self, tmp_path):
        # +20 dB at K=20 and kappa=600 at 0 dB once stopped at an exponent
        # limit; the bound stays below BCRB at +20 dB
        out = tmp_path / "w.csv"
        assert main(["wwb", "--k", "20", "--kappa", "1", "--snr-db=20", "--out", str(out)]) == 0
        (row,) = parse_rows(out.read_text())
        assert 0.0 < row["value_rad2"] < 2.0242896687801695e-06
        assert main(["wwb", "--k", "20", "--kappa", "600", "--snr-db=0", "--out", str(out)]) == 0
        (row,) = parse_rows(out.read_text())
        assert math.isfinite(row["value_db"])

    @pytest.mark.parametrize("argv", [
        ["bcrb", "--k", "1", "--kappa", "0"],
        ["sweep", "--kinds", "BCRB,MAP", "--k", "1,20", "--kappa", "0,1", "--snr-db=0"],
    ])
    def test_bcrb_without_information_names_kappa(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid kappa_values:") and "K=1" in err

    @pytest.mark.parametrize("argv, field", [
        (["sweep", "--kinds", "WWB,MAP", "--seed", "-1", "--snr-db=0"], "seed"),
        (["sweep", "--kinds", "WWB,MAP", "--trials", "0", "--snr-db=0"], "trials"),
        (["sweep", "--kinds", "MAP,WWB", "--trials", "-3", "--snr-db=0"], "trials"),
        (["map-sim", "--seed", "-1", "--trials", "5"], "seed"),
        (["map-sim", "--trials", "-1", "--seed", "5"], "trials"),
        (["map-sim", "--trials", "0"], "trials"),
    ])
    def test_map_values_checked_before_any_work(self, argv, field, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a bound was computed before the spec was checked")
        monkeypatch.setattr("circbound.wwb.wwb_axis", no_work)
        monkeypatch.setattr("circbound.mapsim.run_monte_carlo", no_work)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: invalid {field}: must ")

    def test_every_trio_checked_before_any_work(self, capsys, monkeypatch):
        # K=5 cannot supply 9 side-lobe points; K=20, listed first, must not run
        def no_work(*args, **kwargs):
            raise AssertionError("a bound was computed before every trio was checked")
        monkeypatch.setattr("circbound.wwb.wwb_axis", no_work)
        monkeypatch.setattr("circbound.mapsim.run_monte_carlo", no_work)
        argv = ["sweep", "--kinds", "WWB,MAP", "--k", "20,5", "--trio", "2,9,0", "--snr-db=0"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: invalid testpoint_trio: K=5:")

    @pytest.mark.parametrize("argv", [
        ["bcrb", "--k", "1", "--kappa", "1e-200"],
        ["bcrb", "--k", "1", "--kappa", "1e-160"],
        ["sweep", "--kinds", "BCRB", "--k", "1,20", "--kappa", "1e-160", "--snr-db=0"],
    ])
    def test_bcrb_past_largest_double_names_grid_point(self, argv, capsys):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("numerical error: numerical failure at kind=BCRB K=1 ")
        assert "exceeds the largest double" in err

    def test_zzb_single_sample_names_k(self, capsys):
        assert main(["zzb", "--k", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: invalid k_values:")

    def test_prior_integral_underflow_is_a_quadrature_failure(self, capsys):
        # at kappa=1e300 the prior integrands are narrower than the node spacing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["wwb", "--k", "20", "--kappa", "1e300", "--snr-db=0"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: numerical failure at kind=WWB K=20 ")
        assert "underflows at every quadrature node" in err

    def test_map_sim_point_mass_prior_has_zero_error(self, tmp_path):
        # at kappa=1e300 every truth and every estimate is mu
        out = tmp_path / "map.csv"
        assert main(["map-sim", "--kappa", "1e300", "--trials", "10", "--out", str(out)]) == 0
        (row,) = parse_rows(out.read_text())
        assert row["value_rad2"] == 0.0 and row["value_db"] == -math.inf

    def test_wwb_s_grid_reports_maximizing_exponent(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = main(["wwb", "--snr-db=-8", "--s", "0.3,0.5", "--out", str(out)])
        assert rc == 0
        (row,) = parse_rows(out.read_text())
        each = run_sweep(_small_spec(bound_kinds=["WWB"], snr_db=[-8.0], s_grid=[0.3, 0.5]))
        best = max(each, key=lambda r: r["value_rad2"])
        assert (row["s"], row["value_rad2"]) == (best["s"], best["value_rad2"])
        assert row["extra"]["s_grid"] == [0.3, 0.5]

    def test_testpoints_subcommand(self, tmp_path):
        out = tmp_path / "pts.csv"
        rc = main(["testpoints", "--k", "20", "--config", "2,9,0", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "h_rad,h_over_pi,provenance"
        assert len(lines) == 12  # header + legacy 11 points

    @pytest.mark.parametrize("flags", [
        ["--format", "json"], ["--seed", "-4"], ["--trials", "3"], ["--f-int=-1"],
    ])
    def test_testpoints_rejects_flags_it_does_not_use(self, flags, capsys):
        assert main(["testpoints", *flags]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code", [
        (["wwb", "--bogus"], 2), (["sweep", "--figure", "99"], 2), (["wwb", "--help"], 0),
        (["bcrb", "--format", "xml"], 2), (["map-sim", "--phi", "0.3"], 2),
        (["wwb", "--quad-nodes", "64"], 2), (["map-sim", "--theta", "0.4"], 2),
    ])
    def test_argparse_exit_code_returned(self, argv, code, capsys):
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert (out.startswith("usage: "), "error: " in err) == (code == 0, code == 2)

    @pytest.mark.parametrize("flags, message", [
        (["--k", "-5", "--config", "2,0,1"], "invalid k: K must be >= 1"),
        (["--k", "1"], "invalid testpoint_trio: K=1: no side lobes"),
        (["--config", "3,9,10"], "invalid testpoint_trio: K=20: at most 2 close points"),
    ])
    def test_testpoints_invalid_input_names_field(self, flags, message, capsys):
        # the same checks, and the same wording, as a sweep's WWB test-point sets
        assert main(["testpoints", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}")

    def test_testpoints_unwritable_output(self, tmp_path, capsys):
        rc = main(["testpoints", "--out", str(tmp_path / "missing" / "pts.csv")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: cannot write ")

    @pytest.mark.parametrize("command", ["testpoints", "wwb"])
    def test_unwritable_output_is_not_numerical(self, command, capsys):
        rc = main([command, "--out", "/nonexistent/dir/x.csv"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: cannot write /nonexistent/dir/x.csv: ")

    def test_map_sim_subcommand(self, tmp_path):
        out = tmp_path / "map.csv"
        rc = main(["map-sim", "--snr-db", "0", "--trials", "50",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        rows = parse_rows(out.read_text())
        assert rows[0]["kind"] == "MAP"
        assert rows[0]["extra"]["trials"] == 50

    def test_map_sim_options_reach_monte_carlo(self, tmp_path):
        out = tmp_path / "map.csv"
        rc = main(["map-sim", "--snr-db=-5", "--trials", "40", "--seed", "2",
                   "--linear-error", "--out", str(out)])
        assert rc == 0
        seed = int(np.random.SeedSequence([2, 0]).generate_state(1)[0])
        want = mapsim.run_monte_carlo(
            SignalConfig(K=20, snr=10.0 ** -0.5), VonMisesPrior(mu=0.0, kappa=1.0),
            mapsim.McConfig(trials=40, seed=seed), wrap=False,
        )
        (row,) = parse_rows(out.read_text())
        assert row["value_rad2"] == want.mse
        assert row["extra"] == {"trials": 40, "outlier_fraction": want.outlier_fraction,
                                "mse_se": want.mse_se}

    def test_single_trial_standard_error_is_infinite(self, tmp_path):
        out = tmp_path / "map.csv"
        assert main(["map-sim", "--trials", "1", "--out", str(out)]) == 0
        assert '""mse_se"": Infinity' in out.read_text()
        (row,) = parse_rows(out.read_text())
        assert row["extra"]["mse_se"] == math.inf


class TestDeterminism:
    def test_identical_sweeps_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--kinds", "WWB,ZZB,MAP", "--snr-db=-10,0",
                "--kappa", "1", "--mu", "0", "--k", "20",
                "--trials", "100", "--seed", "11"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_map_row_independent_of_command_and_other_kinds(self, tmp_path):
        common = ["--snr-db=-5,0", "--trials", "50", "--seed", "3"]
        runs = {
            "sweep_map": ["sweep", "--kinds", "MAP"],
            "sweep_zzb_map": ["sweep", "--kinds", "ZZB,MAP"],
            "map_sim": ["map-sim"],
        }
        map_rows = {}
        for name, argv in runs.items():
            out = tmp_path / f"{name}.csv"
            assert main(argv + common + ["--out", str(out)]) == 0
            map_rows[name] = [r for r in parse_rows(out.read_text()) if r["kind"] == "MAP"]
        assert len(map_rows["map_sim"]) == 2
        assert map_rows["sweep_map"] == map_rows["sweep_zzb_map"] == map_rows["map_sim"]

    def test_seed_changes_monte_carlo_rows(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["map-sim", "--snr-db", "-10", "--trials", "100"]
        assert main(argv + ["--seed", "1", "--out", str(a)]) == 0
        assert main(argv + ["--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()


class TestOneKindCommands:
    """wwb, bcrb, zzb and map-sim are sweeps of their one kind at 0 dB."""

    @pytest.mark.parametrize("command, kind, flags", [
        ("wwb", "WWB", ["--k", "24", "--kappa", "2", "--trio", "2,9,0", "--s", "0.3"]),
        ("bcrb", "BCRB", ["--k", "10,20", "--kappa", "0.5", "--mu", "1", "--f-int", "1000"]),
        ("zzb", "ZZB", ["--kappa", "0,3", "--format", "json"]),
        ("map-sim", "MAP", ["--trials", "40", "--seed", "2", "--linear-error"]),
    ])
    def test_equals_one_kind_sweep_at_0_db(self, command, kind, flags, capsys):
        assert main([command, *flags]) == 0
        one_kind = capsys.readouterr()
        assert one_kind.out and not one_kind.err
        assert main(["sweep", "--kinds", kind, "--snr-db=0", *flags]) == 0
        assert capsys.readouterr() == one_kind

    def test_sweep_default_axis_kept(self, tmp_path):
        # the one-kind commands' 0 dB default must not leak into sweep
        assert _make_spec(_build_parser().parse_args(["wwb"])).snr_db == [0.0]
        out = tmp_path / "f6.csv"
        assert main(["sweep", "--figure", "6", "--out", str(out)]) == 0
        rows = parse_rows(out.read_text())
        assert sorted({r["snr_db"] for r in rows}) == [float(v) for v in range(-20, 11)]
        assert len(rows) == 31 * 3 * 2

    def test_only_wwb_maximizes_over_s(self):
        argv = ["--s", "0.3,0.5"]
        parser = _build_parser()
        assert _make_spec(parser.parse_args(["wwb", *argv])).maximize_s
        assert not _make_spec(parser.parse_args(["sweep", *argv])).maximize_s


class TestConfigFile:
    """`@file` reads flags from a file, split at white space, `#` to the end
    of a line a comment; flags after the file win over it."""

    def test_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.txt"
        cfg.write_text("# a comment line\n\n--snr-db=-5\n--kappa 2  # concentrated\n")
        out = tmp_path / "out.csv"
        rc = main(["bcrb", f"@{cfg}", "--out", str(out)])
        assert rc == 0
        rows = parse_rows(out.read_text())
        assert rows[0]["snr_db"] == -5.0
        assert rows[0]["kappa"] == 2.0

    def test_explicit_flag_wins(self, tmp_path):
        cfg = tmp_path / "run.txt"
        cfg.write_text("--kappa 2\n")
        out = tmp_path / "out.csv"
        assert main(["bcrb", f"@{cfg}", "--kappa", "5", "--out", str(out)]) == 0
        assert parse_rows(out.read_text())[0]["kappa"] == 5.0
        # a flag before the file loses to it
        assert main(["bcrb", "--kappa", "5", f"@{cfg}", "--out", str(out)]) == 0
        assert parse_rows(out.read_text())[0]["kappa"] == 2.0

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.txt"
        cfg.write_text("kappa 2\n")  # no dashes: not a flag
        assert main(["bcrb", f"@{cfg}"]) == 2
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: kappa 2\n")
        cfg.write_text("--f-int=\n")  # an empty value is not a number
        assert main(["bcrb", f"@{cfg}"]) == 2
        assert capsys.readouterr().err.endswith("invalid f_int_hz: expected a number, got ''\n")

    def test_short_flag_wins(self, tmp_path):
        cfg = tmp_path / "run.txt"
        cfg.write_text(f"--out {tmp_path / 'from_file.csv'}\n")
        out = tmp_path / "from_flag.csv"
        assert main(["bcrb", f"@{cfg}", "-o", str(out)]) == 0
        assert out.exists() and not (tmp_path / "from_file.csv").exists()

    def test_abbreviated_flag_wins(self, tmp_path):
        cfg = tmp_path / "run.txt"
        cfg.write_text("--kappa 2\n")
        out = tmp_path / "out.csv"
        assert main(["bcrb", f"@{cfg}", "--kap", "5", "--out", str(out)]) == 0
        assert parse_rows(out.read_text())[0]["kappa"] == 5.0

    @pytest.mark.parametrize("command, line, key", [
        ("bcrb", "kapa = 5", "kapa"),
        ("bcrb", "figure = 6", "figure"),  # a flag of sweep only
        ("testpoints", "kappa = 1", "kappa"),
        ("wwb", "command = sweep", "command"),
        ("wwb", "config-file = other.cfg", "config-file"),
        ("wwb", "quad_nodes = 64", "quad_nodes"),
        ("map-sim", "theta = 0.4", "theta"),
    ])
    def test_unknown_key_rejected(self, command, line, key, tmp_path, capsys):
        # a key that is no flag of the command is refused, whether in the
        # key = value lines that --config-file once read or as a flag
        value = line.split("=")[1].strip()
        cfg = tmp_path / "run.txt"
        for text in (line, f"--{key} {value}"):
            cfg.write_text(text + "\n")
            assert main([command, f"@{cfg}"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.endswith(f"error: unrecognized arguments: {text}\n")

    def test_switch_in_file_acts_as_flag(self, tmp_path, capsys):
        argv = ["map-sim", "--trials", "40", "--seed", "2", "--snr-db=-5"]
        (tmp_path / "switch.txt").write_text("--linear-error\n")
        runs = {}
        for name, extra in [("default", []), ("flag", ["--linear-error"]),
                            ("file", [f"@{tmp_path / 'switch.txt'}"])]:
            assert main(argv + extra) == 0
            runs[name] = capsys.readouterr().out
        assert runs["default"] != runs["flag"] == runs["file"]

    @pytest.mark.parametrize("value", ["yes", "False", "1", ""])
    def test_switch_key_other_value_rejected(self, value, tmp_path, capsys):
        # a switch takes no value, so `linear_error = true` has no misread form
        cfg = tmp_path / "run.txt"
        cfg.write_text(f"--linear-error={value}\n")
        assert main(["map-sim", f"@{cfg}"]) == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --linear-error: ignored explicit argument {value!r}\n")

    @pytest.mark.parametrize("name", ["missing", "directory", "binary", "empty"])
    def test_unreadable_file_rejected(self, name, tmp_path, capsys):
        path = tmp_path / name
        if name == "directory":
            path.mkdir()
        elif name == "binary":
            path.write_bytes(b"\xff\xfe --kappa 2\n")
        arg = "@" if name == "empty" else f"@{path}"
        assert main(["bcrb", arg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(("usage: ", "error: "))

    def test_at_sign_inside_a_value_is_literal(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bcrb", "--out=@x.csv"]) == 0
        assert parse_rows((tmp_path / "@x.csv").read_text())[0]["kind"] == "BCRB"

    @pytest.mark.parametrize("argv", [
        ["bcrb", "--config-file", "run.txt"],
        ["bcrb", "--config-file="],
        ["map-sim", "--no-refine"],
        ["map-sim", "--grid-size", "8192"],
    ])
    def test_removed_flags_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert "error: unrecognized arguments: " in capsys.readouterr().err


class TestFigurePresets:
    def test_figure_13_axes(self, tmp_path):
        out = tmp_path / "f13.csv"
        rc = main(["sweep", "--figure", "13", "--snr-db", "0,5",
                   "--trials", "30", "--seed", "1", "--out", str(out)])
        assert rc == 0
        rows = parse_rows(out.read_text())
        kinds = {r["kind"] for r in rows}
        assert kinds == {"WWB", "ZZB", "MAP"}
        assert all(r["kappa"] == 1.0 and r["mu_rad"] == 0.0 for r in rows)

    def test_figure_6_varies_k_and_exponent(self, tmp_path):
        out = tmp_path / "f6.csv"
        rc = main(["sweep", "--figure", "6", "--snr-db", "0", "--out", str(out)])
        assert rc == 0
        rows = parse_rows(out.read_text())
        assert {r["k"] for r in rows} == {20, 40, 60}
        assert {r["s"] for r in rows} == {0.1, 0.5}
