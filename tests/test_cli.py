import json
import math
import resource
import subprocess
import sys

import numpy as np
import pytest

from conftest import checkout_env
from stickperc import cli
from stickperc.branching import dominating_gw_run, offspring_mean_mc
from stickperc.cli import main
from stickperc.percolation import crossing_event
from stickperc.sampling import Rigid, Uniform, sample_window_configuration

DELTA = "density floor delta must be a number in (0, 1], got "


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestBounds:
    def test_rigid_reference_values(self, capsys):
        rc, out, _ = run_cli(capsys, ["bounds", "--d", "2", "--L", "100", "--law", "rigid"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["lower"] == pytest.approx(7.0523e-4, rel=1e-4)
        assert doc["upper"] == pytest.approx(0.141796, rel=1e-5)

    def test_uniform_lower_value(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["bounds", "--d", "2", "--L", "100", "--law", "uniform", "--delta", "1"]
        )
        assert rc == 0
        assert json.loads(out)["lower"] == pytest.approx(1.25e-5, rel=1e-12)

    def test_precondition_violation_exit_code(self, capsys):
        rc, out, err = run_cli(capsys, ["bounds", "--d", "2", "--L", "3", "--law", "rigid"])
        assert rc == 2
        assert out == ""
        assert "error" in err

    def test_density_law_with_delta(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["bounds", "--d", "2", "--L", "400", "--law", "density", "--delta", "0.5"],
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["delta"] == 0.5


THRESHOLD_ARGS = [
    "threshold", "--d", "2", "--L", "8", "--law", "rigid",
    "--s-factor", "8", "--replicates", "12", "--max-bisect", "3", "--seed", "7",
]


class TestThreshold:
    def test_runs_and_reports(self, capsys):
        rc, out, _ = run_cli(capsys, THRESHOLD_ARGS)
        assert rc == 0
        doc = json.loads(out)
        assert doc["kind"] == "threshold"
        assert doc["ci_low"] <= doc["lambda_hat"] <= doc["ci_high"]
        assert len(doc["probes"]) >= 3

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, THRESHOLD_ARGS)
        _, out2, _ = run_cli(capsys, THRESHOLD_ARGS)
        assert out1 == out2

    def test_workers_do_not_change_output(self, capsys):
        _, out1, _ = run_cli(capsys, THRESHOLD_ARGS + ["--workers", "1"])
        _, out2, _ = run_cli(capsys, THRESHOLD_ARGS + ["--workers", "2"])
        assert out1 == out2

    def test_probes_csv(self, capsys, tmp_path):
        # a row's lambda and seed rebuild its replicate, which crosses (on
        # the default axis 0) exactly when the row says it did
        axis_1 = np.array([0.0, 1.0])
        s_factor = float(THRESHOLD_ARGS[THRESHOLD_ARGS.index("--s-factor") + 1])
        for law, tag in ((Rigid(axis_1), "rigid"), (Uniform(), "uniform")):
            path = tmp_path / f"probes-{tag}.csv"
            args = [tag if a == "rigid" else a for a in THRESHOLD_ARGS]
            rc, out, _ = run_cli(capsys, args + ["--probes-csv", str(path)])
            assert rc == 0
            lines = path.read_text().splitlines()
            assert lines[0].startswith("# schema=stickperc.probes.v1")
            assert lines[1] == "L,lambda,crossed,replicate,seed"
            doc = json.loads(out)
            expected_rows = sum(p["replicates"] for p in doc["probes"])
            assert len(lines) == 2 + expected_rows
            rows = [line.split(",") for line in lines[2:]]
            for crossed in ("0", "1"):
                picked = [row for row in rows if row[2] == crossed][:3]
                assert picked, (tag, crossed)
                for length, lam, _, _, seed in picked:
                    side = s_factor * float(length)
                    assert side == doc["side"]
                    config = sample_window_configuration(2, float(length), float(lam), law, side, int(seed))
                    assert crossing_event(config) == (crossed == "1"), (tag, lam, seed)

    def test_window_precondition_exit_2(self, capsys):
        rc, _, err = run_cli(
            capsys,
            ["threshold", "--d", "2", "--L", "8", "--law", "rigid", "--s-factor", "4",
             "--replicates", "5"],
        )
        assert rc == 2


    @pytest.mark.parametrize(
        "axis, message", [("2", "axis must be in [0, 2), got 2"), ("-1", "axis must be an integer >= 0")],
        ids=["2", "-1"],
    )
    def test_axis_out_of_range_exit_2(self, capsys, axis, message):
        rc, out, err = run_cli(capsys, THRESHOLD_ARGS + ["--axis", axis])
        assert rc == 2
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_2(self, capsys, workers):
        rc, out, err = run_cli(capsys, THRESHOLD_ARGS + ["--workers", workers])
        assert rc == 2
        assert out == ""
        assert err.splitlines() == ["error: workers must be an integer >= 1"]

    @pytest.mark.parametrize("length", ["0", "-8"])
    def test_non_positive_length_exit_2(self, capsys, length):
        rc, out, err = run_cli(
            capsys, ["threshold", "--d", "2", "--L", length, "--law", "rigid", "--replicates", "5"]
        )
        assert rc == 2
        assert out == ""
        assert err.splitlines() == [f"error: stick length must be a number in (0, inf), got {float(length)!r}"]

    @pytest.mark.parametrize("lam", ["-1", "nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [["branching", "--d", "2", "--L", "10", "--trials", "10"], ["measure-mc", "--d", "2", "--trials", "10"]],
        ids=["branching", "measure-mc"],
    )
    def test_invalid_intensity_exit_2(self, capsys, argv, lam):
        rc, out, err = run_cli(capsys, argv + ["--lambda", lam])
        assert rc == 2
        assert out == ""
        assert err.splitlines() == [f"error: intensity must be a number in [0, inf), got {float(lam)!r}"]

    @pytest.mark.parametrize("alpha", ["nan", "-0.5", "1.5"])
    def test_invalid_alpha_exit_2(self, capsys, alpha):
        rc, out, err = run_cli(capsys, ["oriented", "--alpha", alpha, "--n-max", "10", "--trials", "5"])
        assert rc == 2
        assert out == ""
        assert err.splitlines() == [f"error: alpha must be a number in [0, 1], got {float(alpha)!r}"]


    @pytest.mark.parametrize(
        "argv",
        [
            ["branching", "--d", "2", "--L", "10", "--lambda", "0.01", "--trials", "10", "--gw-runs", "2"],
            ["oriented", "--alpha", "0.7", "--n-max", "10", "--trials", "5"],
            ["measure-mc", "--d", "2", "--trials", "10"],
            ["verify", "--suite", "geometry"],
            ["bounds", "--d", "2", "--L", "100", "--law", "rigid"],
        ],
        ids=["branching", "oriented", "measure-mc", "verify", "bounds"],
    )
    def test_negative_seed_exit_2(self, capsys, argv):
        rc, out, err = run_cli(capsys, argv + ["--seed", "-1"])
        assert rc == 2
        assert out == ""
        assert err.splitlines() == ["error: seed must be an integer >= 0"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["branching", "--d", "2", "--L", "10", "--lambda", "0.01", "--trials", "10", "--gw-runs", "2"],
            ["oriented", "--alpha", "0.7", "--n-max", "10", "--trials", "5"],
            ["measure-mc", "--d", "2", "--trials", "10"],
            ["verify", "--suite", "geometry"],
            ["bounds", "--d", "2", "--L", "100", "--law", "rigid"],
        ],
        ids=["branching", "oriented", "measure-mc", "verify", "bounds"],
    )
    def test_seed_of_2_64_exit_2(self, capsys, argv):
        # refused, not run as seed 0: derive_seed reads a master seed mod
        # 2^64 (threshold and scaling: test_invalid_input_exits_2_before_sampling)
        rc, out, err = run_cli(capsys, argv + ["--seed", "18446744073709551616"])
        assert rc == 2
        assert out == ""
        assert err.splitlines() == ["error: seed must be below 2^64, got 18446744073709551616"]

    def test_gw_runs_past_the_largest_seed_wrap(self, capsys):
        # run k's seed is seed + k mod 2^64, so the largest seed runs every
        # GW run, the later ones at seeds 0 and 1
        argv = ["branching", "--d", "2", "--L", "10", "--lambda", "0.05", "--trials", "50", "--gw-runs", "3"]
        rc, out, _ = run_cli(capsys, argv + ["--seed", str(2**64 - 1)])
        assert rc == 0
        samples = offspring_mean_mc(2, 10.0, 0.05, Uniform(), 50, 2**64 - 1).samples
        reports = [dominating_gw_run(samples, 60, 100_000, s) for s in (2**64 - 1, 0, 1)]
        doc = json.loads(out)
        assert doc["gw_extinct"] == sum(r.extinct for r in reports)
        assert doc["gw_example_generations"] == list(reports[0].generation_sizes)


class TestScaling:
    def test_small_run(self, capsys, tmp_path):
        path = tmp_path / "scaling.csv"
        rc, out, _ = run_cli(
            capsys,
            ["scaling", "--d", "2", "--law", "rigid", "--L-list", "8,12,16",
             "--s-factor", "8", "--replicates", "10", "--max-bisect", "2",
             "--csv", str(path), "--seed", "3"],
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["kind"] == "scaling"
        assert len(doc["points"]) == 3
        assert doc["slope"] < 0
        lines = path.read_text().splitlines()
        assert lines[1] == "L,lambda_hat,ci_low,ci_high,weight"
        assert len(lines) == 5


class TestBranching:
    ARGS = [
        "branching", "--d", "2", "--L", "10", "--lambda", "0.05", "--law", "rigid",
        "--trials", "300", "--gw-runs", "50", "--seed", "2",
    ]

    def test_runs(self, capsys, tmp_path):
        path = tmp_path / "offspring.csv"
        rc, out, _ = run_cli(capsys, self.ARGS + ["--samples-csv", str(path)])
        assert rc == 0
        doc = json.loads(out)
        assert doc["below_bound"] is True
        assert doc["gw_runs"] == 50
        lines = path.read_text().splitlines()
        assert lines[1] == "trial,count"
        assert len(lines) == 2 + 300

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, self.ARGS)
        _, out2, _ = run_cli(capsys, self.ARGS)
        assert out1 == out2


class TestOriented:
    ARGS = ["oriented", "--alpha", "0.81", "--variant", "bond", "--n-max", "60",
            "--trials", "40", "--seed", "5"]

    def test_runs_with_csv(self, capsys, tmp_path):
        path = tmp_path / "oriented.csv"
        rc, out, _ = run_cli(capsys, self.ARGS + ["--csv", str(path)])
        assert rc == 0
        doc = json.loads(out)
        assert 0.0 <= doc["fraction"] <= 1.0
        lines = path.read_text().splitlines()
        assert lines[1] == "alpha,trial,survived,extinction_level"
        assert len(lines) == 2 + 40

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, self.ARGS)
        _, out2, _ = run_cli(capsys, self.ARGS)
        assert out1 == out2


class TestMeasureMC:
    ARGS = ["measure-mc", "--d", "2", "--L", "256", "--trials", "50000", "--seed", "1"]

    def test_runs(self, capsys):
        rc, out, _ = run_cli(capsys, self.ARGS)
        assert rc == 0
        doc = json.loads(out)
        assert doc["above_bound"] is True

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, self.ARGS)
        _, out2, _ = run_cli(capsys, self.ARGS)
        assert out1 == out2


class TestVerify:
    def test_geometry_suite_passes(self, capsys):
        rc, out, err = run_cli(capsys, ["verify", "--suite", "geometry", "--seed", "1"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])
        assert "[PASS]" in err

    def test_branching_suite_passes(self, capsys):
        rc, out, _ = run_cli(capsys, ["verify", "--suite", "branching", "--seed", "0"])
        assert rc == 0
        assert json.loads(out)["passed"] is True


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.5}))
        _, out_cfg, _ = run_cli(
            capsys,
            ["bounds", "--d", "2", "--L", "400", "--law", "density", "--config", str(cfg)],
        )
        assert json.loads(out_cfg)["delta"] == 0.5
        # explicit flag wins over the config file
        _, out_flag, _ = run_cli(
            capsys,
            ["bounds", "--d", "2", "--L", "400", "--law", "density",
             "--config", str(cfg), "--delta", "0.25"],
        )
        assert json.loads(out_flag)["delta"] == 0.25


class TestInvalidInput:
    @pytest.mark.parametrize(
        "argv,config",
        [
            (THRESHOLD_ARGS + ["--config", "CFG"], None),
            (THRESHOLD_ARGS + ["--config", "CFG"], "{replicates: 5"),
            (THRESHOLD_ARGS + ["--config", "CFG"], '{"replicats": 5}'),
            (THRESHOLD_ARGS + ["--config", "CFG"], '{"lambda": 0.5}'),
            (THRESHOLD_ARGS + ["--config", "CFG"], '{"replicates": "abc"}'),
            (THRESHOLD_ARGS + ["--config", "CFG"], '{"replicates": 6.7}'),
            (["verify", "--config", "CFG"], '{"suite": "bogus"}'),
            (["scaling", "--d", "2", "--law", "rigid", "--L-list", "8,x,16"], None),
        ],
        ids=[
            "missing-config", "invalid-json", "misspelt-key", "flag-not-dest",
            "int-from-text", "int-from-fraction", "suite-not-a-choice", "L-list-not-numbers",
        ],
    )
    def test_exits_2_without_traceback(self, capsys, tmp_path, argv, config):
        path = tmp_path / "cfg.json"
        if config is not None:
            path.write_text(config)
        with pytest.raises(SystemExit) as exc:
            main([str(path) if arg == "CFG" else arg for arg in argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, length",
        [
            (["threshold", "--d", "2", "--L", "inf", "--law", "rigid", "--replicates", "5"], "inf"),
            (["bounds", "--d", "2", "--L", "nan", "--law", "rigid"], "nan"),
            (["bounds", "--d", "2", "--L", "inf", "--law", "uniform"], "inf"),
        ],
        ids=["threshold-inf", "bounds-rigid-nan", "bounds-uniform-inf"],
    )
    def test_non_finite_length_exits_2(self, capsys, argv, length):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2
        assert out == ""
        assert err.splitlines() == [f"error: stick length must be a number in (0, inf), got {length}"]

    @pytest.mark.parametrize("law", ["rigid", "uniform"])
    @pytest.mark.parametrize("length", ["0", "-0.0", "-8"])
    def test_bounds_non_positive_length_exits_2(self, capsys, law, length):
        rc, out, err = run_cli(capsys, ["bounds", "--d", "2", "--L", length, "--law", law])
        assert rc == 2
        assert out == ""
        assert err.splitlines() == [f"error: stick length must be a number in (0, inf), got {float(length)!r}"]

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["bounds", "--d", "2", "--L", "1e-300", "--law", "uniform"], "L = 1e-300"),
            (["threshold", "--d", "2", "--L", "1e-300", "--law", "uniform", "--replicates", "5"],
             "L = 1e-300"),
            (["bounds", "--d", "2", "--L", "1e200", "--law", "uniform"], "L = 1e+200"),
            (["bounds", "--d", "2", "--L", "400", "--law", "density", "--delta", "inf"], DELTA + "inf"),
            (["bounds", "--d", "2", "--L", "400", "--law", "density", "--delta", "1e-320"],
             "delta = 1e-320"),
            (["measure-mc", "--d", "2", "--trials", "100", "--delta", "nan"], DELTA + "nan"),
            (["measure-mc", "--d", "2", "--trials", "100", "--delta", "inf"], DELTA + "inf"),
            (["measure-mc", "--d", "2", "--trials", "100", "--delta", "-1"], DELTA + "-1.0"),
            (["bounds", "--d", "2", "--L", "100", "--law", "rigid", "--delta", "inf"], DELTA + "inf"),
            (["bounds", "--d", "2", "--L", "100", "--law", "uniform", "--delta", "-1"], DELTA + "-1.0"),
            (["bounds", "--d", "2", "--L", "400", "--law", "density", "--delta", "2"], DELTA + "2.0"),
            (["measure-mc", "--d", "2", "--trials", "100", "--delta", "2"], DELTA + "2.0"),
            (["measure-mc", "--d", "2", "--L", "1e300", "--trials", "100"], "L = 1e+300"),
            (["measure-mc", "--d", "2", "--L", "inf", "--trials", "100"],
             "stick length must be a number in (0, inf), got inf"),
            (["measure-mc", "--d", "2", "--L", "nan", "--trials", "100"],
             "stick length must be a number in (0, inf), got nan"),
            (["branching", "--d", "2", "--L", "10", "--lambda", "0.05", "--trials", "1"],
             "trials must be an integer >= 2"),
            (["measure-mc", "--d", "2", "--trials", "0"], "trials must be an integer >= 1"),
            (["oriented", "--alpha", "0.7", "--trials", "0"], "trials must be an integer >= 1"),
        ],
        ids=[
            "bounds-L-overflow", "threshold-L-overflow", "bounds-L-underflow", "bounds-delta-inf",
            "bounds-delta-tiny", "measure-mc-delta-nan", "measure-mc-delta-inf",
            "measure-mc-delta-negative", "bounds-rigid-delta-inf", "bounds-uniform-delta-negative",
            "bounds-density-delta-above-1", "measure-mc-delta-above-1", "measure-mc-L-huge",
            "measure-mc-L-inf", "measure-mc-L-nan", "branching-one-trial", "measure-mc-zero-trials",
            "oriented-zero-trials",
        ],
    )
    def test_bracket_out_of_range_exits_2(self, capsys, argv, named):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2
        assert out == ""
        assert "Traceback" not in err
        assert named in err.splitlines()[-1]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["threshold", "--d", "1", "--law", "rigid", "--L", "8", "--replicates", "5"],
             "dimension must be an integer >= 2"),
            (["scaling", "--d", "1", "--law", "rigid", "--replicates", "5"], "dimension must be an integer >= 2"),
            (["branching", "--d", "1", "--law", "rigid", "--L", "10", "--lambda", "0.05", "--trials", "20"],
             "dimension must be an integer >= 2"),
            (["branching", "--d", "-1", "--L", "10", "--lambda", "0.05", "--trials", "20"],
             "dimension must be an integer >= 2"),
            (["branching", "--d", "2", "--L", "10", "--lambda", "0.05", "--trials", "20", "--gw-runs", "0",
              "--max-generations", "0"], "max_generations must be an integer >= 1"),
            (["branching", "--d", "2", "--L", "10", "--lambda", "0.05", "--trials", "20", "--gw-runs", "0",
              "--population-cap", "0"], "population_cap must be an integer >= 1"),
        ],
        ids=["threshold-d-1", "scaling-d-1", "branching-rigid-d-1", "branching-d-negative",
             "no-gw-runs-generations-0", "no-gw-runs-population-0"],
    )
    def test_invalid_dimension_or_cap_exits_2(self, capsys, argv, message):
        # checked before any sampling, whatever the law or the GW run count
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.splitlines()[-1] == f"error: {message}"

    @pytest.mark.parametrize(
        "argv, computation, message",
        [
            (["scaling", "--d", "2", "--law", "uniform", "--L-list", "8,16,8", "--replicates", "20"],
             "stickperc.percolation.estimate_threshold", "scaling fit needs at least 3 distinct L values"),
            # every length is checked before the first one is estimated
            (["scaling", "--d", "2", "--law", "uniform", "--L-list", "8,16,32,-64", "--replicates", "30"],
             "stickperc.percolation.estimate_threshold", "stick length must be a number in (0, inf), got -64.0"),
            (["scaling", "--d", "2", "--law", "uniform", "--L-list", "8,16,1e300", "--replicates", "30"],
             "stickperc.percolation.estimate_threshold", "bracket leaves the floating-point range at L = 1e+300"),
            # the first probe of the last length would draw about 5e7 sticks
            (["scaling", "--d", "3", "--law", "uniform", "--L-list", "8,16,1e6", "--replicates", "5"],
             "stickperc.percolation.estimate_threshold", "expected count 5.3e+07 exceeds guard of 5e+05"),
            # the probe inputs are checked before the first length too
            (["scaling", "--d", "2", "--law", "uniform", "--L-list", "8,16,32", "--axis", "2"],
             "stickperc.percolation.estimate_threshold", "axis must be in [0, 2), got 2"),
            (["scaling", "--d", "2", "--law", "uniform", "--L-list", "8,16,32", "--workers", "0"],
             "stickperc.percolation.estimate_threshold", "workers must be an integer >= 1"),
            (["scaling", "--d", "2", "--law", "uniform", "--L-list", "8,16,32", "--replicates", "0"],
             "stickperc.percolation.estimate_threshold", "replicates must be an integer >= 1"),
            (["scaling", "--d", "2", "--law", "uniform", "--L-list", "8,16,32", "--replicates", "600000"],
             "stickperc.percolation.estimate_threshold", "600000 replicates exceed guard of 5e+05"),
            (["branching", "--d", "2", "--L", "2", "--lambda", "0.1", "--trials", "200000", "--gw-runs", "0"],
             "stickperc.branching.offspring_mean_mc", "uniform lower bound requires L > 3.14159, got L = 2"),
            # an infinite window side is named, not met as an infinite Poisson mean
            (["threshold", "--d", "2", "--law", "uniform", "--L", "8", "--replicates", "4", "--s-factor", "inf"],
             "stickperc.percolation._probe", "window side must be a number in (0, inf), got inf"),
            (["scaling", "--d", "2", "--law", "uniform", "--L-list", "8,16,32", "--replicates", "4",
              "--s-factor", "inf"], "stickperc.percolation.estimate_threshold",
             "window side must be a number in (0, inf), got inf"),
            (["scaling", "--d", "2", "--law", "uniform", "--L-list", "8,16,32", "--replicates", "4",
              "--s-factor", "0"], "stickperc.percolation.estimate_threshold",
             "window side must be a number in (0, inf), got 0.0"),
            (["scaling", "--d", "2", "--law", "uniform", "--L-list", "8,16,32", "--replicates", "4",
              "--s-factor", "4"], "stickperc.percolation.estimate_threshold",
             "the estimator needs side >= 8 L, got side = 32.0, L = 8.0"),
            # a negative seed is refused, not aliased to 2^64 - |seed|
            (["threshold", "--d", "2", "--law", "uniform", "--L", "8", "--replicates", "4", "--seed", "-1"],
             "stickperc.percolation._probe", "seed must be an integer >= 0"),
            (["scaling", "--d", "2", "--law", "uniform", "--L-list", "8,16,32", "--replicates", "4", "--seed", "-1"],
             "stickperc.percolation.estimate_threshold", "seed must be an integer >= 0"),
            (["threshold", "--d", "2", "--law", "uniform", "--L", "8", "--replicates", "4", "--seed", str(2**64)],
             "stickperc.percolation._probe", f"seed must be below 2^64, got {2**64}"),
            (["scaling", "--d", "2", "--law", "uniform", "--L-list", "8,16,32", "--replicates", "4", "--seed",
              str(2**64)], "stickperc.percolation.estimate_threshold", f"seed must be below 2^64, got {2**64}"),
        ],
        ids=[
            "scaling-repeated-L", "scaling-negative-last-L", "scaling-huge-last-L", "scaling-oversized-first-probe",
            "scaling-axis-out-of-range", "scaling-zero-workers", "scaling-zero-replicates",
            "scaling-replicates-over-guard", "branching-L-without-bound", "threshold-side-inf", "scaling-side-inf",
            "scaling-side-zero", "scaling-side-below-8-L", "threshold-negative-seed", "scaling-negative-seed",
            "threshold-seed-2-64", "scaling-seed-2-64",
        ],
    )
    def test_invalid_input_exits_2_before_sampling(self, capsys, monkeypatch, argv, computation, message):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{computation} ran before the input was checked")

        monkeypatch.setattr(computation, unreachable)
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "argv, d",
        [
            (["bounds", "--d", "77", "--L", "1e6", "--law", "uniform"], 77),
            (["bounds", "--d", "77", "--L", "1e6", "--law", "density"], 77),
            (["bounds", "--d", "90", "--L", "1e6", "--law", "uniform"], 90),
            (["bounds", "--d", "326", "--L", "1e6", "--law", "rigid"], 326),
        ],
        ids=["uniform-overflow", "density-overflow", "uniform-step-constant-underflow", "rigid-overflow"],
    )
    def test_high_dimension_constant_out_of_range_exits_2(self, capsys, argv, d):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and err.rstrip().endswith(f"leaves the floating-point range at d = {d}")

    @pytest.mark.parametrize(
        "argv, cap_gib, message",
        [
            # about 5e7 expected sticks per replicate
            (["threshold", "--d", "3", "--L", "1e6", "--law", "uniform", "--replicates", "2"], 4,
             "error: expected count 5.3e+07 exceeds guard of 5e+05"),
            # one seed and one outcome per replicate is about 14 GB of ints
            (["threshold", "--d", "2", "--L", "8", "--law", "uniform", "--replicates", "400000000"], 2,
             "error: 400000000 replicates exceed guard of 5e+05"),
            # 4e8 expected sticks in one trial, under the 1e9 the offspring
            # Monte Carlo once checked on all trials together
            (["branching", "--d", "3", "--L", "1000", "--lambda", "0.033", "--trials", "2", "--gw-runs", "0"], 4,
             "error: expected count 4e+08 exceeds guard of 5e+05"),
            # one int64 per trial is 3 GB
            (["branching", "--d", "2", "--L", "10", "--lambda", "0.0001", "--gw-runs", "0", "--trials", "400000000"],
             2, "error: 400000000 trials exceed guard of 5e+05"),
            (["oriented", "--alpha", "0.5", "--n-max", "1", "--trials", "400000000"], 2,
             "error: 400000000 runs exceed guard of 5e+05"),
            # a generation under the cap could hold about 7e8 individuals
            (["branching", "--d", "2", "--L", "10", "--lambda", "0.2", "--law", "rigid", "--trials", "100",
              "--gw-runs", "1", "--population-cap", "1000000000000"], 3,
             "error: population cap 1000000000000 exceeds guard of 1e+08"),
        ],
        ids=["threshold-sticks", "threshold-replicates", "offspring-sticks", "branching-trials", "oriented-runs",
             "population-cap"],
    )
    def test_memory_guard_exits_2_before_allocating(self, argv, cap_gib, message):
        # the address-space cap turns a guard that lets the allocation start
        # into a failure, not an OOM kill
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (cap_gib << 30, cap_gib << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "stickperc.cli", *argv],
            capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
            env=checkout_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [message]

    def test_non_finite_output_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.measures, "two_ball_lower_bound", lambda *args, **kwargs: math.nan)
        rc, out, err = run_cli(capsys, ["measure-mc", "--d", "2", "--trials", "100"])
        assert rc == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: output is not standard JSON")

    @pytest.mark.parametrize(
        "argv",
        [
            ["branching", "--d", "2", "--L", "10", "--lambda", "0.05", "--trials", "20",
             "--gw-runs", "-3"],
            THRESHOLD_ARGS + ["--max-bisect", "-2"],
        ],
        ids=["gw-runs", "max-bisect"],
    )
    def test_negative_count_exits_2(self, capsys, argv):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2
        assert out == ""
        assert err.splitlines()[-1].startswith("error:")

    @pytest.mark.parametrize(
        "argv, computation",
        [
            (THRESHOLD_ARGS + ["--probes-csv"], "stickperc.percolation.estimate_threshold"),
            (["scaling", "--d", "2", "--law", "rigid", "--L-list", "8,12,16", "--s-factor", "8",
              "--replicates", "6", "--max-bisect", "1", "--csv"], "stickperc.percolation.estimate_threshold"),
            (["branching", "--d", "2", "--L", "10", "--lambda", "0.05", "--law", "rigid",
              "--trials", "50", "--gw-runs", "5", "--samples-csv"], "stickperc.branching.offspring_mean_mc"),
            (TestOriented.ARGS + ["--csv"], "stickperc.oriented.survival_probability"),
        ],
        ids=["threshold", "scaling", "branching", "oriented"],
    )
    def test_unwritable_csv_exits_2(self, capsys, monkeypatch, tmp_path, argv, computation):
        # the path is opened before the computation, so none of it runs
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{computation} ran before the CSV path was opened")

        monkeypatch.setattr(computation, unreachable)
        path = tmp_path / "missing" / "out.csv"
        rc, out, err = run_cli(capsys, argv + [str(path)])
        assert rc == 2
        assert out == ""
        assert err.splitlines() == [f"error: cannot write {path}: No such file or directory"]


class TestConfigKeys:
    def test_seed_takes_effect(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        argv = TestOriented.ARGS[: TestOriented.ARGS.index("--seed")]
        _, out_cfg, _ = run_cli(capsys, argv + ["--config", str(cfg)])
        _, out_flag, _ = run_cli(capsys, argv + ["--seed", "5"])
        assert json.loads(out_cfg)["seed"] == 5
        assert out_cfg == out_flag


class TestArgParsing:
    def test_unknown_law_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stickperc.cli", "bounds", "--d", "2", "--L", "10",
             "--law", "diagonal"],
            capture_output=True, env=checkout_env(),
        )
        assert proc.returncode == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stickperc.cli", "bounds", "--d", "2", "--L", "100",
             "--law", "rigid"],
            capture_output=True, text=True, env=checkout_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["law"] == "rigid"
