import subprocess
import sys
from pathlib import Path

import pytest

from stepargmin import experiments
from stepargmin.cli import run

SPEC_TEXT = """\
rate_right = 1.0
rate_left = 1.0
jump_right = point(1.0)
jump_left = point(1.0)
window_initial = 8.0
window_growth = 2.0
max_window = 64.0
"""

CONFIG_TEXT = """\
master_seed = 4242
k = 1
n_grid = 40, 80
replications_data = 1000
replications_limit = 1000
rho = 0.1
coverage_n = 80
coverage_replications = 1000
coverage_tolerance = 0.03
model.tau = 0.5
model.alpha = 0, 1
model.x_law = uniform(0, 1)
model.noise = gaussian(0, 0.25)
set closed all = [-inf,inf]
set open all = (-inf,inf)
"""

K2_CONFIG_TEXT = """\
master_seed = 515
k = 2
n_grid = 30, 60
replications_data = 1000
replications_limit = 1000
rho = 0.1
model.tau = 0.3333333333333333, 0.6666666666666666
model.alpha = 0, 1, 0
model.x_law = uniform(0, 1)
model.noise = gaussian(0, 0.25)
set closed lower-both = [-inf,0] | [-inf,0]
set closed lower-aux = [-inf,0] | [-inf,0] @ [-0.75,0.75] | [-0.75,0.75] | [-0.75,0.75]
set open win-both = (-4,4) | (-4,4)
"""

GOOD_CSV = "x,y\n1.0,0.0\n2.0,0.0\n3.0,1.0\n4.0,1.0\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "data.csv").write_text(GOOD_CSV)
    (tmp_path / "spec.txt").write_text(SPEC_TEXT)
    (tmp_path / "cfg.txt").write_text(CONFIG_TEXT)
    return tmp_path


def read_reports(out_dir, names):
    return {name: (out_dir / name).read_bytes() for name in names}


def assert_workers_do_not_change(workdir, command, names):
    # cfg.txt's n of 40 and 80 make blocks of 204 and 102 replications, so
    # 1000 replications are 5 and 10 blocks that 2 and 3 workers chunk
    # differently
    reports = []
    for workers in ("1", "2", "3"):
        out = workdir / f"{command}-w{workers}"
        argv = [command, "--config", str(workdir / "cfg.txt"), "--out", str(out)]
        assert run(argv + ["--workers", workers]) == 0
        reports.append(read_reports(out, names))
    assert reports[0] == reports[1] == reports[2]


class TestFit:
    def test_perfect_step(self, workdir):
        out = workdir / "out_fit"
        code = run(["fit", "--data", str(workdir / "data.csv"), "--k", "1", "--out", str(out)])
        assert code == 0
        text = (out / "fit.txt").read_text()
        assert "tau = 2.0" in text
        assert "sse = 0.0" in text
        assert (out / "manifest.txt").exists()
        assert (out / "DONE").exists()
        assert (out / "residuals.csv").read_text().splitlines()[0] == "x,y,fitted,residual"
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert "master_seed = 0" in manifest and "workers = 1" in manifest

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--workers", "2"]])
    def test_seed_and_workers_are_usage_errors(self, workdir, capsys, flag):
        # the fit is deterministic and runs in one process
        out = workdir / "out_fit"
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--data", str(workdir / "data.csv"), "--k", "1", "--out", str(out), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_file(self, workdir, capsys):
        (workdir / "empty.csv").write_text("")
        code = run(["fit", "--data", str(workdir / "empty.csv"), "--k", "1", "--out", str(workdir / "o")])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_k_too_large(self, workdir):
        # a k far beyond the data fails before anything is sized by k
        for k in ("9", "1000000000000"):
            out = str(workdir / f"o{k}")
            assert run(["fit", "--data", str(workdir / "data.csv"), "--k", k, "--out", out]) == 3

    def test_malformed_row_names_line(self, workdir, capsys):
        (workdir / "bad.csv").write_text("x,y\n1.0,2.0\noops\n")
        code = run(["fit", "--data", str(workdir / "bad.csv"), "--k", "1", "--out", str(workdir / "o")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_overflowing_y_exit_2(self, workdir, capsys):
        (workdir / "wide.csv").write_text(
            "x,y\n" + "".join(f"{i},{v}\n" for i, v in enumerate([0, 0, 1e200, 1e200, 0, 0]))
        )
        code = run(["fit", "--data", str(workdir / "wide.csv"), "--k", "1", "--out", str(workdir / "o")])
        assert code == 2
        assert "y spreads too widely" in capsys.readouterr().err

    def test_failed_run_has_manifest_but_no_done(self, workdir):
        out = workdir / "partial"
        code = run(["fit", "--data", str(workdir / "data.csv"), "--k", "4", "--out", str(out)])
        assert code == 3
        assert (out / "manifest.txt").exists()
        assert not (out / "DONE").exists()


class TestSimulateLimit:
    def test_samples_csv(self, workdir):
        out = workdir / "out_sim"
        code = run(
            ["simulate-limit", "--spec", str(workdir / "spec.txt"), "--reps", "20",
             "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "samples.csv").read_text().splitlines()
        assert lines[0] == "rep,xi_min,xi_max"
        assert len(lines) == 21

    def test_bad_spec(self, workdir):
        (workdir / "bad_spec.txt").write_text("rate_right = 1.0\n")
        code = run(
            ["simulate-limit", "--spec", str(workdir / "bad_spec.txt"), "--reps", "5",
             "--seed", "1", "--out", str(workdir / "o")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("jump_right = point(1.0)", "jump_right = point(1, x)", "'point(1, x)'"),
            ("max_window = 64.0", "max_windw = 64.0", "line 7: unknown key 'max_windw'"),
        ],
    )
    def test_bad_spec_line_named(self, workdir, capsys, old, new, named):
        (workdir / "bad_spec.txt").write_text(SPEC_TEXT.replace(old, new))
        code = run(
            ["simulate-limit", "--spec", str(workdir / "bad_spec.txt"), "--reps", "5",
             "--seed", "1", "--out", str(workdir / "o")]
        )
        assert code == 2
        assert named in capsys.readouterr().err

    def test_window_initial_defaults_below_max_window(self, workdir):
        # an unset window_initial follows a max_window below 8
        text = SPEC_TEXT.replace("window_initial = 8.0\n", "").replace("= 64.0", "= 4.0")
        (workdir / "small.txt").write_text(text)
        out = workdir / "o"
        code = run(
            ["simulate-limit", "--spec", str(workdir / "small.txt"), "--reps", "5",
             "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        assert len((out / "samples.csv").read_text().splitlines()) == 6

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("= 64.0", "= 4.0", "max_window must be at least window_initial"),
            # the default window_initial follows max_window; the message
            # names the key that was written
            ("window_initial = 8.0\nwindow_growth = 2.0\nmax_window = 64.0",
             "max_window = -5", "max_window must be positive"),
        ],
    )
    def test_bad_window_exit_2(self, workdir, capsys, old, new, named):
        (workdir / "bad_spec.txt").write_text(SPEC_TEXT.replace(old, new))
        code = run(
            ["simulate-limit", "--spec", str(workdir / "bad_spec.txt"), "--reps", "5",
             "--seed", "1", "--out", str(workdir / "o")]
        )
        assert code == 2
        assert named in capsys.readouterr().err

    def test_uncertified_walk_exit_1(self, workdir, capsys):
        # gaussian(0.03, 1) passes the spec check, but about 40% of its
        # walks are still uncertified at the cap of 16 384 jumps
        text = SPEC_TEXT.replace("jump_left = point(1.0)", "jump_left = gaussian(0.03, 1)")
        (workdir / "weak.txt").write_text(text)
        out = workdir / "o"
        code = run(
            ["simulate-limit", "--spec", str(workdir / "weak.txt"), "--reps", "5",
             "--seed", "1", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "a left walk of the spec" in err and "gaussian(0.03, 1.0)" in err
        assert (out / "manifest.txt").exists() and not (out / "DONE").exists()


class TestCapacity:
    def test_prints_estimate(self, workdir, capsys):
        code = run(
            ["capacity", "--spec", str(workdir / "spec.txt"), "--set", "[-inf,0]",
             "--reps", "100", "--seed", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "value = 1.0" in out
        assert "replications = 100" in out

    def test_zero_reps_exit_2(self, workdir, capsys):
        code = run(
            ["capacity", "--spec", str(workdir / "spec.txt"), "--set", "[-inf,0]",
             "--reps", "0", "--seed", "5"]
        )
        assert code == 2
        assert "replications" in capsys.readouterr().err

    # ';' separates intervals, so "[1;2]" fails on its first piece "[1";
    # a reversed or NaN interval, and a set with no interval, used to read
    # as the empty set (value 0.0)
    @pytest.mark.parametrize(
        "arg, message",
        [
            pytest.param(arg, f"{prefix} {token}", id=f"{arg}-{token}")
            for arg, prefix, token in [
                ("[1,2,3]", "expected interval '[lo,hi]', got", "'[1,2,3]'"),
                ("[1;2]", "expected interval '[lo,hi]', got", "'[1'"),
                ("[3,1]", "empty interval", "'[3,1]'"),
                ("[nan,1]", "empty interval", "'[nan,1]'"),
                ("[-1,0];[1,nan]", "empty interval", "'[1,nan]'"),
                ("", "no interval in set", "''"),
                (";", "no interval in set", "';'"),
                (" ; ; ", "no interval in set", "'; ;'"),
            ]
        ],
    )
    def test_malformed_set_exit_2(self, workdir, capsys, arg, message):
        code = run(
            ["capacity", "--spec", str(workdir / "spec.txt"), "--set", arg,
             "--reps", "100", "--seed", "5"]
        )
        assert code == 2
        assert message in capsys.readouterr().err


class TestNonFiniteSpec:
    # each of these but the last used to crash with a traceback: an
    # infinite rate or window overflowed the gap count, a non-finite jump
    # law broke the argmin cells
    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("max_window = 64.0", "max_window = inf", "max_window must be finite"),
            ("rate_right = 1.0", "rate_right = inf", "rate_right must be finite"),
            ("rate_left = 1.0", "rate_left = nan", "rate_left must be finite"),
            ("jump_right = point(1.0)", "jump_right = gaussian(1, inf)",
             "gaussian law parameters must be finite"),
            ("jump_left = point(1.0)", "jump_left = two_point(nan, 1, 0.5)",
             "two_point law parameters must be finite"),
            # its drift would climb ln(1/eps)/R in 13.8 million jumps
            ("jump_right = point(1.0)", "jump_right = gaussian(0.001, 1)",
             "jump_right = gaussian(0.001, 1.0) cannot be certified"),
        ],
    )
    @pytest.mark.parametrize(
        "command, extra",
        [
            ("simulate-limit", ["--reps", "20", "--out", "o"]),
            ("capacity", ["--set", "[-inf,0]", "--reps", "100"]),
        ],
    )
    def test_exit_2(self, workdir, capsys, old, new, named, command, extra):
        (workdir / "bad_spec.txt").write_text(SPEC_TEXT.replace(old, new))
        extra = [str(workdir / a) if a == "o" else a for a in extra]
        code = run([command, "--spec", str(workdir / "bad_spec.txt"), "--seed", "1"] + extra)
        assert code == 2
        assert named in capsys.readouterr().err


class TestWorkers:
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_below_one_exit_2(self, workdir, capsys, workers):
        out = workdir / "out_workers"
        code = run(
            ["simulate-limit", "--spec", str(workdir / "spec.txt"), "--reps", "20",
             "--seed", "9", "--out", str(out), "--workers", workers]
        )
        assert code == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_full_space_passes(self, workdir):
        out = workdir / "out_ver"
        code = run(["verify", "--config", str(workdir / "cfg.txt"), "--out", str(out)])
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "verdict = pass" in summary
        assert (out / "inequalities.csv").exists()
        assert (out / "tails.csv").exists()

    def test_missing_key_exit_2(self, workdir, capsys):
        text = "\n".join(
            ln for ln in CONFIG_TEXT.splitlines() if not ln.startswith("rho")
        )
        (workdir / "broken.txt").write_text(text)
        code = run(["verify", "--config", str(workdir / "broken.txt"), "--out", str(workdir / "o")])
        assert code == 2
        assert "rho" in capsys.readouterr().err

    def test_byte_identical_repeat(self, workdir):
        out1 = workdir / "rep1"
        out2 = workdir / "rep2"
        names = ("inequalities.csv", "tails.csv", "summary.txt")
        assert run(["verify", "--config", str(workdir / "cfg.txt"), "--out", str(out1)]) == 0
        assert run(["verify", "--config", str(workdir / "cfg.txt"), "--out", str(out2)]) == 0
        assert read_reports(out1, names) == read_reports(out2, names)

    def test_workers_do_not_change_reports(self, workdir):
        assert_workers_do_not_change(
            workdir, "verify", ("inequalities.csv", "tails.csv", "summary.txt")
        )

    def test_config_seed_used_unless_overridden(self, workdir):
        out1 = workdir / "seed_cfg"
        assert run(["verify", "--config", str(workdir / "cfg.txt"), "--out", str(out1)]) == 0
        assert "master_seed = 4242" in (out1 / "manifest.txt").read_text()
        out2 = workdir / "seed_flag"
        assert run(
            ["verify", "--config", str(workdir / "cfg.txt"), "--out", str(out2), "--seed", "777"]
        ) == 0
        assert "master_seed = 777" in (out2 / "manifest.txt").read_text()
        assert (out1 / "tails.csv").read_bytes() != (out2 / "tails.csv").read_bytes()

    def test_verdict_failure_exits_one(self, workdir):
        text = CONFIG_TEXT + "tail_grid = 0.0, 0.5\ntail_threshold = 0.0\n"
        (workdir / "cfg_fail.txt").write_text(text)
        out = workdir / "out_fail"
        code = run(["verify", "--config", str(workdir / "cfg_fail.txt"), "--out", str(out)])
        assert code == 1
        assert "verdict = fail" in (out / "summary.txt").read_text()

    def test_uncertified_walk_exit_1(self, workdir, capsys):
        # noise of sd 17 around a unit jump derives gaussian(1, 34) jumps,
        # which pass the spec check but leave about half their walks
        # uncertified at the cap of 16 384 jumps
        text = CONFIG_TEXT.replace("gaussian(0, 0.25)", "gaussian(0, 17)")
        (workdir / "cfg_walk.txt").write_text(text)
        out = workdir / "out_walk"
        code = run(["verify", "--config", str(workdir / "cfg_walk.txt"), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "jump_right = gaussian(1.0, 34.0)" in err
        assert "uncertified after 16384 jumps" in err
        assert not (out / "DONE").exists()


class TestVerifyFitsOnce:
    REPORTS = ("inequalities.csv", "tails.csv", "product_form.csv")

    def test_each_dataset_fitted_once(self, workdir, monkeypatch):
        # every dataset goes through the block fitter, one row per dataset
        sizes = []
        fit_rows = experiments.fit_rows

        def counting(x, y, k):
            sizes.extend([x.shape[1]] * x.shape[0])
            return fit_rows(x, y, k)

        monkeypatch.setattr(experiments, "fit_rows", counting)
        (workdir / "k2.txt").write_text(K2_CONFIG_TEXT)
        out = workdir / "k2_out"
        assert run(["verify", "--config", str(workdir / "k2.txt"), "--out", str(out)]) == 0
        assert sorted(sizes) == [30] * 1000 + [60] * 1000

    def test_reports_match_public_functions(self, workdir):
        (workdir / "k2.txt").write_text(K2_CONFIG_TEXT)
        out = workdir / "k2_out"
        assert run(["verify", "--config", str(workdir / "k2.txt"), "--out", str(out)]) == 0
        config = experiments.parse_verification_config(K2_CONFIG_TEXT)
        tables = experiments.verify_tables(config)
        expected = {
            "inequalities.csv": experiments.verify_limit_bounds(config, tables).to_csv(),
            "tails.csv": experiments.tail_probability_table(config, tables).to_csv(),
            "product_form.csv": experiments.product_form_check(config, tables).to_csv(),
        }
        assert read_reports(out, self.REPORTS) == {
            name: text.encode("utf-8") for name, text in expected.items()
        }


class TestConfigErrors:
    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("n_grid = 40, 80", "n_grid = 5x0", "n_grid"),
            ("gaussian(0, 0.25)", "gaussian(0, abc)", "'gaussian(0, abc)'"),
            ("rho = 0.1", "rho = 0.1\nrho = 0.5", "line 7: repeated key 'rho'"),
            ("coverage_tolerance", "coverage_tolerence", "line 9: unknown key"),
        ],
    )
    @pytest.mark.parametrize("command", ["verify", "coverage"])
    def test_exit_2_names_the_line_or_value(self, workdir, capsys, command, old, new, named):
        (workdir / "bad.cfg").write_text(CONFIG_TEXT.replace(old, new))
        out = workdir / "out_bad"
        code = run([command, "--config", str(workdir / "bad.cfg"), "--out", str(out)])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


    # each of these used to crash mid-run (TypeError, IndexError or
    # ZeroDivisionError, exit 1), except the reversed interval, which read
    # as the empty set, and the slack, tail and tolerance values, which
    # ran to a verdict that could not fail or could not pass
    @pytest.mark.parametrize(
        "command, old, new, named",
        [
            ("coverage", "coverage_replications = 1000", "coverage_replications = 0",
             "coverage_replications"),
            ("coverage", "coverage_replications = 1000", "coverage_replications = -2",
             "coverage_replications"),
            ("coverage", "coverage_n = 80", "coverage_n = 1", "coverage_n"),
            ("verify", "rho = 0.1", "rho = 0.1\ntail_grid =", "tail_grid"),
            ("verify", "n_grid = 40, 80", "n_grid = 0, 250", "n_grid"),
            ("verify", "n_grid = 40, 80", "n_grid = 40, inf", "n_grid"),
            ("coverage", "n_grid = 40, 80", "n_grid = nan, 80", "n_grid"),
            ("verify", "n_grid = 40, 80", "n_grid = 2.5, 300", "n_grid"),
            ("verify", "rho = 0.1", "rho = 0.1\nmc_slack = nan", "mc_slack"),
            ("verify", "rho = 0.1", "rho = 0.1\nmc_slack = -1", "mc_slack"),
            ("verify", "rho = 0.1", "rho = 0.1\ntail_threshold = nan", "tail_threshold"),
            ("verify", "rho = 0.1", "rho = 0.1\ntail_threshold = 1.5", "tail_threshold"),
            ("verify", "rho = 0.1", "rho = 0.1\ntail_grid = 0, nan", "tail_grid"),
            ("verify", "rho = 0.1", "rho = 0.1\ntail_grid = 0, 4, 2", "tail_grid"),
            ("verify", "rho = 0.1", "rho = 0.1\ntail_grid = 0, 2, 2", "tail_grid"),
            ("coverage", "coverage_tolerance = 0.03", "coverage_tolerance = inf",
             "coverage_tolerance"),
            ("coverage", "coverage_tolerance = 0.03", "coverage_tolerance = -0.01",
             "coverage_tolerance"),
            ("coverage", "set closed all = [-inf,inf]", "set closed all = [1,-1]",
             "empty interval '[1,-1]'"),
        ],
    )
    def test_bad_value_exit_2_before_computing(self, workdir, capsys, command, old, new, named):
        (workdir / "bad.cfg").write_text(CONFIG_TEXT.replace(old, new))
        out = workdir / "out_bad"
        code = run([command, "--config", str(workdir / "bad.cfg"), "--out", str(out)])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    # noise of sd 20 around a unit jump derives gaussian(1, 40) jumps,
    # whose drift climbs ln(1/eps)/R in 22 105 jumps
    @pytest.mark.parametrize("command", ["verify", "coverage"])
    def test_derived_spec_above_gap_cap_exit_2(self, workdir, capsys, command):
        (workdir / "wide.cfg").write_text(CONFIG_TEXT.replace("gaussian(0, 0.25)", "gaussian(0, 20)"))
        out = workdir / "out_wide"
        code = run([command, "--config", str(workdir / "wide.cfg"), "--out", str(out)])
        assert code == 2
        assert "jump_right = gaussian(1.0, 40.0) cannot be certified" in capsys.readouterr().err
        assert not (out / "DONE").exists()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestReferenceConfigs:
    def test_verify_k1(self, tmp_path):
        out = tmp_path / "verify"
        assert run(["verify", "--config", str(CONFIGS / "verify_k1.cfg"), "--out", str(out)]) == 0
        assert (out / "DONE").read_text() == "DONE\n"
        assert "verdict = pass" in (out / "summary.txt").read_text().splitlines()

    def test_verify_k2(self, tmp_path):
        out = tmp_path / "verify_k2"
        assert run(["verify", "--config", str(CONFIGS / "verify_k2.cfg"), "--out", str(out)]) == 0
        assert (out / "DONE").read_text() == "DONE\n"
        assert "verdict = pass" in (out / "summary.txt").read_text().splitlines()

    def test_coverage_k1(self, tmp_path):
        out = tmp_path / "coverage"
        code = run(["coverage", "--config", str(CONFIGS / "coverage_k1.cfg"), "--out", str(out)])
        assert code == 0
        assert (out / "DONE").read_text() == "DONE\n"
        summary = dict(
            line.split(" = ") for line in (out / "coverage_summary.txt").read_text().splitlines()
        )
        assert float(summary["coverage"]) >= float(summary["target"]) - 0.03


class TestCoverage:
    def test_passes(self, workdir):
        out = workdir / "out_cov"
        code = run(["coverage", "--config", str(workdir / "cfg.txt"), "--out", str(out)])
        assert code == 0
        assert "coverage = " in (out / "coverage_summary.txt").read_text()

    def test_tolerance_one_always_passes(self, workdir):
        text = CONFIG_TEXT.replace("coverage_tolerance = 0.03", "coverage_tolerance = 1.0")
        (workdir / "cfg_tol.txt").write_text(text)
        out = workdir / "out_tol"
        code = run(["coverage", "--config", str(workdir / "cfg_tol.txt"), "--out", str(out)])
        assert code == 0

    def test_workers_do_not_change_reports(self, workdir):
        assert_workers_do_not_change(
            workdir, "coverage", ("coverage_summary.txt", "coverage_rows.csv")
        )

    def test_unwritable_output(self, workdir):
        blocker = workdir / "blocker"
        blocker.write_text("a file, not a directory")
        code = run(
            ["coverage", "--config", str(workdir / "cfg.txt"), "--out", str(blocker / "sub")]
        )
        assert code == 2


def test_console_entry_point(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "stepargmin.cli", "fit", "--data", str(workdir / "data.csv"),
         "--k", "1", "--out", str(workdir / "proc_out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (workdir / "proc_out" / "DONE").exists()
