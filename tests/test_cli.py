"""Command-line interface: subcommands, exit codes, emitted files."""
import os
import re
import subprocess
import sys

import pytest

from relevance_sim import cli, engine, harness

BASE_CMD = [sys.executable, "-m", "relevance_sim"]
# Where this process imported the package from, so that a child started in
# another working directory runs the same code.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(cli.__file__))


def _run(*args, cwd=None):
    env = dict(os.environ, RELEVANCE_SIM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH"))))
    return subprocess.run(BASE_CMD + list(args), capture_output=True, text=True,
                          env=env, cwd=cwd)


def test_run_preset_writes_results_and_log(tmp_path):
    out = tmp_path / "out"
    proc = _run("run", "--preset", "fig5", "--out", str(out),
                "--replications", "2", "--slots", "20", "--quiet")
    assert proc.returncode == 0, proc.stderr
    csv_path = out / "results.csv"
    log_path = out / "run.log"
    assert csv_path.is_file() and log_path.is_file()
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("mode,scheme,gamma,")
    assert len(lines) == 1 + 5 * 25  # header + schemes x gammas
    log = log_path.read_text()
    assert "source = fig5" in log
    assert "run.replications = 2  # override" in log
    assert "run.slots = 20  # override" in log
    assert "run.seed = 12345  # default" in log
    assert f"seed_contract = {harness.SEED_CONTRACT}" in log.splitlines()
    assert "rows = 125" in log


def test_run_log_flags_each_key_by_the_last_step_that_changed_it(tmp_path):
    # The preset moves vehicle_count off its default; the flags move the rest.
    out = tmp_path / "fig8"
    proc = _run("run", "--preset", "fig8", "--out", str(out), "--replications", "2",
                "--slots", "8", "--seed", "12345", "--quiet")
    assert proc.returncode == 0, proc.stderr
    log = (out / "run.log").read_text().splitlines()
    assert "scene.vehicle_count = 4  # config" in log
    assert "run.replications = 2  # override" in log
    assert "run.seed = 12345  # default" in log  # the flag changed nothing
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("run.schemes = RM\nrun.gammas = 1\nrun.replications = 2\n"
                   "run.slots = 8\nrun.seed = 7\n")
    out = tmp_path / "cfg"
    proc = _run("run", "--config", str(cfg), "--out", str(out), "--replications", "2",
                "--seed", "12345", "--quiet")
    assert proc.returncode == 0, proc.stderr
    log = (out / "run.log").read_text().splitlines()
    assert "run.replications = 2  # config" in log  # equal to the configured value
    assert "run.seed = 12345  # override" in log  # puts back the default the file changed


def test_config_file_that_is_not_utf8_exits_2(tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"run.seed = 7\n# \xff\n")
    out = tmp_path / "o"
    for args in (("validate", "--config", str(cfg)),
                 ("run", "--config", str(cfg), "--out", str(out))):
        proc = _run(*args)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: cannot read config file: ")
        assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_config_file_with_a_byte_order_mark_reads_as_without(tmp_path):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfrun.replications = 2\nrun.slots = 8\n"
                    b"run.schemes = RM\nrun.gammas = 1\n")
    proc = _run("validate", "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr
    assert "run.replications = 2  # config" in proc.stdout.splitlines()
    out = tmp_path / "o"
    proc = _run("run", "--config", str(cfg), "--out", str(out), "--quiet")
    assert proc.returncode == 0, proc.stderr
    assert (out / "results.csv").read_text().splitlines()[1].startswith("unicast,RM,1,2,")


def test_run_is_deterministic_across_processes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        proc = _run("run", "--preset", "fig6", "--out", str(out),
                    "--replications", "2", "--slots", "20", "--quiet")
        assert proc.returncode == 0, proc.stderr
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


def test_run_with_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scene.vehicle_count = 4\nrun.gammas = 2,4\n"
                   "run.schemes = RM\nrun.replications = 2\nrun.slots = 24\n")
    out = tmp_path / "out"
    proc = _run("run", "--config", str(cfg), "--out", str(out), "--quiet")
    assert proc.returncode == 0, proc.stderr
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("broadcast,RM,2,")
    assert lines[2].startswith("broadcast,RM,4,")


def test_usage_errors_exit_1(tmp_path):
    assert _run().returncode == 1                      # no subcommand
    assert _run("frobnicate").returncode == 1          # unknown subcommand
    assert _run("run").returncode == 1                 # neither preset nor config
    assert _run("run", "--preset", "fig99",
                "--out", str(tmp_path)).returncode == 1
    cfg = tmp_path / "c.cfg"
    cfg.write_text("")
    assert _run("run", "--preset", "fig5", "--config", str(cfg),
                "--out", str(tmp_path)).returncode == 1  # mutually exclusive


def test_oracle_bad_arguments_are_usage_errors():
    for args in (("--instances", "-5"), ("--instances", "0"), ("--seed", "-1")):
        proc = _run("oracle", *args)
        assert proc.returncode == 1, proc.stdout
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith(
            f"relevance-sim oracle: error: argument {args[0]}: must be >= ")
        assert proc.stdout == ""


def test_config_errors_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("relevance.delta_L = 1.4\n")
    proc = _run("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    missing = _run("run", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o2"))
    assert missing.returncode == 2


def test_steep_estimation_curve_runs(tmp_path):
    # exp(-a5 * (c - a6)) overflows for every count below a6 = 26.
    cfg = tmp_path / "steep.cfg"
    cfg.write_text("estimation.a5 = 1000\nrun.replications = 2\nrun.slots = 20\n"
                   "run.gammas = 1,3\n")
    out = tmp_path / "o"
    proc = _run("run", "--config", str(cfg), "--out", str(out), "--quiet")
    assert proc.returncode == 0, proc.stderr
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 5 * 2
    semantic = [line.split(",") for line in lines if line.split(",")[1] == "Semantic"]
    mean_eps = lines[0].split(",").index("mean_eps")
    assert len(semantic) == 2
    assert all(0.0 <= float(row[mean_eps]) <= 1.0 for row in semantic)


def test_flat_detection_curve_runs_silently(tmp_path, monkeypatch):
    # a1 = 0 makes P = 1 at every distance, although exp(100 * (d - 60))
    # overflows a float beyond about 67 m.
    text = ("scene.detection_a1 = 0\nscene.detection_a2 = -100\nrun.replications = 2\n"
            "run.slots = 20\nrun.gammas = 1,3\n")
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(text)
    proc = _run("run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet")
    assert (proc.returncode, proc.stderr) == (0, "")
    probs = []
    detect = engine.detection_probability_vector

    def recording_detect(*args):
        probs.append(detect(*args))
        return probs[-1]

    monkeypatch.setattr(engine, "detection_probability_vector", recording_detect)
    monkeypatch.setenv("RELEVANCE_SIM_THREADS", "1")
    harness.run_sweep(harness.parse_config(text))
    assert probs and all((p == 1.0).all() for p in probs)


def test_non_finite_config_exits_2_before_running(tmp_path):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("scene.width = nan\nrun.slots = 8\n")
    out = tmp_path / "o"
    for args in (("run", "--config", str(cfg), "--out", str(out)),
                 ("validate", "--config", str(cfg))):
        proc = _run(*args)
        assert proc.returncode == 2, proc.stderr
        assert "scene.width" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_failing_episode_exits_4_naming_the_cell(tmp_path, monkeypatch, capsys, threads):
    # Forked workers inherit the patched episode. Cells finish in any order on
    # two workers, so there the failing cell is not pinned, only the line's shape.
    def broken(config, rng):
        raise ArithmeticError("injected fault")

    monkeypatch.setenv("RELEVANCE_SIM_THREADS", threads)
    monkeypatch.setattr(harness, "run_episode_accumulator", broken)
    out = tmp_path / "o"
    code = cli.main(["run", "--preset", "fig5", "--out", str(out),
                     "--replications", "2", "--slots", "20", "--quiet"])
    assert code == cli.RUN_FAILED == 4
    err = capsys.readouterr().err
    if threads == "1":
        assert err == ("run failed: episode failed: scheme=Baseline gamma=1 replication=0: "
                       "ArithmeticError('injected fault')\n")
    assert re.fullmatch(r"run failed: episode failed: scheme=\w+ gamma=\d+ replication=0: "
                        r"ArithmeticError\('injected fault'\)\n", err), err
    assert "RemoteTraceback" not in err
    assert not out.exists()  # no empty --out left behind


def test_out_that_cannot_be_written_is_a_usage_error_before_any_cell(tmp_path, monkeypatch,
                                                                     capsys):
    # Root may write anywhere, so the refusal is shown through os.access.
    def episode(config, rng):
        raise AssertionError("no cell may run")

    access = os.access
    monkeypatch.setattr(cli.os, "access", lambda path, mode: path != str(tmp_path)
                        and access(path, mode))
    monkeypatch.setenv("RELEVANCE_SIM_THREADS", "1")
    monkeypatch.setattr(harness, "run_episode_accumulator", episode)
    for out in (tmp_path / "o", tmp_path / "o" / "sub"):
        code = cli.main(["run", "--preset", "fig5", "--out", str(out),
                         "--replications", "1", "--slots", "4"])
        assert code == cli.USAGE_ERROR == 1
        assert capsys.readouterr().err == f"error: --out {out} is not writable\n"
    assert not any(tmp_path.iterdir())


def test_bad_worker_count_exits_2(tmp_path, monkeypatch, capsys):
    # Not an integer, and integers that would leave no worker.
    for raw in ("abc", "0", "-1"):
        monkeypatch.setenv("RELEVANCE_SIM_THREADS", raw)
        out = tmp_path / "o"
        code = cli.main(["run", "--preset", "fig5", "--out", str(out),
                         "--replications", "2", "--slots", "20", "--quiet"])
        assert code == cli.CONFIG_ERROR == 2, raw
        err = capsys.readouterr().err
        assert f"config error: RELEVANCE_SIM_THREADS must be an integer >= 1, got {raw!r}" in err
        assert not out.exists()  # no empty --out left behind


def test_out_of_range_override_exits_2_naming_its_key(tmp_path, monkeypatch, capsys):
    def episode(*args):
        raise AssertionError("an episode ran")

    monkeypatch.setenv("RELEVANCE_SIM_THREADS", "1")
    monkeypatch.setattr(harness, "run_episode_accumulator", episode)
    out = tmp_path / "o"
    for flag, raw, key in (("--seed", "-1", "run.seed"), ("--slots", "3", "run.slots"),
                           ("--replications", "0", "run.replications")):
        code = cli.main(["run", "--preset", "fig5", "--out", str(out), flag, raw, "--quiet"])
        assert code == cli.CONFIG_ERROR == 2, flag
        assert capsys.readouterr().err.startswith(f"config error: {key} must "), flag
        assert not out.exists()


def test_out_naming_a_file_is_a_usage_error_before_any_cell(tmp_path):
    taken = tmp_path / "results.txt"
    taken.write_text("keep me\n")
    for out in (taken, taken / "sub"):
        proc = _run("run", "--preset", "fig5", "--out", str(out),
                    "--replications", "1", "--slots", "4")
        assert proc.returncode == 1
        # One line: no traceback, no progress line.
        assert proc.stderr == f"error: --out {out} is not a directory\n"
    assert taken.read_text() == "keep me\n"
    # An empty --out would resolve to the working directory until os.makedirs("").
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    proc = _run("run", "--preset", "fig5", "--out", "", "--replications", "1", "--slots", "4",
                cwd=cwd)
    assert proc.returncode == 1
    assert proc.stderr == "error: --out must not be empty\n"
    assert not any(cwd.iterdir())


def test_validate_echoes_resolved_config(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("run.seed = 777\nrun.slots = 400\n")
    proc = _run("validate", "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr
    assert "run.seed = 777  # config" in proc.stdout
    assert "run.slots = 400  # default" in proc.stdout  # set, but to its default
    assert "scene.object_count = 110  # default" in proc.stdout
    # The seed contract is a comment, so the listing still parses back.
    assert proc.stdout.splitlines()[0] == f"# seed_contract = {harness.SEED_CONTRACT}"
    assert harness.parse_config(proc.stdout) == harness.parse_config(cfg.read_text())
    bad = tmp_path / "vbad.cfg"
    bad.write_text("nonsense here\n")
    assert _run("validate", "--config", str(bad)).returncode == 2
    # A range too large to build is a bad value naming its line, not a traceback.
    for raw in ("1..1000000000000000000", "1..100000000000000000000"):
        bad.write_text(f"run.gammas = {raw}\n")
        proc = _run("validate", "--config", str(bad))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: line 1: bad value for run.gammas: "), proc.stderr


def test_oracle_subcommand(tmp_path):
    proc = _run("oracle", "--instances", "50", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    assert "0 mismatches" in proc.stdout
