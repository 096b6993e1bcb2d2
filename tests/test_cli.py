"""Command-line interface: subcommands, exit codes, emitted files."""
import os
import subprocess
import sys

BASE_CMD = [sys.executable, "-m", "relevance_sim"]


def _run(*args, cwd=None):
    env = dict(os.environ, RELEVANCE_SIM_THREADS="1")
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
    assert "rows = 125" in log


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


def test_config_errors_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("relevance.delta_L = 1.4\n")
    proc = _run("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    missing = _run("run", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o2"))
    assert missing.returncode == 2


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


def test_validate_echoes_resolved_config(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("run.seed = 777\n")
    proc = _run("validate", "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr
    assert "run.seed = 777  # config" in proc.stdout
    assert "scene.object_count = 110  # default" in proc.stdout
    bad = tmp_path / "vbad.cfg"
    bad.write_text("nonsense here\n")
    assert _run("validate", "--config", str(bad)).returncode == 2


def test_oracle_subcommand(tmp_path):
    proc = _run("oracle", "--instances", "50", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    assert "0 mismatches" in proc.stdout
