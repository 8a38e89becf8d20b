import json
import subprocess
import sys

import pytest

from sigeo.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fisher_matrix_bernoulli(capsys):
    code, out, _ = run_cli(
        ["fisher-matrix", "--model", "bernoulli", "--theta", "0.5", "--no-timestamp"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [[pytest.approx(4.0)]]
    assert payload["rank"] == 1


def test_distance_summary_and_curve(tmp_path, capsys):
    curve_path = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        [
            "distance", "--model", "bernoulli", "--from", "0.25", "--to", "0.75",
            "--no-timestamp", "--emit-curve", str(curve_path),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == pytest.approx(1.0472, abs=1e-3)
    lines = curve_path.read_text().splitlines()
    assert lines[0].split() == ["t", "theta0", "speed"]
    assert len(lines) == 66


def test_tv_check_exit_codes(capsys):
    code, out, _ = run_cli(
        ["tv-check", "--model", "bernoulli", "--from", "0.25", "--to", "0.75", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["converged"] is True
    assert payload["iterations"] == 0  # 1-parameter paths need no descent


def test_summary_determinism(capsys):
    args = ["dpi-sweep", "--model", "categorical:3", "--draws", "20", "--seed", "5", "--no-timestamp"]
    code1, out1, _ = run_cli(list(args), capsys)
    code2, out2, _ = run_cli(list(args), capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("SIGEO_SEED", "77")
    code, out, _ = run_cli(
        ["dpi-sweep", "--model", "categorical:3", "--draws", "5", "--no-timestamp"], capsys
    )
    assert code == 0
    assert json.loads(out)["seed"] == 77


def test_malformed_config_names_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": "bernoulli", "bogus_key": 1}')
    code, out, err = run_cli(
        ["fisher-matrix", "--model", "bernoulli", "--theta", "0.5", "--config", str(cfg)], capsys
    )
    assert code == 1
    assert "bogus_key" in err


def test_config_file_fills_defaults_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"draws": 7, "seed": 3}')
    code, out, _ = run_cli(
        ["dpi-sweep", "--model", "categorical:3", "--config", str(cfg), "--no-timestamp"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["draws"] == 7
    assert payload["seed"] == 3
    # an explicit flag beats the file value
    code, out, _ = run_cli(
        ["dpi-sweep", "--model", "categorical:3", "--draws", "11",
         "--config", str(cfg), "--no-timestamp"], capsys
    )
    assert json.loads(out)["draws"] == 11


def test_pushforward_with_kernel_file(tmp_path, capsys):
    kernel = tmp_path / "k.json"
    kernel.write_text(json.dumps({"rows": [[1.0, 0.0], [1.0, 0.0]]}))
    code, out, _ = run_cli(
        [
            "pushforward", "--model", "bernoulli", "--theta", "0.3",
            "--kernel", str(kernel), "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["target_density"] == [pytest.approx(1.0), pytest.approx(0.0)]


def test_weak_demo_emits_table(tmp_path, capsys):
    table = tmp_path / "x.csv"
    code, out, _ = run_cli(["weak-demo", "--no-timestamp", "--emit", str(table)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["worst_exchange_dev"] <= 1e-4
    header = table.read_text().splitlines()[0].split()
    assert header == ["t", "ddt_integral", "velocity_integral", "abs_dev"]


def test_jeffrey_region(capsys):
    code, out, _ = run_cli(
        ["jeffrey", "--model", "bernoulli", "--region", "0.25:0.75", "--no-timestamp"], capsys
    )
    assert code == 0
    assert json.loads(out)["jeffrey"] == pytest.approx(1.0472, abs=1e-3)


def test_cramer_rao_command(capsys):
    code, out, _ = run_cli(
        [
            "cramer-rao", "--model", "bernoulli", "--theta", "0.4", "--n", "5",
            "--estimator", "mean", "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert abs(payload["min_eigenvalue"]) < 1e-8


def test_verify_all_only_filter(capsys):
    code, out, err = run_cli(["verify-all", "--only", "weak", "--no-timestamp"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["criteria"]) == 1
    assert "[PASS]" in err


@pytest.mark.parametrize(
    "argv,kernel,named",
    [
        (["hausdorff", "--model", "bernoulli", "--region", "0.3:0.3"], None, "region"),
        (["hausdorff", "--model", "bernoulli", "--region", "0.25:0.75", "--points", "3"], None, "points"),
        (["fisher-matrix", "--model", "categorical:x", "--theta", "0.3,0.3"], None, "categorical:x"),
        (["fisher-matrix", "--model", "bernoulli", "--theta", "abc"], None, "theta"),
        (["pushforward"], [[1.0, 0.0], [1.0, 0.0]], "rows"),
        (["pushforward"], {"rows": [[0.5, 0.5], [1.0]]}, "rows"),
        (["pushforward"], {"rows": [0.5, 0.5]}, "rows"),
    ],
    ids=["empty-region", "sparse-points", "categorical-atoms", "theta", "kernel-not-object",
         "kernel-ragged", "kernel-1d"],
)
def test_bad_input_exits_1_without_traceback(argv, kernel, named, tmp_path, capsys):
    if kernel is not None:
        path = tmp_path / "k.json"
        path.write_text(json.dumps(kernel))
        argv = argv + ["--model", "bernoulli", "--theta", "0.3", "--kernel", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.strip() and "Traceback" not in err
    assert named in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sigeo.cli", "fisher-matrix", "--model", "bernoulli",
         "--theta", "0.5", "--no-timestamp"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rank"] == 1
