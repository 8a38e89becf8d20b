import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # an explicit flag beats the file value, in every spelling
    for flag in (["--draws", "11"], ["--draws=11"], ["--dr", "11"]):
        code, out, _ = run_cli(
            ["dpi-sweep", "--model", "categorical:3", *flag,
             "--config", str(cfg), "--no-timestamp"], capsys
        )
        assert json.loads(out)["draws"] == 11
    for flag in (["--seed", "9"], ["--seed=9"], ["--se", "9"]):
        code, out, _ = run_cli(
            ["dpi-sweep", "--model", "categorical:3", *flag,
             "--config", str(cfg), "--no-timestamp"], capsys
        )
        assert code == 0
        assert json.loads(out)["seed"] == 9
    # required flags and switches can come from the file
    cfg.write_text('{"model": "bernoulli", "theta": 0.5, "no-timestamp": true}')
    code, out, _ = run_cli(["fisher-matrix", "--config", str(cfg)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "bernoulli"
    assert payload["theta"] == [0.5]
    assert "timestamp" not in payload


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
    "argv,extra,named",
    [
        (["hausdorff", "--model", "bernoulli", "--region", "0.3:0.3"], {}, "region"),
        (["hausdorff", "--model", "bernoulli", "--region", "0.25:0.75", "--points", "3"], {}, "points"),
        (["fisher-matrix", "--model", "categorical:x", "--theta", "0.3,0.3"], {}, "categorical:x"),
        (["fisher-matrix", "--model", "bernoulli", "--theta", "abc"], {}, "theta"),
        (["pushforward"], {"kernel": [[1.0, 0.0], [1.0, 0.0]]}, "rows"),
        (["pushforward"], {"kernel": {"rows": [[0.5, 0.5], [1.0]]}}, "rows"),
        (["pushforward"], {"kernel": {"rows": [0.5, 0.5]}}, "rows"),
        (["dpi-sweep", "--model", "categorical:3"], {"config": {"draws": "many"}}, "draws"),
        (["fisher-matrix", "--model", "bernoulli"], {}, "--theta"),
        (["dpi-sweep", "--model", "categorical:3", "--draws", "3"], {"env": "abc"}, "--seed"),
        (["jeffrey", "--model", "bernoulli", "--region", "0.2:inf"], {}, "region"),
        (["jeffrey", "--model", "bernoulli", "--region", "nan:1"], {}, "region"),
        (["fisher-matrix", "--model", "mixture", "--theta", "0.5,1", "--grid", "0"], {}, "grid"),
        (["cramer-rao", "--model", "bernoulli", "--theta", "0.4", "--estimator", "shrinkage:x"], {},
         "shrinkage:x"),
        (["cramer-rao", "--model", "bernoulli", "--theta", "0.4", "--estimator", "constant:abc"], {},
         "constant:abc"),
        (["fisher-matrix", "--model", "bernoulli", "--theta", "0.5,0.2"], {}, "2 coordinates"),
        (["dpi-sweep", "--model", "categorical:3", "--draws", "0"], {}, "--draws"),
        (["metric-axioms", "--model", "bernoulli", "--seed=-1"], {}, "--seed"),
        (["hausdorff", "--model", "bernoulli", "--region", "0.25:0.75", "--points", "101",
          "--k", "nan"], {}, "dimension"),
        (["cramer-rao", "--model", "bernoulli", "--theta", "0.4", "--n", "3", "--draws", "1"], {}, "--draws"),
        (["fisher-matrix", "--model", "bernoulli", "--theta", "0.5", "--grid", "4"], {}, "grid"),
    ],
    ids=["empty-region", "sparse-points", "categorical-atoms", "theta", "kernel-not-object",
         "kernel-ragged", "kernel-1d", "config-draws", "missing-flag", "env-seed", "region-inf",
         "region-nan", "grid-zero", "shrinkage-params", "constant-params", "theta-dimension",
         "draws-zero", "seed-negative", "k-nan", "draws-one", "grid-ungridded"],
)
def test_bad_input_exits_1_without_traceback(argv, extra, named, tmp_path, capsys, monkeypatch):
    if "kernel" in extra:
        path = tmp_path / "k.json"
        path.write_text(json.dumps(extra["kernel"]))
        argv = argv + ["--model", "bernoulli", "--theta", "0.3", "--kernel", str(path)]
    if "config" in extra:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(extra["config"]))
        argv = argv + ["--config", str(path)]
    if "env" in extra:
        monkeypatch.setenv("SIGEO_SEED", extra["env"])
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.strip() and "Traceback" not in err
    assert named in err


def test_unwritable_table_leaves_stdout_empty(tmp_path, capsys):
    table = tmp_path / "missing-dir" / "x.csv"
    code, out, err = run_cli(["weak-demo", "--no-timestamp", "--emit", str(table)], capsys)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err


# Valid requests per subcommand; the fuzzer drops flags and swaps in
# malformed values from the second table.
_FUZZ_VALID = {
    "fisher-matrix": [{"--model": "bernoulli", "--theta": "0.4"},
                      {"--model": "categorical:3", "--theta": "0.2,0.3"},
                      {"--model": "mixture", "--theta": "0.5,1", "--grid": "4"},
                      {"--model": "friedrich", "--theta": "-0.2"},
                      {"--model": "weak-curve", "--theta": "0.3"}],
    "pushforward": [{"--model": "bernoulli", "--theta": "0.3", "--kernel": "two.json"},
                    {"--model": "categorical:3", "--theta": "0.2,0.3", "--kernel": "three.json"}],
    "jeffrey": [{"--model": "bernoulli", "--region": "0.2:0.6"},
                {"--model": "gauss-location", "--region": "-0.5:0.5"},
                {"--model": "friedrich", "--region": "-0.2:0.1"},
                {"--model": "weak-curve", "--region": "0.1:0.4"}],
    "cramer-rao": [{"--model": "bernoulli", "--theta": "0.4", "--n": "3"},
                   {"--model": "categorical:3", "--theta": "0.2,0.3", "--n": "2",
                    "--estimator": "shrinkage:0.5,0.1"},
                   {"--model": "bernoulli", "--theta": "0.6", "--n": "2",
                    "--estimator": "plugin-inverse", "--draws": "40"},
                   {"--model": "bernoulli", "--theta": "0.5", "--n": "1", "--estimator": "constant:0.3"}],
    "weak-demo": [{}, {"--t": "0.3,0.2"}, {"--t": "-0.1"}],
}
_FUZZ_MALFORMED = {
    "--model": ["nope", "categorical:x", "", "mixture", "gauss-location"],
    "--theta": ["abc", "", "0.3,", "nan", "inf", "1.5", "0.5,0.2", "-0.2"],
    "--grid": ["0", "-3", "x"],
    "--kernel": ["ragged.json", "flat.json", "list.json", "missing.json", "three.json"],
    "--region": ["0.6:0.2", "0.2:inf", "nan:1", "a:b", "0.1:0.2:0.3", "0.2:0.5,0.1:0.2", "0.2:1.5", ""],
    "--n": ["0", "-1", "x"],
    "--estimator": ["shrinkage:x", "shrinkage:1", "constant:abc", "constant:0.3,0.4", "bogus"],
    "--draws": ["-1", "x", "1"],
    "--t": ["5", "nan", "x", ""],
    "--seed": ["-1", "abc"],
}


@st.composite
def _fuzz_argv(draw, kernel_dir):
    command = draw(st.sampled_from(sorted(_FUZZ_VALID)))
    flags = {**draw(st.sampled_from(_FUZZ_VALID[command])), "--seed": "7"}
    for flag in sorted(flags):
        roll = draw(st.integers(0, 11))
        if roll == 0:
            del flags[flag]
        elif roll == 1:
            flags[flag] = draw(st.sampled_from(_FUZZ_MALFORMED[flag]))
    if draw(st.integers(0, 11)) == 0:
        flags["--bogus"] = "1"
    if "--kernel" in flags:
        flags["--kernel"] = str(kernel_dir / flags["--kernel"])
    return [command] + [f"{flag}={value}" for flag, value in flags.items()]


def test_fuzz_main_never_tracebacks(tmp_path_factory):
    kernel_dir = tmp_path_factory.mktemp("fuzz-kernels")
    for name, content in {"two.json": {"rows": [[0.6, 0.4], [0.1, 0.9]]},
                          "three.json": {"rows": [[0, 1, 0], [1, 0, 0], [0, 0, 1]]},
                          "ragged.json": {"rows": [[0.5, 0.5], [1.0]]},
                          "flat.json": {"rows": [0.5, 0.5]}, "list.json": [[1.0, 0.0]]}.items():
        (kernel_dir / name).write_text(json.dumps(content))

    @settings(max_examples=60, deadline=None)
    @given(_fuzz_argv(kernel_dir))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--no-timestamp"])
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
        if code == 1:
            assert out.getvalue() == "", argv
            return
        payload = json.loads(out.getvalue())
        if argv[0] == "cramer-rao":
            assert payload["holds"] is (code == 0), argv

    check()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sigeo.cli", "fisher-matrix", "--model", "bernoulli",
         "--theta", "0.5", "--no-timestamp"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rank"] == 1
