import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import teesplit as ts

from conftest import smooth_images


def write_images(directory, n=2, shape=(1, 16, 16), seed=0):
    directory.mkdir(exist_ok=True)
    for i, img in enumerate(smooth_images(n, shape, seed)):
        ts.save_tensor(directory / f"img{i}.bin", img)
    return str(directory)


def run(args):
    return ts.main(list(args))


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["plan", "--help"]) == 0
    capsys.readouterr()


def test_usage_errors_exit_one(capsys):
    assert run([]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["build"]) == 1                       # missing --model
    assert run(["build", "--model", "toy3", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_build_emits_loadable_model(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run(["build", "--model", "toy3", "--input-shape", "1x16x16",
                "--out", str(out)]) == 0
    m = ts.load_model(out)
    assert m.labels() == ["L1", "L2", "L3"]
    assert m.input_shape == (1, 16, 16)


def test_build_unknown_model_exits_one(capsys):
    assert run(["build", "--model", "nope99"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_model_json_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for section, index, key, value in [("layers", 1, "source", "x"),
                                       ("layers", 0, "name", [1]),
                                       ("partition_points", 0, "label", {"a": 1}),
                                       ("layers", 0, "seed", -1)]:
        doc = ts.model_to_json(ts.build_toy_cnn(points=3, input_shape=(1, 16, 16)))
        doc[section][index][key] = value
        bad.write_text(json.dumps(doc))
        assert run(["enumerate", "--model", str(bad)]) == 1, key
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


def test_enumerate_stdout_csv(capsys):
    assert run(["enumerate", "--model", "toy3",
                "--input-shape", "1x16x16"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "label,boundary,exposed_shape,exposed_bytes,enclave,accelerator"
    assert len(lines) == 4


def test_calibrate_predict_round_trip(tmp_path, capsys):
    meas = tmp_path / "meas.csv"
    meas.write_text("label,total_seconds\nL1,0.3\nL3,0.9\n")
    prof_path = tmp_path / "prof.json"
    assert run(["calibrate", "--model", "toy3", "--input-shape", "1x16x16",
                "--measurements", str(meas), "--full-enclave", "1.0",
                "--full-accelerator", "0.05", "--out", str(prof_path)]) == 0
    prof = ts.load_profile(prof_path)
    assert prof.labels() == ["L1", "L2", "L3"]
    capsys.readouterr()
    assert run(["predict", "--model", "toy3", "--input-shape", "1x16x16",
                "--profile", str(prof_path)]) == 0
    out = capsys.readouterr().out
    rows = out.strip().split("\n")
    assert rows[0].startswith("boundary_label,")
    assert len(rows) == 4


def test_predict_builtin_profile(capsys):
    assert run(["predict", "--model", "vgg16", "--profile", "builtin:vgg16",
                "--boundary", "Layer 8"]) == 0
    out = capsys.readouterr().out
    row = out.strip().split("\n")[1].split(",")
    assert row[0] == "Layer 8"
    assert float(row[4]) == pytest.approx(1.4, abs=1e-9)


def test_predict_profile_model_mismatch_exits_one(capsys):
    assert run(["predict", "--model", "toy3", "--input-shape", "1x16x16",
                "--profile", "builtin:vgg16"]) == 1
    capsys.readouterr()


def test_evaluate_then_plan_feasible(tmp_path, capsys):
    imgs = write_images(tmp_path / "imgs", n=2)
    priv = tmp_path / "privacy.csv"
    assert run(["evaluate", "--model", "toy3", "--input-shape", "1x16x16",
                "--images", imgs, "--steps", "60", "--out", str(priv)]) == 0
    capsys.readouterr()
    meas = tmp_path / "meas.csv"
    meas.write_text("label,total_seconds\nL1,0.3\nL3,0.9\n")
    prof_path = tmp_path / "prof.json"
    run(["calibrate", "--model", "toy3", "--input-shape", "1x16x16",
         "--measurements", str(meas), "--full-enclave", "1.0",
         "--full-accelerator", "0.05", "--out", str(prof_path)])
    plan_out = tmp_path / "plan.csv"
    code = run(["plan", "--model", "toy3", "--input-shape", "1x16x16",
                "--profile", str(prof_path), "--privacy", str(priv),
                "--out", str(plan_out)])
    capsys.readouterr()
    text = plan_out.read_text()
    assert text.startswith("model,partition_points,optimal_point,")
    # deep toy boundaries resist inversion, so a plan should exist
    assert code == 0
    assert ",full-enclave," not in text


def test_plan_infeasible_exits_two(tmp_path, capsys):
    priv = tmp_path / "privacy.csv"
    priv.write_text("boundary,label,mean_ssim,n_samples,below_threshold\n"
                    "1,L1,0.9,2,0\n2,L2,0.9,2,0\n3,L3,0.9,2,0\n")
    meas = tmp_path / "meas.csv"
    meas.write_text("label,total_seconds\nL1,0.3\nL3,0.9\n")
    prof_path = tmp_path / "prof.json"
    run(["calibrate", "--model", "toy3", "--input-shape", "1x16x16",
         "--measurements", str(meas), "--full-enclave", "1.0",
         "--full-accelerator", "0.05", "--out", str(prof_path)])
    out = tmp_path / "plan.csv"
    assert run(["plan", "--model", "toy3", "--input-shape", "1x16x16",
                "--profile", str(prof_path), "--privacy", str(priv),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "no private partition" in err
    assert ",full-enclave," in out.read_text()


def test_attack_deterministic_and_seed_sensitive(tmp_path, capsys, monkeypatch):
    imgs = write_images(tmp_path / "imgs", n=2)
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    args = ["attack", "--model", "toy3", "--input-shape", "1x16x16",
            "--boundary", "L2", "--images", imgs, "--steps", "40"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    monkeypatch.setenv("PARTITION_SEED", "99")
    assert run(args + ["--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()
    capsys.readouterr()


def test_attack_row_matches_evaluate_row(tmp_path, capsys):
    imgs = write_images(tmp_path / "imgs", n=2)
    common = ["--model", "toy3", "--input-shape", "1x16x16", "--images", imgs,
              "--steps", "30", "--step-size", "0.1", "--seed", "4"]
    ev = tmp_path / "ev.csv"
    assert run(["evaluate", *common, "--out", str(ev)]) == 0
    header, *rows = ev.read_text().splitlines()
    for row in rows:
        label = row.split(",")[1]
        at = tmp_path / f"{label}.csv"
        assert run(["attack", *common, "--boundary", label,
                    "--out", str(at)]) == 0
        at_header, at_row = at.read_text().splitlines()
        assert at_header == header
        # the attack reports one boundary, so only the row number differs
        assert at_row.split(",")[1:] == row.split(",")[1:]
    capsys.readouterr()


def test_explicit_seed_beats_env(tmp_path, capsys, monkeypatch):
    imgs = write_images(tmp_path / "imgs", n=1)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["attack", "--model", "toy3", "--input-shape", "1x16x16",
            "--boundary", "L1", "--images", imgs, "--steps", "30",
            "--seed", "5"]
    assert run(args + ["--out", str(a)]) == 0
    monkeypatch.setenv("PARTITION_SEED", "1234")
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_simulate_writes_tensor_and_ledger(tmp_path, capsys):
    imgs = tmp_path / "in"
    imgs.mkdir()
    x = smooth_images(1, (1, 16, 16), seed=2)[0]
    xpath = imgs / "x.bin"
    ts.save_tensor(xpath, x)
    meas = tmp_path / "meas.csv"
    meas.write_text("label,total_seconds\nL1,0.3\nL3,0.9\n")
    prof_path = tmp_path / "prof.json"
    run(["calibrate", "--model", "toy3", "--input-shape", "1x16x16",
         "--measurements", str(meas), "--full-enclave", "1.0",
         "--full-accelerator", "0.05", "--out", str(prof_path)])
    out_t = tmp_path / "out.bin"
    ledger = tmp_path / "ledger.csv"
    assert run(["simulate", "--model", "toy3", "--input-shape", "1x16x16",
                "--boundary", "L2", "--input", str(xpath),
                "--profile", str(prof_path), "--out-tensor", str(out_t),
                "--ledger", str(ledger)]) == 0
    stdout = capsys.readouterr().out
    assert "feature_map" in stdout
    m = ts.build_toy_cnn(points=3, input_shape=(1, 16, 16), seed=0)
    got = ts.load_tensor(out_t)
    # the input crossed the f32 wire format once, the output once more
    x32 = ts.load_tensor(xpath)
    want = ts.forward(m, x32).astype(np.float32).astype(np.float64)
    assert np.array_equal(got, want)
    assert ledger.read_text().startswith("step,zone,artifact,bytes\n")


def test_report_svg(tmp_path, capsys):
    priv = tmp_path / "privacy.csv"
    priv.write_text("boundary,label,mean_ssim,n_samples,below_threshold\n"
                    "1,L1,0.8,2,0\n2,L2,0.3,2,0\n3,L3,0.1,2,1\n")
    svg = tmp_path / "chart.svg"
    assert run(["report", "--privacy", str(priv), "--threshold", "0.2",
                "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "Reconstruction similarity" in text
    capsys.readouterr()


def test_report_svg_with_runtime_panel(tmp_path, capsys):
    meas = tmp_path / "meas.csv"
    meas.write_text("label,total_seconds\nL1,0.3\nL3,0.9\n")
    prof_path = tmp_path / "prof.json"
    run(["calibrate", "--model", "toy3", "--input-shape", "1x16x16",
         "--measurements", str(meas), "--full-enclave", "1.0",
         "--full-accelerator", "0.05", "--out", str(prof_path)])
    priv = tmp_path / "privacy.csv"
    priv.write_text("boundary,label,mean_ssim,n_samples,below_threshold\n"
                    "1,L1,0.8,2,0\n2,L2,0.3,2,0\n3,L3,0.1,2,1\n")
    svg = tmp_path / "chart.svg"
    assert run(["report", "--privacy", str(priv), "--model", "toy3",
                "--input-shape", "1x16x16", "--profile", str(prof_path),
                "--out", str(svg)]) == 0
    assert "Predicted runtime" in svg.read_text()
    capsys.readouterr()


def test_bad_partition_seed_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PARTITION_SEED", "not-a-number")
    imgs = write_images(tmp_path / "imgs", n=1)
    assert run(["attack", "--model", "toy3", "--input-shape", "1x16x16",
                "--boundary", "L1", "--images", imgs, "--steps", "5"]) == 1
    assert "PARTITION_SEED" in capsys.readouterr().err


def test_missing_input_file_errors(tmp_path, capsys):
    assert run(["simulate", "--model", "toy3", "--input-shape", "1x16x16",
                "--boundary", "L1", "--input", str(tmp_path / "nope.bin"),
                "--profile", "builtin:vgg16"]) == 1
    capsys.readouterr()


def console_script_target():
    """The `module:callable` behind the `teesplit` command.

    Read from `[project.scripts]` in the repo's pyproject.toml. Without
    tomllib (Python 3.10), read from the installed distribution's
    console_scripts entry points instead.
    """
    try:
        import tomllib
    except ModuleNotFoundError:
        from importlib import metadata
        try:
            metadata.distribution("teesplit")
        except metadata.PackageNotFoundError:
            pytest.importorskip("tomllib")
        eps = metadata.entry_points(group="console_scripts", name="teesplit")
        assert eps, "the teesplit distribution declares no teesplit script"
        return next(iter(eps)).value
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "teesplit" in scripts, "[project.scripts] declares no teesplit"
    return scripts["teesplit"]


def test_console_script_installed(tmp_path):
    target = console_script_target()
    m = re.fullmatch(r"([\w.]+):(\w+)", target)
    assert m, f"not module:callable: {target!r}"
    module, func = m.groups()
    # What pip's generated `teesplit` wrapper runs.
    wrapper = (f"import sys; from {module} import {func}; "
               f"sys.argv[0] = 'teesplit'; sys.exit({func}())")
    args = ["enumerate", "--model", "toy3", "--input-shape", "1x16x16"]
    # The child imports the same teesplit as this process, from any cwd.
    pkg_root = str(Path(ts.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")])))

    def run_command(cmd):
        proc = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=env)
        stderr = proc.stderr.decode(errors="replace")
        assert proc.returncode == 0, f"{cmd} exited {proc.returncode}: {stderr}"
        assert proc.stdout.startswith(b"label,boundary,"), stderr
        return proc.stdout

    out = run_command([sys.executable, "-c", wrapper, *args])
    assert run_command([sys.executable, "-m", "teesplit", *args]) == out
    script = shutil.which("teesplit")
    if script:
        run_command([script, *args])
