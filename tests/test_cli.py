import json
import os
import re
import shutil
import subprocess
import sys
import tomllib
import tracemalloc
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
                                       ("layers", 0, "seed", -1),
                                       ("units", 0, "counts",
                                        [["conv", "x"], ["conv", 1]]),
                                       ("layers", -1, "units", -1)]:
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


def test_simulate_output_beyond_float32_exits_one(tmp_path, capsys):
    big = tmp_path / "big.bin"
    ts.save_tensor(big, np.full((3, 32, 32), 3e38))
    out_t, ledger = tmp_path / "out.bin", tmp_path / "ledger.csv"
    assert run(["simulate", "--model", "resnet50", "--input-shape", "3x32x32",
                "--boundary", "Layer 3", "--profile", "builtin:resnet50",
                "--input", str(big), "--out-tensor", str(out_t),
                "--ledger", str(ledger)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not out_t.exists() and not ledger.exists()


def test_model_sizes_numpy_cannot_hold_exit_one(tmp_path, capsys):
    # a conv with 10**18 output channels (the next conv reads 10**18): its
    # output and weights are more bytes than numpy can address, so the
    # model is refused when the graph is made, before any array exists
    huge = 10 ** 18
    doc = {"name": "huge", "input_shape": [1, 8, 8],
           "layers": [{"name": "c1", "kind": "Conv2d", "in_channels": 1,
                       "out_channels": huge, "kernel": 3, "stride": 1,
                       "padding": 1},
                      {"name": "c2", "kind": "Conv2d", "in_channels": huge,
                       "out_channels": 2, "kernel": 3, "stride": 1,
                       "padding": 1},
                      {"name": "f", "kind": "Flatten"}],
           "partition_points": [{"label": "A", "boundary": 1},
                                {"label": "B", "boundary": 2}]}
    model = tmp_path / "huge.json"
    model.write_text(json.dumps(doc))
    x = tmp_path / "x.bin"
    ts.save_tensor(x, np.zeros((1, 8, 8)))
    for args in (["enumerate", "--model", str(model)],
                 ["simulate", "--model", str(model), "--boundary", "A",
                  "--profile", "builtin:vgg16", "--input", str(x)]):
        tracemalloc.start()
        try:
            code = run(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1, args[0]
        captured = capsys.readouterr()
        assert captured.out == "", args[0]
        assert captured.err == ("error: layer 'c1': output shape "
                                f"({huge}, 8, 8) is more than numpy can "
                                "hold\n"), args[0]
        assert peak < 1 << 20, (args[0], peak)
    # weights alone can be too many: a 1x1 conv from 2 channels to 10**18
    # has an output numpy holds (8e18 bytes) and 2e18 weights it does not
    doc["input_shape"] = [1, 1, 1]
    for layer in doc["layers"][:2]:
        layer.update(kernel=1, padding=0)
    doc["layers"][0]["out_channels"] = doc["layers"][1]["in_channels"] = 2
    doc["layers"][1]["out_channels"] = huge
    model.write_text(json.dumps(doc))
    assert run(["enumerate", "--model", str(model)]) == 1
    assert capsys.readouterr().err == (
        f"error: layer 'c2': w shape ({huge}, 2, 1, 1) is more than numpy "
        "can hold\n")


@pytest.mark.filterwarnings("error")  # no numpy warning precedes the error
def test_non_finite_engine_results_exit_one(tmp_path, capsys):
    # 1060 chained doublings: 1e30 overflows past the cut at 530, and an
    # image of ones overflows before the cut at 1050
    n = 1060
    doc = {"name": "dbl", "input_shape": [1, 4, 4],
           "layers": [{"name": f"a{i}", "kind": "Add", "skip_source": i - 1}
                      for i in range(n)],
           "partition_points": [{"label": "P", "boundary": 530},
                                {"label": "Q", "boundary": 1050}]}
    model = tmp_path / "dbl.json"
    model.write_text(json.dumps(doc))
    big = tmp_path / "x.bin"
    ts.save_tensor(big, np.full((1, 4, 4), 1e30))
    images = tmp_path / "imgs"
    images.mkdir()
    ts.save_tensor(images / "ones.bin", np.ones((1, 4, 4)))
    for args in (["simulate", "--model", str(model), "--boundary", "P",
                  "--profile", "builtin:vgg16", "--input", str(big)],
                 ["attack", "--model", str(model), "--boundary", "Q",
                  "--images", str(images), "--steps", "3"]):
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "non-finite" in captured.err
        assert captured.err.count("\n") == 1


def test_bom_prefixed_csv_inputs_read_as_without(tmp_path, capsys):
    toy = ["--model", "toy3", "--input-shape", "1x16x16"]
    meas = b"label,total_seconds\nL1,0.3\nL3,0.9\n"
    priv = (b"boundary,label,mean_ssim,n_samples,below_threshold\n"
            b"1,L1,0.8,2,0\n2,L2,0.3,2,0\n3,L3,0.1,2,1\n")
    prof, svg = tmp_path / "prof.json", tmp_path / "chart.svg"
    seen = []
    for bom in (b"", b"\xef\xbb\xbf"):
        (tmp_path / "meas.csv").write_bytes(bom + meas)
        (tmp_path / "privacy.csv").write_bytes(bom + priv)
        assert run(["calibrate", *toy, "--measurements",
                    str(tmp_path / "meas.csv"), "--full-enclave", "1.0",
                    "--full-accelerator", "0.05", "--out", str(prof)]) == 0
        assert run(["plan", *toy, "--profile", str(prof), "--privacy",
                    str(tmp_path / "privacy.csv"), "--threshold", "0.2"]) == 0
        assert run(["report", "--privacy", str(tmp_path / "privacy.csv"),
                    "--threshold", "0.2", "--out", str(svg)]) == 0
        seen.append((prof.read_bytes(), capsys.readouterr(), svg.read_bytes()))
    assert seen[0] == seen[1]


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


def test_bad_attack_settings_exit_one(tmp_path, capsys):
    imgs = write_images(tmp_path / "imgs", n=1)
    base = ["evaluate", "--model", "toy4", "--input-shape", "1x16x16",
            "--images", imgs, "--steps", "5"]
    for flags in (["--step-size", "nan"], ["--step-size", "-1"],
                  ["--steps", "-3"], ["--slack", "nan"], ["--threshold", "0"]):
        assert run(base + flags) == 1, flags
        captured = capsys.readouterr()
        assert "optimal partition point" not in captured.out
        assert captured.err.startswith("error: ")


def test_plan_nan_slack_exits_one(tmp_path, capsys):
    priv = tmp_path / "privacy.csv"
    priv.write_text("boundary,label,mean_ssim,n_samples,below_threshold\n"
                    "1,Layer 1,0.1,2,1\n2,Layer 2,0.1,2,1\n3,Layer 3,0.1,2,1\n"
                    "4,Layer 4,0.1,2,1\n5,Layer 5,0.1,2,1\n")
    assert run(["plan", "--model", "resnet50", "--profile", "builtin:resnet50",
                "--privacy", str(priv), "--slack", "nan"]) == 1
    assert "slack" in capsys.readouterr().err


def test_json_model_with_other_input_shape_exits_one(tmp_path, capsys):
    path = tmp_path / "m.json"
    assert run(["build", "--model", "toy3", "--input-shape", "1x16x16",
                "--out", str(path)]) == 0
    assert run(["enumerate", "--model", str(path),
                "--input-shape", "1x16x16"]) == 0
    capsys.readouterr()
    assert run(["enumerate", "--model", str(path),
                "--input-shape", "3x64x64"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "(1, 16, 16)" in captured.err and "(3, 64, 64)" in captured.err


def test_bad_partition_seed_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PARTITION_SEED", "not-a-number")
    imgs = write_images(tmp_path / "imgs", n=1)
    assert run(["attack", "--model", "toy3", "--input-shape", "1x16x16",
                "--boundary", "L1", "--images", imgs, "--steps", "5"]) == 1
    assert "PARTITION_SEED" in capsys.readouterr().err


def test_profile_transfer_not_an_object_exits_one(tmp_path, capsys):
    doc = ts.profile_to_json(ts.builtin_profile("vgg16"))
    doc["transfer"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["predict", "--model", "vgg16", "--profile", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed profile document")
    assert captured.err.count("\n") == 1


def test_missing_input_file_errors(tmp_path, capsys):
    assert run(["simulate", "--model", "toy3", "--input-shape", "1x16x16",
                "--boundary", "L1", "--input", str(tmp_path / "nope.bin"),
                "--profile", "builtin:vgg16"]) == 1
    capsys.readouterr()


def console_script_target():
    """The `module:callable` behind the `teesplit` command.

    Read from `[project.scripts]` in the repo's pyproject.toml.
    """
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


def test_table_bytes_pinned(capsys):
    # the float cells carry 10 significant digits, labels are CSV-quoted
    # and every line ends in "\n"
    report = ts.PrivacyReport(
        model_name="m",
        per_point=(("L1", 0.8, (0.7, 0.9)),
                   ("L 2", 1 / 3, (0.2, 0.4666666666666667, 1 / 3)),
                   ("L3,x", np.float64(0.2), (0.2,)),
                   ("L4", 1.2345678901234e-05, (1e-05,))),
        threshold=0.2, optimal_boundary=None)
    assert ts.report_to_csv(report) == (
        "boundary,label,mean_ssim,n_samples,below_threshold\n"
        "1,L1,0.8,2,0\n"
        "2,L 2,0.3333333333,3,0\n"
        '3,"L3,x",0.2,1,1\n'
        "4,L4,1.23456789e-05,1,1\n")

    model = ts.build_architecture("resnet50", (3, 224, 224))
    profile = ts.builtin_profile("resnet50")
    plans = [ts.plan(ts.PlanRequest(
        model_name=model.name, profile=profile,
        scores=tuple(zip(model.labels(), scores)),
        assignments=tuple(ts.enumerate_partitions(model))))
        for scores in ((0.9, 0.3, 0.19, 0.1, 0.05), (0.9,) * 5)]
    assert ts.plan_table_csv(plans) == (
        "model,partition_points,optimal_point,full_enclave_seconds,"
        "partitioned_seconds,speedup_percent\n"
        "resnet50,5,Layer 3,4.02,3.04,24.37810945\n"
        "resnet50,5,full-enclave,4.02,4.02,0\n")

    assert run(["predict", "--model", "resnet50",
                "--profile", "builtin:resnet50"]) == 0
    assert capsys.readouterr().out == (
        "boundary_label,enclave_seconds,transfer_seconds,accelerator_seconds,"
        "total_seconds,speedup_percent\n"
        "Layer 1,0.1933345247,0.03142857143,0.04854432668,0.2733074228,"
        "93.20130789\n"
        "Layer 2,1.287925301,0.1,0.04030282613,1.428228127,64.47193713\n"
        "Layer 3,2.957985844,0.05428571429,0.02772844201,3.04,24.37810945\n"
        "Layer 4,3.558697539,0.03142857143,0.009873889416,3.6,10.44776119\n"
        "Layer 5,4.018835261,0.02,2.493051428e-05,4.038860191,-0.4691589841\n")

    assert run(["enumerate", "--model", "resnet50",
                "--input-shape", "3x64x64"]) == 0
    assert capsys.readouterr().out == (
        "label,boundary,exposed_shape,exposed_bytes,enclave,accelerator\n"
        "Layer 1,4,64x16x16,65536,1 conv,48 conv + 1 FC\n"
        "Layer 2,36,256x16x16,262144,10 conv,39 conv + 1 FC\n"
        "Layer 3,78,512x8x8,131072,22 conv,27 conv + 1 FC\n"
        "Layer 4,140,1024x4x4,65536,40 conv,9 conv + 1 FC\n"
        "Layer 5,172,2048x2x2,32768,49 conv,1 FC\n")


def test_undecodable_input_files_exit_one(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_bytes(b'{"name": "\xff"}')
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_bytes(b"label,total_seconds\n\xff,1\n")
    toy = ["--model", "toy3", "--input-shape", "1x16x16"]
    for args in (["enumerate", "--model", str(bad_json)],
                 ["predict", *toy, "--profile", str(bad_json)],
                 ["calibrate", *toy, "--measurements", str(bad_csv),
                  "--full-enclave", "1.0", "--full-accelerator", "0.05"],
                 ["plan", *toy, "--profile", "builtin:vgg16",
                  "--privacy", str(bad_csv)],
                 ["report", "--privacy", str(bad_csv),
                  "--out", str(tmp_path / "r.svg")]):
        assert run(args) == 1, args[0]
        captured = capsys.readouterr()
        assert captured.out == "", args[0]
        assert captured.err.startswith("error: "), args[0]
        assert captured.err.count("\n") == 1, args[0]
        assert "Traceback" not in captured.err, args[0]


@pytest.mark.parametrize("threshold", ["nan", "0", "-1"])
def test_attack_and_report_check_threshold(tmp_path, capsys, monkeypatch,
                                           threshold):
    imgs = write_images(tmp_path / "imgs", n=1)
    # the rule is checked before any attack runs
    monkeypatch.setattr(ts.cli, "score_boundary", None)
    out = tmp_path / "a.csv"
    assert run(["attack", "--model", "toy4", "--input-shape", "1x16x16",
                "--images", imgs, "--boundary", "L1", "--steps", "3",
                "--threshold", threshold, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: threshold must be positive\n"
    assert not out.exists()

    priv = tmp_path / "privacy.csv"
    priv.write_text("boundary,label,mean_ssim,n_samples,below_threshold\n"
                    "1,L1,0.8,2,0\n2,L2,0.1,2,1\n")
    svg = tmp_path / "chart.svg"
    assert run(["report", "--privacy", str(priv), "--threshold", threshold,
                "--out", str(svg)]) == 1
    assert capsys.readouterr().err == "error: threshold must be positive\n"
    assert not svg.exists()
    # without --threshold the chart has no threshold line to check
    assert run(["report", "--privacy", str(priv), "--out", str(svg)]) == 0
