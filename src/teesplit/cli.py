"""Command line front end.

Subcommands cover the whole workflow: describe and cut models (build,
enumerate), fit and query cost profiles (calibrate, predict), measure
reconstruction risk (attack, evaluate), choose a partition (plan), run the
split pipeline with trust accounting (simulate), and render charts
(report).

Exit codes: 0 success, 1 usage or input error, 2 constraint violation
(no private partition, trust-zone breach, diverged attack). The default
seed may be set with the PARTITION_SEED environment variable; outputs are
written atomically and depend only on flags and seeds.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from .architectures import resolve_model
from .charts import sweep_chart_svg
from .costs import (CalibrationError, builtin_profile, calibrate, load_profile,
                    predict, profile_to_json)
from .graph import GraphError, enumerate_partitions, model_to_json
from .pipeline import LedgerViolationError, simulate_pipeline
from .planner import PlanError, PlanRequest, plan, plan_table_csv
from .privacy import (DEFAULT_SLACK, DEFAULT_THRESHOLD, AttackConfig,
                      InversionDivergenceError, PrivacyError, PrivacyReport,
                      SsimParams, evaluate_privacy, report_to_csv,
                      score_boundary, scores_from_csv)
from .tensors import (TensorError, load_image, load_tensor, save_tensor,
                      write_text_atomic)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _default_seed():
    raw = os.environ.get("PARTITION_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"PARTITION_SEED must be an integer, got {raw!r}") from None


def _shape(text):
    try:
        dims = tuple(int(d) for d in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}, expected CxHxW")
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"bad shape {text!r}, expected CxHxW")
    return dims


def _emit(out, text):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        write_text_atomic(out, text)


def _load_profile_arg(spec):
    if spec.startswith("builtin:"):
        return builtin_profile(spec.split(":", 1)[1])
    return load_profile(spec)


def _load_images(directory):
    exts = (".pgm", ".ppm", ".bin", ".tensor")
    try:
        names = sorted(n for n in os.listdir(directory)
                       if n.lower().endswith(exts))
    except OSError as exc:
        raise TensorError(f"cannot list image directory: {exc}") from None
    if not names:
        raise TensorError(f"no images (*.pgm, *.ppm, *.bin, *.tensor) "
                          f"in {directory}")
    return [load_image(os.path.join(directory, n)) for n in names]


def _model_from_args(args):
    return resolve_model(args.model, input_shape=args.input_shape,
                         seed=args.seed)


def _add_model_flags(p, default_shape=None):
    p.add_argument("--model", required=True,
                   help="architecture name, toy<N>, or model JSON path")
    p.add_argument("--input-shape", type=_shape, default=default_shape,
                   metavar="CxHxW", help="model input shape")
    p.add_argument("--seed", type=int, default=None,
                   help="weight seed (default: PARTITION_SEED or 0)")


def _add_attack_flags(p):
    p.add_argument("--images", required=True, help="directory of input images")
    p.add_argument("--steps", type=int, default=AttackConfig().steps)
    p.add_argument("--step-size", type=float, default=AttackConfig().step_size)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--slack", type=float, default=DEFAULT_SLACK)


def _breakdown_rows(breakdowns):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["boundary_label", "enclave_seconds", "transfer_seconds",
                "accelerator_seconds", "total_seconds", "speedup_percent"])
    for bd in breakdowns:
        w.writerow([bd.boundary_label, format(bd.enclave_seconds, ".10g"),
                    format(bd.transfer_seconds, ".10g"),
                    format(bd.accelerator_seconds, ".10g"),
                    format(bd.total_seconds, ".10g"),
                    format(100.0 * bd.speedup_vs_full_enclave, ".10g")])
    return buf.getvalue()


def _cmd_build(args):
    model = _model_from_args(args)
    text = json.dumps(model_to_json(model), indent=2) + "\n"
    _emit(args.out, text)
    return 0


def _cmd_enumerate(args):
    model = _model_from_args(args)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["label", "boundary", "exposed_shape", "exposed_bytes",
                "enclave", "accelerator"])
    for a in enumerate_partitions(model):
        w.writerow([a.boundary_label, a.boundary,
                    "x".join(str(d) for d in a.exposed_tensor_shape),
                    a.exposed_tensor_bytes, a.enclave_summary,
                    a.accelerator_summary])
    _emit(args.out, buf.getvalue())
    return 0


def _cmd_calibrate(args):
    model = _model_from_args(args)
    with open(args.measurements, "r", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    try:
        measurements = [(r["label"], float(r["total_seconds"])) for r in rows]
    except (KeyError, TypeError, ValueError):
        raise CalibrationError(
            "measurements CSV needs label,total_seconds columns") from None
    profile = calibrate(model, measurements, args.full_enclave,
                        args.full_accelerator)
    _emit(args.out, json.dumps(profile_to_json(profile), indent=2) + "\n")
    return 0


def _cmd_predict(args):
    model = _model_from_args(args)
    profile = _load_profile_arg(args.profile)
    assignments = enumerate_partitions(model)
    if args.boundary is not None:
        assignments = [a for a in assignments
                       if a.boundary_label == args.boundary]
        if not assignments:
            raise GraphError(f"unknown partition point {args.boundary!r}")
    _emit(args.out, _breakdown_rows(predict(profile, a) for a in assignments))
    return 0


def _attack_cfg(args):
    return AttackConfig(steps=args.steps, step_size=args.step_size,
                        init_seed=args.seed)


def _cmd_attack(args):
    model = _model_from_args(args)
    images = _load_images(args.images)
    model.boundary_of(args.boundary)
    sims = score_boundary(model, model.labels().index(args.boundary), images,
                          _attack_cfg(args), SsimParams())
    mean = float(np.mean(sims))
    report = PrivacyReport(model_name=model.name,
                           per_point=((args.boundary, mean, sims),),
                           threshold=args.threshold,
                           optimal_boundary=None)
    _emit(args.out, report_to_csv(report))
    print(f"{model.name} {args.boundary}: mean similarity "
          f"{mean:.4f} over {len(sims)} images")
    return 0


def _cmd_evaluate(args):
    model = _model_from_args(args)
    images = _load_images(args.images)
    report = evaluate_privacy(model, images, _attack_cfg(args), SsimParams(),
                              threshold=args.threshold, slack=args.slack)
    _emit(args.out, report_to_csv(report))
    if args.svg:
        labels = report.labels()
        series = [("mean similarity", [m for _, m, _ in report.per_point])]
        _emit(args.svg, sweep_chart_svg(labels, ssim_series=series,
                                        threshold=args.threshold))
    if report.optimal_boundary is None:
        print(f"{model.name}: no partition point meets the privacy threshold "
              f"{args.threshold}; keep the full model in the enclave")
    else:
        print(f"{model.name}: optimal partition point "
              f"{report.optimal_boundary}")
    return 0


def _cmd_plan(args):
    model = _model_from_args(args)
    profile = _load_profile_arg(args.profile)
    with open(args.privacy, "r", encoding="utf-8") as fh:
        scores = scores_from_csv(fh.read())
    req = PlanRequest(model_name=model.name, profile=profile,
                      scores=tuple(scores),
                      assignments=tuple(enumerate_partitions(model)),
                      threshold=args.threshold, slack=args.slack)
    result = plan(req)
    _emit(args.out, plan_table_csv([result]))
    if not result.feasible:
        print("no private partition: every boundary leaks above the "
              "threshold; keep the full model in the enclave",
              file=sys.stderr)
        return 2
    return 0


def _cmd_simulate(args):
    model = _model_from_args(args)
    x = load_image(args.input) if args.input.lower().endswith(
        (".pgm", ".ppm")) else load_tensor(args.input)
    profile = _load_profile_arg(args.profile)
    result = simulate_pipeline(model, args.boundary, x, profile)
    if args.out_tensor:
        save_tensor(args.out_tensor, result.output)
    if args.ledger:
        _emit(args.ledger, result.ledger.to_csv())
    sys.stdout.write(result.ledger.to_csv())
    sys.stdout.write(_breakdown_rows([result.breakdown]))
    return 0


def _cmd_report(args):
    with open(args.privacy, "r", encoding="utf-8") as fh:
        scores = scores_from_csv(fh.read())
    labels = [lab for lab, _ in scores]
    ssim_series = [("mean similarity", [s for _, s in scores])]
    runtime_series = None
    if args.profile and args.model:
        model = _model_from_args(args)
        profile = _load_profile_arg(args.profile)
        if model.labels() != labels:
            raise PlanError("privacy report and model cover different "
                            "boundary sets")
        breakdowns = [predict(profile, a) for a in enumerate_partitions(model)]
        runtime_series = [("total seconds", [b.total_seconds for b in breakdowns])]
    _emit(args.out, sweep_chart_svg(labels, ssim_series=ssim_series,
                                    runtime_series=runtime_series,
                                    threshold=args.threshold))
    return 0


def _build_parser():
    parser = _Parser(prog="teesplit",
                     description="Privacy-aware partitioning of CNN inference "
                                 "between a trusted enclave and an untrusted "
                                 "accelerator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit a model graph as JSON")
    _add_model_flags(p)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("enumerate", help="list partition points and exposure")
    _add_model_flags(p)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("calibrate", help="fit a cost profile from measurements")
    _add_model_flags(p)
    p.add_argument("--measurements", required=True,
                   help="CSV with label,total_seconds rows")
    p.add_argument("--full-enclave", type=float, required=True)
    p.add_argument("--full-accelerator", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("predict", help="runtime breakdown per partition point")
    _add_model_flags(p)
    p.add_argument("--profile", required=True,
                   help="profile JSON path or builtin:<arch>")
    p.add_argument("--boundary", help="single partition point (default: all)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("attack", help="invert the exposed map at one boundary")
    _add_model_flags(p)
    p.add_argument("--boundary", required=True)
    _add_attack_flags(p)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_attack)

    p = sub.add_parser("evaluate", help="attack every boundary and pick the "
                                        "optimal partition point")
    _add_model_flags(p)
    _add_attack_flags(p)
    p.add_argument("--out")
    p.add_argument("--svg", help="also render the similarity curve")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("plan", help="choose a partition from privacy scores "
                                    "and a cost profile")
    _add_model_flags(p)
    p.add_argument("--profile", required=True)
    p.add_argument("--privacy", required=True, help="privacy report CSV")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--slack", type=float, default=DEFAULT_SLACK)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("simulate", help="run split inference with trust "
                                        "accounting")
    _add_model_flags(p)
    p.add_argument("--boundary", required=True)
    p.add_argument("--input", required=True, help="input tensor or image file")
    p.add_argument("--profile", required=True)
    p.add_argument("--out-tensor", help="write the output tensor here")
    p.add_argument("--ledger", help="write the trust ledger CSV here")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("report", help="render privacy/runtime charts as SVG")
    p.add_argument("--privacy", required=True)
    p.add_argument("--model")
    p.add_argument("--input-shape", type=_shape, default=None, metavar="CxHxW")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--profile")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InversionDivergenceError, LedgerViolationError) as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return 2
    except (GraphError, TensorError, CalibrationError, PrivacyError,
            PlanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
