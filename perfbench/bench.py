#!/usr/bin/env python3
"""teesplit benchmark runner.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1

Before numpy loads it pins one BLAS thread and turns off numpy's use of
transparent huge pages: each variable of ``pinned_env()`` that is unset is
set to its pinned value; an inherited different value, or an OpenBLAS that
reports another thread count, makes it refuse to run.

One process runs one closed-loop workload (see ``workloads.py``): it sets up
several times from the seed, then repeats the workload's cycle of
operations for ``--seconds``, checks every output after timing, and prints
host facts, every metric by name with its unit, and, as the last line, the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured with no wrapper
installed. The only instrument in that run is the privacy sweep's own
inversion timer: two clock reads per inversion and one list append per PGD
step, through the public ``on_step`` hook. Before each operation, outside
its timing, the runner times the workload's reference routine
(``reference.py``); ``op_ref_ratio`` reports operations in units of it, so
that host-wide slow spells, which slow both alike, cancel out.

``--trace 1`` reports the per-layer metrics instead: after one setup under
tracing it alternates untraced and traced cycles, so tracing overhead and
traced-versus-untraced bitwise equality come from the same process, then
times the per-kind kernel table. Per-layer calls and self
seconds are per cycle; a span that runs only during setup, such as
``tensors.load_image``, is reported for one setup. A layer a workload never
calls reads 0.

Metric names and units are checked against ``BENCHMARK.json`` before the
result is printed.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
IMPORT_SAMPLES = 9
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# numpy asks the kernel for transparent huge pages for large arrays, and
# whether it gets them depends on how fragmented the host's memory is: with
# them, forward_224's peak RSS moved by 5 % from run to run; without, by
# under 0.01 %.
HUGEPAGE_VAR, HUGEPAGE = "NUMPY_MADVISE_HUGEPAGE", "0"
WORKLOAD_NAMES = ("privacy_sweep", "forward_224", "split_sim")


@dataclass
class Record:
    """One timed operation."""
    key: object
    cycle: int
    seconds: float
    out: object
    failed: bool
    ref_s: float | None = None   # reference routine, timed right before


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


# ---------------------------------------------------------------------------
# host facts

def _blas_runtime_threads(numpy):
    """Thread count the loaded OpenBLAS reports, or None if it cannot be
    queried."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def host_facts(args, numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_runtime": _blas_runtime_threads(numpy),
        "numpy_madvise_hugepage": os.environ[HUGEPAGE_VAR],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def pinned_env():
    env = dict.fromkeys(BLAS_THREAD_VARS, BLAS_THREADS)
    env[HUGEPAGE_VAR] = HUGEPAGE
    return env


def require_pinned_blas(host):
    if int(BLAS_THREADS) > host["nproc"]:
        sys.exit(f"refusing to run: {BLAS_THREADS} BLAS threads pinned but "
                 f"only {host['nproc']} processors available")
    runtime = host["blas_threads_runtime"]
    if runtime is not None and runtime != int(BLAS_THREADS):
        sys.exit(f"refusing to run: BLAS reports {runtime} threads, "
                 f"pinned {BLAS_THREADS}")


# ---------------------------------------------------------------------------
# running

def run_cycle(workload, index, records, reference=None):
    """Time each operation of one cycle, back to back; with a reference,
    time it right before each operation too."""
    t_cycle = perf_counter()
    for key, fn in workload.cycle():
        ref_s = reference.seconds() if reference is not None else None
        t0 = perf_counter()
        try:
            out = fn()
        except Exception:
            # a raising operation is a failed operation; the run goes on
            traceback.print_exc(file=sys.stderr)
            out = None
        records.append(Record(key, index, perf_counter() - t0, out,
                              out is None, ref_s))
    return perf_counter() - t_cycle


def check_repeats(workload, records):
    """Every repeat of an operation, traced or not, must reproduce the
    first output bit for bit."""
    first = {}
    for r in records:
        if r.out is not None:
            fp = workload.fingerprint(r.key, r.out)
            if first.setdefault(r.key, fp) != fp:
                r.failed = True


def metric_line(name, value, unit, note=""):
    return f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else "")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_import_seconds():
    """Seconds a fresh interpreter takes to import numpy, teesplit and the
    workloads, as this process did before its first setup."""
    probe = ("import sys, time\n"
             "t0 = time.perf_counter()\n"
             "sys.path[:0] = sys.argv[1:]\n"
             "import workloads\n"
             "print(time.perf_counter() - t0)\n")
    out = subprocess.run(
        [sys.executable, "-c", probe, str(ROOT / "src"), str(ROOT / "perfbench")],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def op_ref_ratio(records):
    """One cycle's work in reference units: for each operation, the median
    of its time over the reference time just before it, summed."""
    ratios = defaultdict(list)
    for r in records:
        if r.out is not None:
            ratios[r.key].append(r.seconds / r.ref_s)
    return sum(statistics.median(v) for v in ratios.values())


def measure_end_to_end(workload, args, import_s):
    from reference import Reference

    reference = Reference(workload.REFERENCE)
    reference.seconds()  # first call allocates
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload.setup()
        setups.append(perf_counter() - t0)
    # The import is repeated in fresh interpreters at even intervals through
    # the run, outside the timed operations, and the median counts: on a
    # shared host, cold-start work such as an import slows by up to half for
    # spells of seconds, and samples taken back to back all land in one
    # spell. Over ten-seed sets the median of the spread-out imports moved
    # less from run to run than their fastest.
    imports = [fresh_import_seconds()]
    records = []
    start = perf_counter()
    probing = 0.0
    cycle = 0
    while cycle == 0 or perf_counter() < start + probing + args.seconds:
        run_cycle(workload, cycle, records, reference)
        cycle += 1
        due = start + probing + len(imports) * args.seconds / IMPORT_SAMPLES
        if perf_counter() >= due:
            t0 = perf_counter()
            imports.append(fresh_import_seconds())
            probing += perf_counter() - t0
    setup_s = statistics.median(imports) + statistics.median(setups)
    check_repeats(workload, records)
    workload.check(records)
    ref_s = [r.ref_s for r in records]
    metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb(), "MB"),
               "op_ref_ratio": (op_ref_ratio(records), "ratio")}
    failed = sum(r.failed for r in records)
    lines = [metric_line("setup_s", setup_s, "s",
                         f"median of {len(imports)} fresh imports "
                         f"({statistics.median(imports):.3f} s) + median of "
                         f"{SETUP_REPEATS} setups "
                         f"({statistics.median(setups):.3f} s)"),
             metric_line("peak_rss_mb", metrics["peak_rss_mb"][0], "MB",
                         "peak resident memory of this process")]
    lines.append(metric_line(
        "op_ref_ratio", metrics["op_ref_ratio"][0], "ratio",
        f"per operation of a cycle, median of its time over the reference "
        f"routine's ({'+'.join(workload.REFERENCE)}, median "
        f"{statistics.median(ref_s) * 1e3:.2f} ms), summed"))
    lines += [metric_line(*row) for row in workload.summary(records)]
    lines.append(metric_line("ops_failed", failed, "count",
                             f"of {len(records)} ops_attempted"))
    samples = {"op_seconds": [[repr(r.key), r.cycle, r.seconds, r.ref_s]
                              for r in records],
               "unit_seconds": workload.unit_times(records),
               "setup_seconds": setups, "import_seconds": imports,
               "own_import_seconds": import_s}
    return records, metrics, lines, samples


def measure_per_layer(workload, args):
    import kernels
    import spans
    import workloads

    setup_rec = spans.Recorder()
    with spans.installed(setup_rec):
        info = workload.setup()
    records, traced_cycles = [], []
    wall = {False: [], True: []}
    deadline = perf_counter() + args.seconds
    cycle = 0
    while cycle == 0 or perf_counter() < deadline:
        # alternate which side of the pair runs first, so drift in machine
        # load does not bias the overhead ratio
        for traced in ((False, True) if cycle % 4 == 0 else (True, False)):
            if not traced:
                wall[False].append(run_cycle(workload, cycle, records))
            else:
                rec = spans.Recorder()
                start = len(records)
                with spans.installed(rec):
                    wall[True].append(run_cycle(workload, cycle, records))
                traced_cycles.append((records[start:], rec))
            cycle += 1
    check_repeats(workload, records)
    workload.check(records)

    setup_calls, setup_self = setup_rec.totals()
    calls, self_s = Counter(), defaultdict(float)
    for _, rec in traced_cycles:
        c, s = rec.totals()
        calls.update(c)
        for name, v in s.items():
            self_s[name] += v
    n = len(traced_cycles)
    layers = {}
    for name in spans.SPAN_NAMES:
        if calls[name]:
            layers[f"{name}.calls"] = (calls[name] / n, "count")
            layers[f"{name}.self_s"] = (self_s[name] / n, "s")
        else:
            layers[f"{name}.calls"] = (setup_calls[name], "count")
            layers[f"{name}.self_s"] = (setup_self[name], "s")
    layers["engine.weights.materialize_s"] = (info["materialize_s"], "s")
    layers["engine.wall_share"] = (
        sum(rec.busy_s("engine.") for _, rec in traced_cycles)
        / sum(wall[True]), "ratio")
    layers["trace.overhead_share"] = (
        statistics.median(wall[True]) / statistics.median(wall[False]),
        "ratio")
    layers.update(workload.layer_extras(traced_cycles))
    for name, unit in workloads.LAYER_EXTRAS.items():
        layers.setdefault(name, (0, unit))

    table = kernels.kernel_table(args.seed)
    for kind, tag, fwd, bwd, _, _ in table:
        layers[f"engine.kernel.{kind}.{tag}.fwd_us"] = (fwd, "us")
        layers[f"engine.kernel.{kind}.{tag}.bwd_us"] = (bwd, "us")
    lines = [metric_line(name, value, unit)
             for name, (value, unit) in layers.items()]
    lines.append("note costs.mac_share_gap.* compares measured forward-time "
                 "shares on this host, not in an enclave")
    lines += [f"kernel {kind} {tag} fwd_us={fwd:.1f} bwd_us={bwd:.1f} "
              f"macs={macs} (computed) bytes={nbytes} (computed: float64 "
              f"input + output + parameters)"
              for kind, tag, fwd, bwd, macs, nbytes in table]
    spans_by_phase = {"setup": setup_rec.spans}
    spans_by_phase.update((f"cycle{i}", rec.spans)
                          for i, (_, rec) in enumerate(traced_cycles))
    return records, layers, lines, {"spans": spans_by_phase}


# ---------------------------------------------------------------------------
# reporting

def declared_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def _number(value):
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
        return int(value)
    return value


def write_outputs(args, host, lines, result, samples):
    """The run's record under .bench_out/: host facts, printed lines, result
    and raw samples, plus one JSON line per span for traced runs."""
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_by_phase = samples.pop("spans", {})
    doc = {"host": host, "lines": lines, "result": result, "samples": samples}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(doc) + "\n")
    if spans_by_phase:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for phase, spans_ in spans_by_phase.items():
                for name, start, end, parent in spans_:
                    fh.write(json.dumps({"phase": phase, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent}) + "\n")


def main(argv=None):
    args = parse_args(argv)
    for var, value in pinned_env().items():  # before numpy loads
        have = os.environ.setdefault(var, value)
        if have != value:
            sys.exit(f"refusing to run: {var}={have}, the benchmark pins "
                     f"{var}={value}")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import teesplit  # noqa: F401
    except ImportError as exc:
        sys.exit(f"cannot import teesplit from {ROOT / 'src'}: {exc}")
    import workloads
    import_s = perf_counter() - T_START

    host = host_facts(args, numpy)
    require_pinned_blas(host)
    e2e_units, layer_units = declared_metrics()
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, str(OUT_DIR))
    if args.trace:
        records, metrics, lines, samples = measure_per_layer(workload, args)
        declared = layer_units
    else:
        records, metrics, lines, samples = measure_end_to_end(
            workload, args, import_s)
        declared = e2e_units
    reported = {name: unit for name, (_, unit) in metrics.items()}
    if reported != declared:
        sys.exit("metrics differ from BENCHMARK.json: "
                 f"{sorted(set(reported.items()) ^ set(declared.items()))}")

    failed = sum(r.failed for r in records)
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed,
              "metrics": {name: {"value": _number(value), "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    write_outputs(args, host, lines, result, samples)
    print("host " + json.dumps(host, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
