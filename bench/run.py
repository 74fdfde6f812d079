"""Run one fqx benchmark workload and print its metrics.

    python3 bench/run.py --workload exhaustive-scan --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: the library is imported from `./src`,
never from an installed copy.  Workloads: exhaustive-scan, sampled-rows,
frobenius-spectra (see bench/README.md).

The run repeats whole rounds of the workload's operations, one after the
other in this process, until `--seconds` have passed (at least one round).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the host.  The full record, host included, is also written to
`bench/results/`.

--trace 0 reports the end-to-end metrics:
  setup_s       process start until just before the first timed call
                (interpreter, `import fqx` with numpy, building the inputs)
  solve_s       wall time of one round: the sum over the operations of
                each operation's fastest time across the rounds
  peak_rss_mib  peak resident memory of the process at the end of the
                first round (later rounds reuse that memory; what the
                benchmark keeps for its checks grows with the round count)
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of bench/tracing.py, per traced round, with the spans written to
`bench/results/`.

Outputs are checked for correctness after the timed rounds; `correct` is
false when any check fails.  An operation that raises counts as failed.
"""

import time

_T_IMPORT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import socket  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent


def process_age_s() -> float:
    """Seconds since this process started, from /proc; falls back to the
    time since this module was imported where /proc is not available."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_IMPORT


def load_fqx(root: Path):
    """Import fqx from root/src, refusing any other copy."""
    src = (root / "src").resolve()
    if not (src / "fqx" / "__init__.py").is_file():
        raise SystemExit(f"error: no fqx sources under {src}; "
                         "run from the root of an fqx checkout")
    sys.path.insert(0, str(src))
    import fqx
    if Path(fqx.__file__).resolve().parent != src / "fqx":
        raise SystemExit(f"error: imported fqx from {fqx.__file__}, not {src}")
    return fqx


def host_info() -> dict:
    import numpy as np
    return {
        "hostname": socket.gethostname(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def cold_caches(fqx):
    """Empty the library's module-level memo tables, so that every round
    does the same work as the first."""
    for name, mod in list(sys.modules.items()):
        if name == fqx.__name__ or name.startswith(fqx.__name__ + "."):
            for attr, val in vars(mod).items():
                if attr.endswith("_CACHE") and isinstance(val, dict):
                    val.clear()


def run_round(ops, tracer=None):
    """One round: every operation once.  Returns (seconds per operation,
    outputs, errors)."""
    times, outputs, errors = [], {}, []
    if tracer is not None:
        tracer.on = True
    try:
        for op in ops:
            t0 = time.perf_counter()
            try:
                outputs[op.label] = op.call()
            except Exception:  # an operation that raises is a failed operation
                errors.append(f"{op.label}: {traceback.format_exc(limit=3)}")
            times.append(time.perf_counter() - t0)
        return times, outputs, errors
    finally:
        if tracer is not None:
            tracer.on = False


def round_time(rounds) -> float:
    """Wall time of one round from several: the sum over the operations of
    each one's fastest time.  Noise on a shared host only slows a run down:
    other tenants slow the same operation by up to 1.7x in spells that last
    from one second to more than half of a 20 s run, so the fastest time is
    the steady estimate of the program's own cost; a median round is often
    a slowed one."""
    return sum(min(op) for op in zip(*rounds))


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None, sizes=None, out_dir=None) -> int:
    """Run the benchmark; `sizes` replaces the workload's FULL sizes (the
    self-test passes TINY), `out_dir` replaces bench/results."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    fqx = load_fqx(Path.cwd())
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(fqx, args.seed, sizes if sizes is not None else cls.FULL)
    ops = workload.ops()
    tracer = tracing.Tracer(fqx) if args.trace else None
    setup_s = process_age_s()

    plain, traced, outputs, errors = [], [], [], []  # per round
    cpu_plain = 0.0
    t_start = time.perf_counter()
    while not plain or time.perf_counter() - t_start < args.seconds:
        cold_caches(fqx)
        c0 = time.process_time()
        times, out, err = run_round(ops)
        cpu_plain += time.process_time() - c0
        plain.append(times)
        outputs.append(out)
        errors += err
        if len(plain) == 1:  # a user's invocation is one round
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            cold_caches(fqx)
            times, out, err = run_round(ops, tracer)
            traced.append(times)
            outputs.append(out)
            errors += err

    failures = []
    for out in outputs:
        failures += [f for f in workload.check(out) if f not in failures]

    if tracer is None:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "solve_s": metric(round_time(plain), "s"),
            "peak_rss_mib": metric(peak_rss_mib, "MiB"),
        }
    else:
        units = tracing.metric_units()
        values = tracer.layer_metrics(len(traced))
        values["process.cpu_s"] = cpu_plain / len(plain)
        values["process.trace_overhead_s"] = round_time(traced) - round_time(plain)
        metrics = {name: metric(values[name], unit) for name, unit in units.items()}

    result = {
        "correct": not failures,
        "attempted": len(ops) * len(outputs),
        "failed": len(errors),
        "metrics": metrics,
    }
    host = host_info()
    out_dir = Path(out_dir) if out_dir is not None else BENCH_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host,
        "operations": [op.label for op in ops], "rounds_s": plain,
        "traced_rounds_s": traced, "check_failures": failures,
        "errors": errors, **result,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.json")
    for msg in failures + errors:
        print(f"FAIL {msg}", file=sys.stderr)
    print(json.dumps({"host": host}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
