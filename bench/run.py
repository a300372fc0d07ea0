"""fnteich benchmark: one workload per invocation, one process, no
worker threads.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 15 --trace 0

Runs the program from the checkout's `src/` (nothing is installed).
With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics; with --trace 1 a separate traced run records
spans around calls into each layer and reports the per-layer metrics
instead, together with the tracing overhead.  Results and traces are
also written under bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

# one process, no worker threads: keep numpy's BLAS pool at one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15


class Measurement:
    """Latencies, work items and operation counts of a measured phase."""

    def __init__(self):
        self.latencies = []
        self.op_s = []
        self.items = 0
        self.item_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, wl, seconds, tr):
        """Whole rounds of wl until `seconds` have passed (at least one)."""
        end = perf_counter() + seconds
        while True:
            t0 = perf_counter()
            out = wl.op(tr)
            elapsed = perf_counter() - t0
            attempted, failed, items, problems = wl.check(out)
            self.op_s.append(elapsed)
            self.latencies += out.get("latencies", [elapsed])
            self.items += items
            self.item_s += out.get("item_s", elapsed)
            self.attempted += attempted
            self.failed += failed
            self.problems += problems
            if problems or perf_counter() >= end:
                return self

    def median_ms(self):
        return statistics.median(self.latencies) * 1e3


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def reference_figures():
    """Context for the result, not metrics: versions, cores, commit and
    the size of the program."""
    import numpy
    texts = [p.read_bytes()
             for p in sorted((ROOT / "src" / "fnteich").glob("*.py"))]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": _commit(),
            # identifies the sources where the checkout has no git data
            "src_sha256": hashlib.sha256(b"".join(texts)).hexdigest(),
            "src_fnteich_lines": sum(t.count(b"\n") for t in texts)}


def _commit():
    """HEAD of the checkout when it is a git work tree, else null."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fnteich" / "__init__.py").is_file():
        print(f"error: no fnteich sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from spans import NullTracer, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    results_dir = ROOT / "bench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)

    opened = []

    def open_workload(cls):
        wl = cls(str(ROOT), args.seed)
        opened.append(wl)
        return wl

    wl = open_workload(workloads.WORKLOADS[args.workload])
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            prog = workloads.load_program()
            wl.setup(prog)
            setup_s.append(perf_counter() - t0)
        problems = wl.prepare()

        if not args.trace:
            m = Measurement().run(wl, args.seconds, NullTracer())
            usage = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" \
                else resource.RUSAGE_SELF
            metrics = {
                "setup_s": _metric(statistics.median(setup_s), "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
                "op_ms": _metric(m.median_ms(), "ms"),
                "items_per_s": _metric(m.items / m.item_s, "1/s"),
            }
            detail = {"ops": len(m.op_s), "latency_samples": len(m.latencies),
                      "latency_quartiles_ms": [
                          q * 1e3 for q in _quartiles(m.latencies)],
                      "setup_samples_s": setup_s}
            measured = [m]
        else:
            half = args.seconds / 2.0
            plain = Measurement().run(wl, half, NullTracer())
            tr = Tracer()
            traced = Measurement().run(wl, half, tr)
            measured = [plain, traced]
            # one traced round of every other workload, so that every
            # layer is reported whichever workload is traced
            others = []
            for name, cls in workloads.WORKLOADS.items():
                if name == args.workload:
                    others.append(wl)
                    continue
                other = open_workload(cls)
                other.setup(prog)
                problems += other.prepare()
                problems += other.check(other.op(tr))[3]
                others.append(other)
            cli = next(w for w in others if w.name == "cli-cold")
            cli.probe(tr)
            metrics = {}
            for w in others:
                metrics.update(w.layer_metrics(tr))
            metrics["trace.overhead_pct"] = (
                traced.median_ms() / plain.median_ms() - 1.0) * 100.0
            missing = [k for k, v in metrics.items() if v is None]
            if missing:
                problems.append(f"no spans recorded for {missing}")
            metrics = {k: _metric(v, _unit(k)) for k, v in metrics.items()}
            trace_path = results_dir / (
                f"trace-{args.workload}-seed{args.seed}.jsonl")
            tr.write(trace_path, {"workload": args.workload,
                                  "seed": args.seed})
            detail = {"trace_file": str(trace_path.relative_to(ROOT)),
                      "untraced_op_ms": plain.median_ms(),
                      "traced_op_ms": traced.median_ms(),
                      "self_ms": {k: v["self_ms"] for k, v in
                                  tr.summary().items()}}
    except Exception:
        traceback.print_exc()
        problems = ["the benchmark stopped on an exception"]
        measured = []
        metrics = {}
        detail = {}
    finally:
        for w in opened:
            if hasattr(w, "close"):
                w.close()

    for m in measured:
        problems += m.problems
    for p in problems[:20]:
        print(f"# problem: {p}", file=sys.stderr)
    result = {
        "correct": not problems and bool(measured),
        "attempted": sum(m.attempted for m in measured) or 1,
        "failed": sum(m.failed for m in measured),
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "reference": reference_figures(), "detail": detail,
              "problems": problems, **result}
    (results_dir / f"result-{args.workload}-seed{args.seed}"
                   f"-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("# " + json.dumps({"reference": record["reference"],
                             "detail": detail}))
    print(json.dumps(result))
    return 0 if measured else 1


def _unit(name):
    for suffix, unit in (("_ns", "ns"), ("_us", "us"), ("_ms", "ms"),
                         ("_s", "s"), ("_pct", "%")):
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
