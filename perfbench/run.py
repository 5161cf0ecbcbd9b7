"""Benchmark of the ndlogic workbench, driven through its public API.

    python3 perfbench/run.py --workload check-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One client in one thread runs operations as a closed loop: each operation
(load the input, run the library call, render what the CLI prints) starts
when the previous one has finished and been checked.  Inputs come from the
seed, in blocks whose size is the workload's number of fixed operations.
The run makes whole blocks until ``--seconds`` have passed; the printed
sha256 digest covers the first block's rendered outputs.

With ``--trace 0`` the run reports the end-to-end metrics that
BENCHMARK.json names.  Their times are scaled to a reference machine
speed (see calibration.py); the raw times are printed beside them.  With
``--trace 1`` it runs each fixed operation twice, back to back: untraced,
and with spans around each call into ndlogic's layers followed by probes.
It reports the per-layer metrics, in raw seconds, and the tracing overhead
(traced minus untraced time).

The last line of output is one JSON object: correct, attempted, failed,
metrics.  ``correct`` is false when an operation raised or gave a wrong
answer; ``failed`` also counts operations that gave no verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from calibration import NOMINAL_S, Calibration
from spans import NoTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 5
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
SETUP_CODE = """\
import json, time
t0 = time.perf_counter()
import ndlogic.cli
t1 = time.perf_counter()
ndlogic.cli.mci_artifacts()
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""

# traced span name -> per-layer metric holding the spans' summed time
SPAN_METRICS = {
    "serialize.load": "serialize.load_s",
    "language.closure": "language.closure_s",
    "language.fence": "language.fence_s",
    "language.enumerate": "language.enumerate_s",
    "semantics.search_valid": "semantics.search_valid_s",
    "semantics.search_invalid": "semantics.search_invalid_s",
    "semantics.report": "semantics.report_s",
    "calculi.prove": "calculi.prove_s",
    "calculi.pool": "calculi.pool_s",
    "cli.render": "cli.render_s",
    "op": "trace.op_s",
}
LAYERS = ("serialize", "language", "semantics", "calculi", "cli")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# measuring


class Pass:
    """What a sequence of operations gave: their latencies and when they
    ran, failures, and the digest of the fixed operations' outputs."""

    def __init__(self):
        self.latencies: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self.untraced: list[float] = []  # twin latencies in a traced pass
        self.failures: list[tuple[int, str]] = []
        self.wrong = 0
        self.digest = hashlib.sha256()

    def failed_frac(self) -> float:
        return len(self.failures) / len(self.latencies)


def timed_op(wl, item, tr):
    """(start, end, Done or None, traceback or None)"""
    with tr.span("op"):
        t0 = time.perf_counter()
        try:
            done, error = wl.run(item, tr), None
        except Exception:
            done, error = None, traceback.format_exc(limit=-3)
        t1 = time.perf_counter()
    return t0, t1, done, error


def run_ops(wl, items, tr, digest_ops: int, seconds: float = 0.0,
            cal: Calibration | None = None) -> Pass:
    """Run operations on ``items`` in blocks of ``digest_ops`` until
    ``seconds`` have passed at the end of a block, or the items run out.
    The first block's outputs go into the digest.  With a Tracer, each
    operation also runs untraced right before or after its traced run, so
    the pair shares the machine's state of the moment.  With a Calibration,
    its samples run throughout and their time is left out of latencies."""
    from workloads import Failure
    untraced = NoTracer()
    traced = isinstance(tr, Tracer)
    out = Pass()
    start = time.perf_counter()
    with cal.sampling() if cal is not None else nullcontext():
        for i, item in enumerate(items):
            if i and i % digest_ops == 0 and \
                    time.perf_counter() - start >= seconds:
                break
            if traced and i % 2:
                twin = timed_op(wl, item, untraced)
            busy = cal.busy if cal is not None else 0.0
            with wl.traced(tr) if traced else nullcontext():
                t0, t1, done, error = timed_op(wl, item, tr)
            paused = cal.busy - busy if cal is not None else 0.0
            if traced and not i % 2:
                twin = timed_op(wl, item, untraced)
            out.latencies.append(t1 - t0 - paused)
            out.intervals.append((t0, t1))
            if traced:
                out.untraced.append(twin[1] - twin[0])
            if done is not None:
                try:
                    failure = wl.check(item, done, tr)
                    if traced:
                        wl.probe(item, done, tr)
                        if twin[2] is None or twin[2].output != done.output:
                            failure = Failure(True, f"{item.text}: untraced "
                                                    f"run printed something "
                                                    f"else")
                except Exception:
                    error = traceback.format_exc(limit=-3)
            if error is not None:
                out.wrong += 1
                out.failures.append((i, f"{item.text}: raised {error}"))
            elif failure is not None:
                out.wrong += failure.wrong
                out.failures.append((i, failure.message))
            if i < digest_ops:
                rendered = done.output if done is not None else "<raised>\n"
                out.digest.update(f"{item.text}\n{rendered}\n".encode())
    if cal is not None:
        cal.sample()
    return out


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest listed
    percentile that leaves at least ten samples beyond it; the maximum when
    there are too few samples for any."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        k = int(n * p / 100)  # samples at or below the percentile
        if n - k >= 10 and k >= 1:
            return p, xs[k - 1], n - k
    return 100.0, xs[-1], 0


def measure_setup(cal: Calibration | None = None):
    """Import and artifact-building times of fresh interpreters, scaled by
    the calibration samples taken around each one when ``cal`` is given."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports, builds = [], []
    for _ in range(SETUP_RUNS):
        if cal is not None:
            cal.sample()
        t0 = time.perf_counter()
        got = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        t1 = time.perf_counter()
        t_import, t_build = json.loads(got.stdout.splitlines()[-1])
        scale = 1.0
        if cal is not None:
            cal.sample()
            scale = cal.scale(t0, t1)
        imports.append(t_import * scale)
        builds.append(t_build * scale)
    return imports, builds


def run_context(seed: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (SRC / "ndlogic").glob("*.py"))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed, "commit": commit, "src_lines": src_lines}


# ---------------------------------------------------------------------------
# metrics


def latency_metrics(latencies: list[float]) -> tuple[dict, str]:
    pct, tail_s, beyond = tail(latencies)
    n = len(latencies)
    note = (f"p{pct:g}, {beyond} samples beyond it, {n} samples" if beyond
            else f"maximum of {n} samples: too few for a percentile with "
                 f"10 beyond it")
    return {"ops_per_s": n / sum(latencies),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_tail_ms": 1000 * tail_s}, note


def end_to_end(wl, seed: int, seconds: float):
    """(pass, scaled metrics, raw metrics, notes)"""
    cal = Calibration()
    imports, builds = measure_setup(cal)
    p = run_ops(wl, wl.inputs(seed), NoTracer(), wl.fixed_ops, seconds, cal)
    raw, _ = latency_metrics(p.latencies)
    metrics, tail_note = latency_metrics(
        [t * cal.scale(*span) for t, span in zip(p.latencies, p.intervals)])
    metrics["setup_s"] = statistics.median(a + b
                                           for a, b in zip(imports, builds))
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"calibration unit: median {1000 * statistics.median(cal.samples):.4g}"
          f" ms over {len(cal.samples)} samples; times are scaled to "
          f"{1000 * NOMINAL_S:g} ms")
    notes = {"ops_per_s": f"{len(p.latencies)} operations",
             "latency_tail_ms": tail_note,
             "setup_s": f"median of {SETUP_RUNS} fresh interpreters"}
    return p, metrics, raw, notes


def per_layer(wl, seed: int) -> tuple[Pass, dict]:
    imports, builds = measure_setup()
    tr = Tracer()
    p = run_ops(wl, itertools.islice(wl.inputs(seed), wl.fixed_ops), tr,
                wl.fixed_ops)
    total, own = tr.totals(), tr.self_times("op")
    m = {metric: total.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    m["semantics.scan_self_s"] = own.get("semantics.report", 0.0)
    m["calculi.saturation_s"] = m["calculi.prove_s"] - m["calculi.pool_s"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((t for span, t in own.items()
                                    if span.split(".")[0] == layer), 0.0)
    m.update({name: float(n) for name, n in tr.counts.items()})
    m["cli.import_s"] = statistics.median(imports)
    m["logics.artifacts_s"] = statistics.median(builds)
    m["trace.overhead_ms"] = 1000 * (sum(p.latencies)
                                     - sum(p.untraced)) / len(p.latencies)
    if wl.fixed_ops <= 10:
        for line in op_breakdown(tr):
            print(line)
    return p, m


def op_breakdown(tr: Tracer) -> list[str]:
    """One line per operation: each span directly inside it, with the
    summed time of the spans inside that one."""
    children: dict[int, list[int]] = {}
    for i, (_, _, _, parent) in enumerate(tr.spans):
        children.setdefault(parent, []).append(i)

    def inside(i: int, out: dict) -> dict:
        for k in children.get(i, ()):
            name, start, end, _ = tr.spans[k]
            out[name] = out.get(name, 0.0) + end - start
            inside(k, out)
        return out

    lines = []
    for i in children.get(None, ()):
        name, start, end, _ = tr.spans[i]
        if name != "op":
            continue
        parts = []
        for k in children.get(i, ()):
            kname, kstart, kend, _ = tr.spans[k]
            sub = ", ".join(f"{n} {t:.4g} s" for n, t in inside(k, {}).items())
            parts.append(f"{kname} {kend - kstart:.4g} s"
                         + (f" ({sub})" if sub else ""))
        lines.append(f"operation {len(lines)} ({end - start:.4g} s): "
                     + "; ".join(parts))
    return lines


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    import ndlogic
    if not Path(ndlogic.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported ndlogic from {ndlogic.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    wl = WORKLOADS[name](ndlogic.mci_artifacts())
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  "
          f"trace {int(trace)}")
    print("context " + json.dumps(run_context(seed)))
    bench = spec()
    if trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        p, got = per_layer(wl, seed)
        raw, notes = {}, {}
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        p, got, raw, notes = end_to_end(wl, seed, seconds)
    metrics = {name: got.get(name, 0.0) for name in units}
    for metric, value in metrics.items():
        extra = [f"raw {raw[metric]:.6g}"] if metric in raw else []
        extra += [notes[metric]] if metric in notes else []
        print(f"{metric:30s} {value:.6g} {units[metric]}"
              + (f"  ({'; '.join(extra)})" if extra else ""))
    print(f"digest sha256:{p.digest.hexdigest()} (first {wl.fixed_ops} "
          f"operations)")
    print(f"failed_frac {p.failed_frac():.6g} ({len(p.failures)} of "
          f"{len(p.latencies)} operations; {p.wrong} wrong or raised)")
    for i, message in p.failures[:20]:
        print(f"  failed operation {i}: {message}")
    if len(p.failures) > 20:
        print(f"  ... {len(p.failures) - 20} more")
    print(json.dumps({
        "correct": p.wrong == 0,
        "attempted": len(p.latencies),
        "failed": len(p.failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory is its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec()["workloads"]:
        got = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             w["name"], "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(got.stdout)
        sys.stderr.write(got.stderr)
        if got.returncode != 0:
            return got.returncode
        result = json.loads(got.stdout.splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{w['name']}.{k}": v for k, v in
                                   result["metrics"].items()})
        print()
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ndlogic" / "__init__.py").is_file():
        print(f"error: no ndlogic sources under {SRC}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec()["workloads"]]
    if args.workload == "all":
        return run_all(args)
    if args.workload not in names:
        ap.error(f"--workload must be all or one of {', '.join(names)}")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
