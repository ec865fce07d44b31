"""Benchmark of ncho: four workloads, end-to-end metrics, traced per-layer timings.

Run from the root of a checkout:

    python3 bench/run.py --workload point-report --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 5       # every workload, one process
    python3 bench/run.py --write-benchmark-json           # regenerate BENCHMARK.json

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The lines before it
print every metric by name with its unit, the run record and the tail
percentile details.  The exit code is 0 only when every output passed
its check.  bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import manifest
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11  # set-up is measured this many times per run; the median is reported
CLI_PROBES = 10
SEGMENT_NS = 1_000_000_000  # request time in one segment of ref_items_per_s
PROBE_TIMEOUT_S = 120


def tail(samples, pct: float) -> tuple:
    """(nearest-rank pct-th percentile, number of samples beyond it)."""
    xs = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


@dataclass
class Measurement:
    starts_ns: list = field(default_factory=list)  # perf_counter_ns at each request's start
    latencies_ns: list = field(default_factory=list)
    item_counts: list = field(default_factory=list)  # items of each request, 0 if it failed
    items: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    spent_ns: int = 0
    ref_spans: list = field(default_factory=list)  # reference kernel bursts: (start, end, calls)

    @property
    def items_per_s(self) -> float:
        return self.items / (self.spent_ns / 1e9)

    def segment_rates(self) -> tuple:
        """(scaled items per second, kernel slowdown) of each segment of the run.

        A segment is a run of consecutive requests holding SEGMENT_NS of
        request time; a last, shorter segment is dropped unless it is the
        only one.  Its rate is its items over its request time, times its
        slowdown: the mean time of the reference kernel calls that started
        from its first request until the next segment's, over the kernel's
        nominal call time.  That is the segment's throughput at the machine
        speed at which the kernel takes its nominal time.
        """
        cuts, spent = [0], 0
        for k, dt in enumerate(self.latencies_ns):
            spent += dt
            if spent >= SEGMENT_NS:
                cuts.append(k + 1)
                spent = 0
        if len(cuts) == 1:
            cuts.append(len(self.latencies_ns))
        ends = self.starts_ns[1:] + [math.inf]
        rates, slowdowns = [], []
        for a, b in zip(cuts, cuts[1:]):
            t_from, t_to = self.starts_ns[a], ends[b - 1]
            spans = [span for span in self.ref_spans if t_from <= span[0] < t_to]
            if spans:
                slowdown = reference.slowdown(spans)
                rates.append(sum(self.item_counts[a:b]) / sum(self.latencies_ns[a:b]) * 1e9 * slowdown)
                slowdowns.append(slowdown)
        return rates, slowdowns


def measure(w, seconds: float, tracer=None, calibrate: bool = True) -> Measurement:
    """Closed loop over w's requests until `seconds` of request time is spent.

    Every request is timed on its own.  Outputs are checked every
    w.check_every requests, outside the timed region and with tracing off.
    With `calibrate`, the reference kernel samples the machine's speed
    meanwhile; its time is not counted as request time.
    """
    m = Measurement()
    budget = seconds * 1e9
    pending = []
    requests = w.requests()
    sampler = reference.Sampler(w.in_process) if calibrate else None
    with sampler or contextlib.nullcontext():
        while m.spent_ns < budget:
            req = next(requests)
            root = tracer.request_span() if tracer else None
            t0 = time.perf_counter_ns()
            try:
                out = w.run(req)
            except Exception as e:  # checked below: a typed error may be the right answer
                out = e
            t1 = time.perf_counter_ns()
            dt = t1 - t0 - (sampler.within(t0, t1) if sampler else 0)
            if tracer:
                tracer.end_request(root)
            m.spent_ns += dt
            m.starts_ns.append(t0)
            m.latencies_ns.append(dt)
            m.item_counts.append(0)
            pending.append((len(m.item_counts) - 1, req, out))
            if sampler:
                sampler.after_request(dt / 1e9)
            if len(pending) >= w.check_every or m.spent_ns >= budget:
                if tracer:
                    tracer.active = False
                for k, req, out in pending:
                    m.attempted += 1
                    try:
                        problem = w.check(req, out)
                    except Exception as e:
                        problem = f"check raised {e!r}"
                    if problem:
                        m.failed += 1
                        m.problems.append(problem)
                    else:
                        m.item_counts[k] = w.items(req, out)
                        m.items += m.item_counts[k]
                pending.clear()
                if tracer:
                    tracer.active = True
    if sampler:
        m.ref_spans = sampler.spans
    return m


def probe_setup(name: str, seed: int) -> tuple:
    """Set-up times (s) of fresh processes, from spawn until the loop could start.

    Returns the times scaled to reference machine speed, each divided by
    the reference kernel's slowdown in the bursts run right after it, and
    the times as measured.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)]
    sampler = reference.Sampler(in_process=False)
    scaled, times = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        try:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        word, _, ready = out.decode().partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up probe for {name} failed (exit {proc.returncode})")
        times.append(float(ready) - t0)
        first = len(sampler.spans)
        sampler.after_request(times[-1])
        scaled.append(times[-1] / reference.slowdown(sampler.spans[first:]))
    return scaled, times


def end_to_end(w, m: Measurement, setup_times: list, raw_setup_times: list) -> tuple:
    """End-to-end metric values and the details printed next to them."""
    pct = manifest.WORKLOADS[w.name][1]
    tail_ns, beyond = tail(m.latencies_ns, pct)
    rss_kb = w.peak_rss_kb()
    if rss_kb is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rates, slowdowns = m.segment_rates()
    values = {
        "setup_s": statistics.median(setup_times),
        "ref_items_per_s": statistics.median(rates),
        "items_per_s": m.items_per_s,
        "latency_p50_ms": statistics.median(m.latencies_ns) / 1e6,
        "latency_tail_ms": tail_ns / 1e6,
        "peak_rss_mb": rss_kb / 1024.0,
        "error_rate": m.failed / m.attempted,
    }
    details = {
        "setup_s": f"median of {len(setup_times)} set-ups, scaled; as measured {statistics.median(raw_setup_times):.6g} s",
        "ref_items_per_s": f"median of {len(rates)} segments; reference kernel slowdown median"
        f" {statistics.median(slowdowns):.4f}, range {min(slowdowns):.4f}-{max(slowdowns):.4f}",
        "latency_p50_ms": f"{len(m.latencies_ns)} samples",
        "latency_tail_ms": f"p{pct:g}, {len(m.latencies_ns)} samples, {beyond} beyond",
        "error_rate": f"{m.failed}/{m.attempted}",
    }
    return values, details, {"tail_percentile": pct, "samples": len(m.latencies_ns), "beyond": beyond}


def layer_metrics(tracing, tracer, m: Measurement) -> dict:
    """Per-layer metrics from the spans and counters (cli.* and trace.* excluded)."""
    stats = tracing.span_stats(*tracer.arrays()[:5])
    requests = len(m.latencies_ns)
    counts = tracer.counts
    built = counts["symplectic.eigenvectors_built"]
    scans = stats["separability.scan"]["calls"] if "separability.scan" in stats else 0
    out = {
        "symplectic.fallback_ratio": counts["symplectic.fallback_eigenvectors"] / built if built else 0.0,
        "wigner.evaluate.bytes_computed": counts["wigner.evaluate.bytes_computed"] / requests,
        "wigner.bytes_written": counts["wigner.bytes_written"] / requests,
    }
    for name in ("separability.scan.degenerate_rows", "separability.scan.separable_rows"):
        out[name] = counts[name] / scans if scans else 0.0
    for name, _, _ in manifest.PER_LAYER:
        fn, _, kind = name.rpartition(".")
        s = stats.get(fn)
        if kind == "self_ms":
            out[name] = s["self_ns"] / 1e6 / requests if s else 0.0
        elif kind == "calls_per_item":
            out[name] = s["calls"] / m.items if s and m.items else 0.0
        elif kind == "p50_us":
            out[name] = float(statistics.median(s["durations_ns"].tolist())) / 1e3 if s else 0.0
        elif kind == "raised":
            out[name] = tracer.raised[fn] / requests
        elif kind == "child_coverage":
            out[name] = s["coverage"] if s else 0.0
    return out


def run_record(name: str, seed: int, trace: bool, seconds: float) -> dict:
    import numpy

    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "commit": git_commit(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def traced_run(w, seconds: float) -> tuple:
    """Untraced half, then traced half: (per-layer metrics, all checked requests)."""
    import tracing

    plain = measure(w, seconds / 2, calibrate=False)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    try:
        m = measure(w, seconds / 2, tracer, calibrate=False)
    finally:
        tracer.active = False
        tracer.uninstall()
    found = layer_metrics(tracing, tracer, m)
    found.update(dict.fromkeys(("cli.interpreter_ms", "cli.import_ms", "cli.main_ms"), 0.0))
    if w.name == "cli-cold":
        found.update(w.layer_probes(CLI_PROBES))
    found["trace.overhead_ratio"] = plain.items_per_s / m.items_per_s
    tracer.write(str(OUT / f"trace-{w.name}.tsv"))
    m.attempted += plain.attempted
    m.failed += plain.failed
    m.problems += plain.problems
    return {n: found[n] for n, _, _ in manifest.PER_LAYER}, m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; print its metrics."""
    import workloads

    record = run_record(name, seed, trace, seconds)
    print("run " + json.dumps(record, sort_keys=True))
    setup_times, raw_setup_times = ([], []) if trace else probe_setup(name, seed)
    w = workloads.WORKLOADS[name](seed, OUT, SRC)
    try:
        w.setup()
        if trace:
            values, m = traced_run(w, seconds)
            units = {n: u for n, u, _ in manifest.PER_LAYER}
            details, extra = {}, {}
        else:
            m = measure(w, seconds)
            values, details, extra = end_to_end(w, m, setup_times, raw_setup_times)
            units = {n: u for n, u, *_ in manifest.END_TO_END + manifest.REPORTED}
            extra["setup_samples_s"] = setup_times
            extra["raw_setup_samples_s"] = raw_setup_times
    finally:
        w.close()
    if getattr(w, "degenerate_rows", None) is not None:
        print(f"{name} info: degenerate scan rows = {w.degenerate_rows} (reported, not pinned)")
    for metric, value in values.items():
        note = f"  ({details[metric]})" if metric in details else ""
        print(f"{name} {metric} = {value:.6g} {units[metric]}{note}")
    for problem in m.problems[:10]:
        print(f"{name} FAILED CHECK: {problem}", file=sys.stderr)
    gated = manifest.PER_LAYER if trace else manifest.END_TO_END
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u, *_ in gated},
    }
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump({"record": record, "result": result, "details": extra, "problems": m.problems[:100]}, f, indent=1)
    return result


def parse_args(argv):
    ap = argparse.ArgumentParser(description="ncho benchmark")
    ap.add_argument("--workload", choices=[*manifest.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-benchmark-json", action="store_true", help="regenerate BENCHMARK.json")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_benchmark_json:
        with open(ROOT / "BENCHMARK.json", "w") as f:
            f.write(json.dumps(manifest.benchmark_json(), indent=2) + "\n")
        return 0
    if not (SRC / "ncho" / "__init__.py").is_file():
        print(f"bench: no ncho sources at {SRC / 'ncho'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import ncho

    if not Path(ncho.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported ncho from {ncho.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        import workloads

        w = workloads.WORKLOADS[args.workload](args.seed, OUT, SRC)
        w.setup()
        print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
        w.close()
        return 0
    names = list(manifest.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
