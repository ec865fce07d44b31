"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import manifest  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_nearest_rank_with_samples_beyond():
    samples = list(range(1, 1001))
    assert run.tail(samples, 99.0) == (990, 10)
    assert run.tail(samples[:999], 99.0) == (990, 9)  # fewer than 10 beyond
    assert run.tail([3, 1, 2], 100.0) == (3, 0)
    assert run.tail(list(range(1, 21)), 50.0) == (10, 10)


@pytest.mark.parametrize("name", list(manifest.WORKLOADS))
def test_tail_percentile_leaves_ten_samples_at_designed_rate(name):
    """At the request count a run makes today, >= 10 samples lie beyond the tail.

    scan-grid is the exception by design: a run holds ~10 whole scans,
    too few for any percentile, so it falls back to the median.
    """
    designed = {"point-report": 20_000, "phase-space-export": 20, "cli-cold": 70, "scan-grid": 10}
    pct = manifest.WORKLOADS[name][1]
    _, beyond = run.tail(range(designed[name]), pct)
    assert beyond >= 10 or (name == "scan-grid" and pct == 50.0)


def test_segment_rates_scale_each_segment_by_its_own_kernel_slowdown():
    nominal = reference.NOMINAL_CALL_NS
    s = run.SEGMENT_NS
    m = run.Measurement()
    # four requests of half a segment each, 10 items per request: two segments
    m.starts_ns = [0, s, 2 * s, 3 * s]
    m.latencies_ns = [s // 2] * 4
    m.item_counts = [10, 10, 10, 0]  # the last request failed its check
    # segment 1 (from t=0): kernel at nominal speed; segment 2 (from t=2s): twice as slow
    m.ref_spans = [(10, 10 + 8 * nominal, 8), (2 * s + 10, 2 * s + 10 + 16 * nominal, 8)]
    rates, slowdowns = m.segment_rates()
    assert slowdowns == [1.0, 2.0]
    assert rates == [20.0, 20.0]  # 20 items/s at nominal speed; 10 items/s at half speed, scaled by 2


def test_segment_rates_keep_a_short_run_as_one_segment():
    span = (5, 5 + 3 * reference.NOMINAL_CALL_NS, 3)
    m = run.Measurement(starts_ns=[0], latencies_ns=[1000], item_counts=[3], ref_spans=[span])
    assert m.segment_rates() == ([3e6], [1.0])


def test_sampler_takes_only_bursts_inside_a_request():
    sampler = reference.Sampler(in_process=True)
    sampler.spans = [(0, 5, 8), (20, 30, 8), (40, 41, 8)]
    assert sampler.within(10, 35) == 10
    assert sampler.within(0, 41) == 16
    assert sampler.within(31, 39) == 0


def test_sampler_times_bursts_inside_a_long_request():
    with reference.Sampler(in_process=True) as sampler:
        t0 = time.perf_counter_ns()
        while time.perf_counter_ns() - t0 < 3 * reference.BURST_EVERY_S * 1e9:
            pass
        t1 = time.perf_counter_ns()
    assert len(sampler.spans) >= 2
    assert all(calls == reference.BURST_CALLS for *_, calls in sampler.spans)
    assert 0 < sampler.within(t0, t1) < t1 - t0


def test_self_time_subtracts_direct_children_only():
    # root [0,100) has children a [10,40) and b [50,90); a has grandchild [15,35)
    parent = [-1, 0, 1, 0]
    start = [0, 10, 15, 50]
    end = [100, 40, 35, 90]
    dur, covered = tracing.covered_time(parent, start, end)
    assert list(dur) == [100, 30, 20, 40]
    assert list(dur - covered) == [30, 10, 20, 40]
    stats = tracing.span_stats(["root", "a", "b"], np.array([0, 1, 2, 1]), parent, start, end)
    assert stats["root"]["self_ns"] == 30
    assert stats["root"]["coverage"] == pytest.approx(0.7)
    assert stats["a"]["calls"] == 2 and stats["a"]["self_ns"] == 10 + 40


def test_tracer_wraps_every_namespace_and_restores():
    import ncho
    import ncho.report
    import ncho.separability

    orig = ncho.spectral_data
    t = tracing.Tracer()
    t.install()
    t.active = True
    try:
        assert ncho.report.spectral_data is ncho.separability.spectral_data is not orig
        root = t.request_span()
        ncho.analyze(ncho.PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.3, 0.4))
        t.end_request(root)
        with pytest.raises(ncho.DegenerateSpectrum):
            ncho.classify(ncho.PhysicalParams(1.0, 1.5, 1.0, 2.0, 1.0, 4.0))
    finally:
        t.active = False
        t.uninstall()
    assert ncho.report.spectral_data is orig and ncho.separability.spectral_data is orig
    names, nid, parent, start, end, _ = t.arrays()
    stats = tracing.span_stats(names, nid, parent, start, end)
    assert stats["report.analyze"]["calls"] == 1
    assert stats["params.validate"]["calls"] == 5  # 3 in analyze, 2 in classify
    assert t.raised == {"symplectic.spectral_data": 1}  # counted where raised only
    assert t.counts["symplectic.eigenvectors_built"] == 2


def _report(p):
    rep = workloads.ncho.analyze(p)
    return json.loads(rep.json_text()), workloads.ncho.extractable_work(rep.cov, workloads.HETERODYNE)


def test_point_check_accepts_correct_and_rejects_corrupted_report():
    r, work = _report(workloads.ncho.PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.3, 0.4))
    assert workloads.check_report(r, work, dense=True) is None
    r["separability"]["margin"] *= 1.001
    assert "margin" in workloads.check_report(r, work, dense=True)
    r, work = _report(workloads.ncho.PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.3, 0.4))
    r["spectral"]["lambda2"] *= 1 + 1e-6
    r["ground_state"]["energy0"] = 0.5 * (r["spectral"]["lambda1"] + r["spectral"]["lambda2"])
    assert "eigvals" in workloads.check_report(r, work, dense=True)


def test_scan_csv_check_rejects_a_changed_row():
    ncho = workloads.ncho
    res = ncho.scan(ncho.PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.0, 0.0), ncho.AxisSpec("theta", 0.0, 3.0, 7))
    text = res.csv_text()
    assert workloads.check_scan_csv(text, res.rows) is None
    lines = text.splitlines(keepends=True)
    lines[3] = lines[3].replace("entangled", "separable")
    assert workloads.check_scan_csv("".join(lines), res.rows) is not None
    assert workloads.check_scan_csv(text, res.rows[:-1]) is not None


def test_degenerate_points_must_raise():
    w = workloads.PointReport(0, BENCH, BENCH.parent / "src")
    w.pool = [("degenerate", workloads.draw_point(np.random.default_rng(3), "degenerate"))]
    assert w.check(0, w.pool[0][1]) is not None  # returned a value instead of raising
    assert w.check(0, workloads.ncho.DegenerateSpectrum("x")) is None


def test_benchmark_json_matches_manifest():
    with open(BENCH.parent / "BENCHMARK.json") as f:
        assert json.load(f) == manifest.benchmark_json()
