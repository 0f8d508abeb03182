"""Tests of the benchmark's tracing on tiny orders: spans nest, self times add
up to the enclosing span, counters are exact, pool work nests under the span
that submitted it, and tracing changes no output.  Also that the speed
sampler leaves its own calibration time out of a pass's time and takes no
sample while other threads run."""

import sys
import threading
import time

import numpy as np

import run
import spans as sp
import workloads
from curvatura import curvature_integrals as ci
from curvatura.level_set_geometry import QuadraticFormField, RadialDistanceField
from curvatura.model_manifolds import constant_curvature, euclidean
from curvatura.quadrature import QuadratureSpec

SPEC = QuadratureSpec(angular_orders=(4,), level_order=2)
ELLIPSOID = QuadraticFormField(np.diag([1.0, 1.0, 4.0]))
FLAT = euclidean(3)


def traced(fn, passes=1):
    """Run fn once per pass under instrumentation; (recorder, tap, outputs, counts)."""
    rec, patches, tap = sp.Recorder(), sp.Patches(), sp.Tap()
    tap.install(patches)
    sp.instrument(rec, patches)
    outs, counts = [], []
    try:
        for k in range(1, passes + 1):
            rec.pass_id = k
            tap.reset()
            outs.append(fn())
            rec.pass_id = -1
            counts.append(rec.take_counts())
    finally:
        patches.restore()
    return rec, tap, outs, counts


def ellipsoid_pass(rs=(1,)):
    return [ci.comparison_rhs(ELLIPSOID, FLAT, (0.5, 1.0), r, SPEC, 1) for r in rs]


def by_id(records):
    return {int(s["id"]): s for s in records}


def test_spans_nest_inside_their_parents():
    rec, _, _, _ = traced(ellipsoid_pass)
    records = rec.spans()
    index = by_id(records)
    names = rec.names
    roots = [s for s in records if s["parent"] < 0]
    assert [names[s["name"]] for s in roots] == ["curvature_integrals.comparison_rhs"]
    for s in records:
        if s["parent"] >= 0:
            p = index[int(s["parent"])]
            assert p["start"] <= s["start"] <= s["end"] <= p["end"]
    quad_entries = {f"quadrature.{n}" for n in sp.QUADRATURE_ENTRIES}
    for s in records:
        if names[s["name"]] == "quadrature.find_level_radius":
            chain = []
            while s["parent"] >= 0:
                s = index[int(s["parent"])]
                chain.append(names[s["name"]])
            assert quad_entries & set(chain)


def test_self_times_sum_to_the_root_span():
    rec, _, _, _ = traced(ellipsoid_pass)
    records = rec.spans()
    root = records[records["parent"] < 0][0]
    cpu_selfs = sp.cpu_self_times(records)
    assert np.all(cpu_selfs >= 0)
    assert int(cpu_selfs.sum()) == int(root["cpu_end"] - root["cpu_start"])


def test_counters_are_exact_and_repeat():
    rec, tap, outs, counts = traced(lambda: ellipsoid_pass((0, 1)), passes=2)
    tables = sp.pass_tables(rec.spans(), rec.names)
    assert sorted(tables) == [1, 2]
    calls = [{k: v[0] for k, v in tables[p].items()} for p in (1, 2)]
    assert calls[0] == calls[1]
    assert counts[0] == counts[1]
    # per r: two surface rules (16 + 4 nodes each) and a coarea rule over
    # 2 levels of 16 nodes plus its 2-level companion of 4 nodes
    nodes_per_r = 2 * (16 + 4) + 2 * 16 + 2 * 4
    assert calls[0]["quadrature.find_level_radius"] == 2 * nodes_per_r
    assert calls[0]["level_set_geometry.hessian_frame"] == 2 * nodes_per_r
    value_calls, distinct = counts[0]
    assert distinct == nodes_per_r          # the second r revisits every point
    assert value_calls["field.value"] > 20 * 2 * nodes_per_r
    assert tap.fine_nodes == outs[1][0].node_count + outs[1][1].node_count


def test_pool_work_nests_under_the_submitting_span():
    def pooled():
        return ci.total_mean_curvature(RadialDistanceField(), constant_curvature(-1.0, 3),
                                       0.8, 1, SPEC, 2)

    rec, _, _, _ = traced(pooled)
    records = rec.spans()
    index = by_id(records)
    names = rec.names
    surface = [s for s in records if names[s["name"]] == "quadrature.surface_integral"]
    assert len(surface) == 1
    workers = [s for s in records if s["thread"] != surface[0]["thread"]]
    assert workers
    for s in workers:
        while index[int(s["parent"])]["thread"] == s["thread"]:
            s = index[int(s["parent"])]
        assert int(s["parent"]) == int(surface[0]["id"])
    assert np.all(sp.cpu_self_times(records) >= 0)


def test_tracing_changes_no_number_and_restores_the_package():
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("curvatura")}
    value = QuadraticFormField.__dict__["value"]
    plain = workloads.breakdown_fingerprint(ellipsoid_pass())
    _, _, outs, _ = traced(ellipsoid_pass)
    assert workloads.breakdown_fingerprint(outs[0]) == plain
    for name, saved in before.items():
        now = vars(sys.modules[name])
        assert all(now[k] is v for k, v in saved.items()), name
    assert QuadraticFormField.__dict__["value"] is value


def test_dispatch_tables_are_spanned_and_restored():
    from curvatura import verification
    runners = dict(verification._RUNNERS)
    rec, _, outs, _ = traced(lambda: verification.run_suite(
        verification.SuiteConfig(suite="asymptotic", quick=True)))
    assert outs[0].passed
    names = {rec.names[s["name"]] for s in rec.spans()}
    assert {"verification.run_suite", "verification.run_asymptotic_suite"} <= names
    assert all(verification._RUNNERS[k] is v for k, v in runners.items())


def test_speed_sampler_leaves_its_samples_out():
    with run.SpeedSampler() as s:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    elapsed = time.perf_counter() - t0
    assert s.samples >= 4
    assert 0.2 < s.wall < elapsed
    assert s.wall_ref > 0 and s.cpu_ref > 0


def test_speed_sampler_takes_no_sample_while_other_threads_run():
    stop = threading.Event()

    def busy():
        while not stop.is_set():
            sum(range(1000))

    threads = [threading.Thread(target=busy) for _ in range(2)]
    for t in threads:
        t.start()
    with run.SpeedSampler() as s:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        stop.set()
        for t in threads:
            t.join()
    # the busy stretch waits for a sample taken alone: the one on exit, or
    # one that fell between the join and the exit
    assert s.deferred >= 4
    assert 1 <= s.samples <= 2
    assert s.wall_ref > 0 and s.cpu_ref > 0


def test_speed_sampler_leaves_steal_time_out(monkeypatch):
    # half of every wall second reported stolen: the reference wall time is
    # half the reference CPU time of a busy single-threaded block
    monkeypatch.setattr(run, "stolen_s", lambda cpus: 0.5 * time.perf_counter())
    with run.SpeedSampler() as s:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    assert s.stolen > 0.1
    assert abs(s.wall_ref / s.cpu_ref - 0.5) < 0.05
