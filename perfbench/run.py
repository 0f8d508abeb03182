"""curvatura benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
With --trace 0 the workload runs untraced in a closed loop for S seconds and
the end-to-end metrics are reported.  With --trace 1 one untraced reference
pass is followed by traced passes for S seconds and the per-layer metrics are
reported.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the full record, with the
environment, goes to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("ellipsoid-flat", "hyperbolic-paths", "verify-quick")

SETUP_PROBES = 10
PROBES_PER_PASS = 2
SETUP_PROBE_TIMEOUT_S = 60

# A shared vCPU's speed flips between states up to a factor 2 apart, for the
# package and for any fixed loop alike, from one second to the next.  Pass
# times are therefore given in reference seconds: every SAMPLE_INTERVAL_S a
# timer signal runs a short fixed calibration loop, and the stretch of the
# pass before each sample is scaled by CALIBRATION_REF_S over the sample's
# time.  CALIBRATION_REF_S is the loop's time on a quiet 2-vCPU Xeon host,
# so there a reference second is a second.  Wall stretches are also cut by
# the time the hypervisor ran other guests on the vCPUs (steal time): on a
# shared host it comes in episodes of minutes and added up to 55% to passes.
# Set-up probes are sampled the same way.
SAMPLE_INTERVAL_S = 0.05
CALIBRATION_ITERS = 200
CALIBRATION_REF_S = 0.0015
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("nodes_per_s", "1/s"),
              ("residual_digits", "digits"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("pass_share", "ratio"))

PER_LAYER = (
    ("quadrature.nodes", "count"),
    ("quadrature.fine_node_share", "ratio"),
    ("quadrature.find_level_radius.us", "us"),
    ("quadrature.field_value_calls_per_node", "calls/node"),
    ("quadrature.field_partials.us", "us"),
    ("quadrature.self_s", "s"),
    ("level_set_geometry.hessian_frame.calls", "count"),
    ("level_set_geometry.hessian_frame.us", "us"),
    ("level_set_geometry.principal_frame.calls", "count"),
    ("level_set_geometry.principal_frame.us", "us"),
    ("level_set_geometry.distinct_point_share", "ratio"),
    ("level_set_geometry.self_s", "s"),
    ("symmetric_algebra.jacobi_eigh.calls", "count"),
    ("symmetric_algebra.jacobi_eigh.us", "us"),
    ("symmetric_algebra.sigma_elementary.us", "us"),
    ("symmetric_algebra.sigma_hessian_kronecker.us", "us"),
    ("symmetric_algebra.self_s", "s"),
    ("model_manifolds.christoffel_at.calls", "count"),
    ("model_manifolds.christoffel_at.us", "us"),
    ("model_manifolds.riemann_at.calls", "count"),
    ("model_manifolds.riemann_at.us", "us"),
    ("model_manifolds.metric_diag.calls", "count"),
    ("model_manifolds.metric_diag.us", "us"),
    ("model_manifolds.self_s", "s"),
    ("curvature_integrals.integrand.us", "us"),
    ("curvature_integrals.self_s", "s"),
    ("verification.pointwise_s", "s"),
    ("verification.comparison_s", "s"),
    ("verification.inequality_s", "s"),
    ("verification.asymptotic_s", "s"),
    ("cli.self_s", "s"),
    ("reporting.write_s", "s"),
    ("reporting.bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)

# Fresh interpreter: import the package and build the workload's inputs;
# prints the time in seconds and in reference seconds.  numpy, a fixed cost
# of the dependency that the calibration loop needs, is imported first.
SETUP_PROBE = """\
import sys
from pathlib import Path
sys.path[:0] = [{src!r}, {bench!r}]
import numpy
import run
with run.SpeedSampler() as s:
    import workloads
    workloads.build({name!r}, {seed!r}, Path({workdir!r}))
sys.stdout.write(repr((s.wall, s.wall_ref)))
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description="curvatura benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def git_commit(root: Path):
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "curvatura").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {"git_commit": git_commit(ROOT), "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "platform": platform.platform()}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def setup_probe(name: str, seed: int, workdir: Path):
    """A function that times one set-up in a fresh interpreter; it returns
    (seconds, reference seconds)."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed,
                              workdir=str(workdir))

    def probe() -> tuple:
        res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=SETUP_PROBE_TIMEOUT_S, check=True)
        seconds, reference = ast.literal_eval(res.stdout)
        return float(seconds), float(reference)
    return probe


def stolen_s(cpus) -> float:
    """Steal time of the CPUs named in `cpus` ("cpu0", ...), in seconds per
    CPU, from /proc/stat; 0 where the kernel does not report it."""
    total = 0
    try:
        with open("/proc/stat") as f:
            for line in f:
                if not line.startswith("cpu"):
                    break
                fields = line.split()
                if fields[0] in cpus and len(fields) > 8:
                    total += int(fields[8])
    except OSError:
        return 0.0
    return total / CLOCK_TICKS / len(cpus)


def calibration_loop():
    """Fixed interpreter and small-array numpy work, independent of the package."""
    a, eye, acc = np.full((3, 3), 0.25), np.eye(3), 0.0
    for i in range(CALIBRATION_ITERS):
        acc += math.sqrt(i + 1.0) * 0.5
        b = 0.5 * (a + a.T) @ eye
        acc += float(np.sum(b * b))
        a = b / (1.0 + acc * 1e-9)
    return acc


class SpeedSampler:
    """Times the code in its block in seconds and in reference seconds,
    leaving out the calibration samples.  Main thread only (signals).

    While other threads of the process run (the quadrature's worker pool),
    a calibration loop would wait for the interpreter lock and time the
    program's own lock use as well as the host.  No sample is taken then:
    the stretch stays open and is scaled by the next sample, taken alone.
    The sample on exit is always taken: threads the block starts must have
    ended by then (the pool is joined when its map returns).

    The reference wall time of a stretch leaves out the steal time of the
    CPUs the process may run on, averaged over them."""

    def __enter__(self):
        self.wall = self.cpu = self.wall_ref = self.cpu_ref = 0.0
        self.stolen = 0.0
        self.samples = self.deferred = 0
        self._busy = False
        self._cpus = {f"cpu{k}" for k in os.sched_getaffinity(0)}
        self._s = stolen_s(self._cpus)
        self._t, self._c = time.perf_counter(), time.process_time()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def _sample(self, *_, final=False):
        if self._busy:
            return
        if threading.active_count() > 1 and not final:
            self.deferred += 1
            return
        self._busy = True
        t, c = time.perf_counter(), time.process_time()
        stolen = stolen_s(self._cpus) - self._s
        t_cal = time.perf_counter()
        calibration_loop()
        scale = CALIBRATION_REF_S / (time.perf_counter() - t_cal)
        self.wall += t - self._t
        self.cpu += c - self._c
        self.stolen += stolen
        self.wall_ref += (t - self._t - stolen) * scale
        self.cpu_ref += (c - self._c) * scale
        self.samples += 1
        self._s = stolen_s(self._cpus)
        self._t, self._c = time.perf_counter(), time.process_time()
        self._busy = False

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample(final=True)


def residual_digits(relative_residuals) -> float:
    """Correct digits of the identities a pass checks: -log10 of the worst
    relative residual, capped at 12 (roundoff)."""
    return -math.log10(max(max(relative_residuals), 1e-12))


class Run:
    """Passes of one workload, and the correctness checks made on them."""

    def __init__(self, wl, tap):
        self.wl, self.tap = wl, tap
        self.checks = []
        self.first = None

    def check(self, label, name, passed):
        self.checks.append({"pass": label, "name": name, "passed": bool(passed)})

    def one_pass(self, label, same_as="first_pass", sampled=False):
        """One timed pass; its outputs must equal those of the run's first
        pass.  A sampled pass is also timed in reference seconds."""
        self.tap.reset()
        if sampled:
            with SpeedSampler() as s:
                out = self.wl.run_pass()
            p = {"wall_s": s.wall, "cpu_s": s.cpu, "stolen_s": s.stolen, "wall_ref_s": s.wall_ref,
                 "cpu_ref_s": s.cpu_ref, "speed_samples": s.samples,
                 "deferred_samples": s.deferred}
        else:
            t0, c0 = time.perf_counter(), time.process_time()
            out = self.wl.run_pass()
            p = {"wall_s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0}
        fp = self.wl.fingerprint(out)
        for name, passed in self.wl.check(out, self.tap):
            self.check(label, name, passed)
        if self.first is None:
            self.first = fp
        else:
            self.check(label, f"outputs_equal_{same_as}", fp == self.first)
        p.update(fine_nodes=self.tap.fine_nodes,
                 residual_digits=residual_digits(self.wl.relative_residuals(out, self.tap)),
                 bytes=out["bytes"] if isinstance(out, dict) else 0)
        return p

    def passes_for(self, seconds, probe):
        """Closed loop of sampled passes for `seconds`.  Set-up probes run
        between passes, so that their median, like that of the passes, spans
        the whole run; returns (passes, probes as (seconds, reference seconds))."""
        passes, setup = [], []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(self.one_pass(len(passes), sampled=True))
            setup.extend(probe() for _ in range(PROBES_PER_PASS))
        while len(setup) < SETUP_PROBES:
            setup.append(probe())
        return passes, setup

    @property
    def failed(self):
        return sum(not c["passed"] for c in self.checks)


def end_to_end(passes, setup, run: Run) -> dict:
    """Pass and set-up times in reference seconds (see CALIBRATION_REF_S),
    medians over passes and over set-up probes."""
    attempted = len(run.checks)
    return {
        "wall_s": statistics.median(p["wall_ref_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_ref_s"] for p in passes),
        "nodes_per_s": statistics.median(p["fine_nodes"] / p["wall_ref_s"] for p in passes),
        "residual_digits": passes[0]["residual_digits"],
        "setup_s": statistics.median(reference for _, reference in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_share": (attempted - run.failed) / attempted,
    }


def traced(run: Run, seconds: int, reference: dict):
    """Traced passes after an untraced reference pass; per-layer metrics."""
    import spans as sp

    recorder, patches = sp.Recorder(), sp.Patches()
    sp.instrument(recorder, patches)
    passes, counts = [], []
    start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - start < seconds:
            label = len(passes) + 1
            recorder.pass_id = label
            p = run.one_pass(f"traced-{label}", same_as="untraced_reference")
            recorder.pass_id = -1
            calls, distinct = recorder.take_counts()
            passes.append(p)
            counts.append((calls, distinct))
    finally:
        patches.restore()
    records = recorder.spans()
    by_pass = sp.pass_tables(records, recorder.names)
    tables = [by_pass.get(k + 1, {}) for k in range(len(passes))]
    exact = [exact_counts(t, c, d) for t, (c, d) in zip(tables, counts)]
    for k in range(1, len(passes)):
        run.check(f"traced-{k + 1}", "exact_counts_equal_first_traced_pass", exact[k] == exact[0])
    per_pass = [layer_metrics(t, c, d, p, reference) for t, (c, d), p in zip(tables, counts, passes)]
    # counts repeat exactly (checked above); timings are medians over passes
    metrics = {name: per_pass[0][name] if unit in ("count", "bytes")
               else statistics.median(m[name] for m in per_pass) for name, unit in PER_LAYER}
    return passes, metrics, records, recorder.names, exact[0]


def exact_counts(table, calls, distinct):
    return {"span_calls": {k: v[0] for k, v in sorted(table.items())},
            "counters": dict(sorted(calls.items())), "distinct_points": distinct}


def layer_metrics(table, counters, distinct, p, reference) -> dict:
    """Per-layer figures of one traced pass.  Self times are thread CPU time,
    which leaves out waits for the interpreter lock under the worker pool;
    suite and write times are wall time including children."""
    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def us(name):
        c, cpu_ns, _ = table.get(name, (0, 0.0, 0.0))
        return cpu_ns / c / 1e3 if c else 0.0

    def total_s(*names):
        return sum(table.get(n, (0, 0.0, 0.0))[2] for n in names) / 1e9

    def self_s(layer):
        return sum(v[1] for k, v in table.items() if k.split(".")[0] == layer) / 1e9

    nodes = calls("quadrature.find_level_radius")
    hess = calls("level_set_geometry.hessian_frame")
    return {
        "quadrature.nodes": nodes,
        "quadrature.fine_node_share": p["fine_nodes"] / nodes if nodes else 0.0,
        "quadrature.find_level_radius.us": us("quadrature.find_level_radius"),
        "quadrature.field_value_calls_per_node":
            counters.get("field.value", 0) / nodes if nodes else 0.0,
        "quadrature.field_partials.us": us("quadrature.field_partials"),
        "quadrature.self_s": self_s("quadrature"),
        "level_set_geometry.hessian_frame.calls": hess,
        "level_set_geometry.hessian_frame.us": us("level_set_geometry.hessian_frame"),
        "level_set_geometry.principal_frame.calls": calls("level_set_geometry.principal_frame"),
        "level_set_geometry.principal_frame.us": us("level_set_geometry.principal_frame"),
        "level_set_geometry.distinct_point_share": distinct / hess if hess else 0.0,
        "level_set_geometry.self_s": self_s("level_set_geometry"),
        "symmetric_algebra.jacobi_eigh.calls": calls("symmetric_algebra.jacobi_eigh"),
        "symmetric_algebra.jacobi_eigh.us": us("symmetric_algebra.jacobi_eigh"),
        "symmetric_algebra.sigma_elementary.us": us("symmetric_algebra.sigma_elementary"),
        "symmetric_algebra.sigma_hessian_kronecker.us":
            us("symmetric_algebra.sigma_hessian_kronecker"),
        "symmetric_algebra.self_s": self_s("symmetric_algebra"),
        "model_manifolds.christoffel_at.calls": calls("model_manifolds.christoffel_at"),
        "model_manifolds.christoffel_at.us": us("model_manifolds.christoffel_at"),
        "model_manifolds.riemann_at.calls": calls("model_manifolds.riemann_at"),
        "model_manifolds.riemann_at.us": us("model_manifolds.riemann_at"),
        "model_manifolds.metric_diag.calls": calls("model_manifolds.metric_diag"),
        "model_manifolds.metric_diag.us": us("model_manifolds.metric_diag"),
        "model_manifolds.self_s": self_s("model_manifolds"),
        "curvature_integrals.integrand.us": us("curvature_integrals.integrand"),
        "curvature_integrals.self_s": self_s("curvature_integrals"),
        "verification.pointwise_s": total_s("verification.run_pointwise_suite"),
        "verification.comparison_s": total_s("verification.run_comparison_suite"),
        "verification.inequality_s": total_s("verification.run_inequality_suite"),
        "verification.asymptotic_s": total_s("verification.run_asymptotic_suite"),
        "cli.self_s": self_s("cli"),
        "reporting.write_s": total_s("reporting.write_csv", "reporting.write_json"),
        "reporting.bytes": p["bytes"],
        "trace.overhead_s": p["wall_s"] - reference["wall_s"],
        "trace.spans": sum(v[0] for v in table.values()),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "curvatura" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'curvatura'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import curvatura
    if Path(curvatura.__file__).resolve().parent != SRC / "curvatura":
        print(f"perfbench: imported curvatura from {curvatura.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    tag = f"{args.workload}-seed{args.seed}"
    workdir = RESULTS / tag
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, workdir)
    tap, patches = spans.Tap(), spans.Patches()
    tap.install(patches)
    run = Run(wl, tap)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "config": wl.config,
              "orders": {k: {"angular_order": a, "level_order": l}
                         for k, (a, l) in workloads.ORDERS.items()},
              "verify_suites": workloads.VERIFY_SUITES,
              "environment": environment()}
    try:
        if args.trace == 0:
            probe = setup_probe(args.workload, args.seed, workdir)
            passes, setup = run.passes_for(args.seconds, probe)
            metrics = end_to_end(passes, setup, run)
            units = dict(END_TO_END)
            record.update(setup_probes=setup, passes=passes,
                          calibration_ref_s=CALIBRATION_REF_S)
        else:
            reference = run.one_pass("untraced-reference")
            passes, metrics, records, names, exact = traced(run, args.seconds, reference)
            units = dict(PER_LAYER)
            span_file = RESULTS / f"{tag}-spans.npy"
            np.save(span_file, records)
            record.update(reference_pass=reference, passes=passes, exact_counts=exact,
                          span_file=span_file.name, span_names=names,
                          span_fields=list(records.dtype.names))
    finally:
        patches.restore()

    attempted, failed = len(run.checks), run.failed
    record.update(checks=run.checks, metrics=metrics,
                  process_peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result_file = RESULTS / f"{tag}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1, sort_keys=True, default=float) + "\n")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{len(passes)} passes; {attempted} checks, {failed} failed; record: "
          f"{result_file.relative_to(ROOT)}")
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
