"""Outside-in tracing of the curvatura package for the benchmark.

Every package module is a layer.  `instrument` replaces each layer's public
functions, in every package namespace that binds them (``from .x import f``
makes a copy), with wrappers that record one span per call.  No library code
changes; `Patches.restore` puts every original back.

A span is (id, name, start, end, parent, pass), with the thread's CPU clock
read at start and end as well: self times are CPU time, which leaves out
waits for the interpreter lock under the worker pool.  Stacks are
thread-local, so calls made in the quadrature worker pool nest under the span that submitted
the work, and buffers are per thread, so recording takes no lock.  Spans stay
in memory until `Recorder.spans` assembles them at the end of a run.

`Tap` is the light part that stays on in untraced runs: it reads node counts
and comparison breakdowns off the package's return values, a few hundred
calls per pass.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import types
from array import array

import numpy as np

LAYERS = ("symmetric_algebra", "model_manifolds", "level_set_geometry", "quadrature",
          "curvature_integrals", "verification", "cli", "reporting")

# Accessors called several times per node (ray_point and sphere_direction
# once per field evaluation, about 33 times per node in a ray root solve;
# radial_profile about 5 times per node in polar charts).  A span would cost
# more than the call, so their time counts to the caller: for the first two
# that is the root solve.
UNSPANNED = frozenset({"quadrature.ray_point", "level_set_geometry.sphere_direction",
                       "model_manifolds.radial_profile"})

QUADRATURE_ENTRIES = ("surface_integral", "coarea_volume_integral",
                      "coarea_volume_integral_multi")
BREAKDOWN_SOURCES = ("comparison_rhs", "comparison_rhs_constant", "ricci_comparison")
INTEGRAND = "curvature_integrals.integrand"
FIELD_VALUE = "field.value"

SPAN_FIELDS = ("id", "name", "start", "end", "cpu_start", "cpu_end", "parent", "pass")
SPAN_DTYPE = np.dtype([(f, "i4" if f in ("name", "pass") else "i8") for f in SPAN_FIELDS]
                      + [("thread", "i4")])


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "curvatura" or name.startswith("curvatura."))]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def set_item(self, table: dict, key, value):
        self._saved.append((table, key, table[key]))
        table[key] = value

    def rebind(self, original, replacement):
        """Replace `original` in every package namespace that binds it, and in
        module-level dispatch tables (verification._RUNNERS)."""
        for mod in package_modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self.set(mod, key, replacement)
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is original:
                            self.set_item(val, k, replacement)

    def restore(self):
        while self._saved:
            owner, name, old = self._saved.pop()
            if isinstance(owner, dict):
                owner[name] = old
            else:
                setattr(owner, name, old)


class Tap:
    """Fine-rule node counts and comparison breakdowns of one pass."""

    def __init__(self):
        self.node_counts = []
        self.breakdowns = []

    def reset(self):
        self.node_counts = []
        self.breakdowns = []

    @property
    def fine_nodes(self) -> int:
        return int(sum(self.node_counts))

    def install(self, patches: Patches):
        quad = sys.modules["curvatura.quadrature"]
        integrals = sys.modules["curvatura.curvature_integrals"]
        for name in QUADRATURE_ENTRIES:
            fn = getattr(quad, name)
            patches.rebind(fn, self._wrap_integral(fn))
        for name in BREAKDOWN_SOURCES:
            fn = getattr(integrals, name)
            patches.rebind(fn, self._wrap_breakdown(fn))

    def _wrap_integral(self, fn):
        @functools.wraps(fn)
        def tapped(*args, **kwargs):
            res = fn(*args, **kwargs)
            # IntegralResult, or (values, errors, node_count) from the multi form
            self.node_counts.append(res[2] if isinstance(res, tuple) else res.node_count)
            return res
        return tapped

    def _wrap_breakdown(self, fn):
        @functools.wraps(fn)
        def tapped(*args, **kwargs):
            bd = fn(*args, **kwargs)
            self.breakdowns.append(bd)
            return bd
        return tapped


class _ThreadState:
    def __init__(self, index: int):
        self.index = index
        self.stack = []
        self.inherited = -1          # parent for spans opened on an empty stack
        self.buf = array("q")        # SPAN_FIELDS of each span, in order
        self.counts = {}
        self.points = set()
        self.keepalive = []


class Recorder:
    """Thread-aware span and counter recorder."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self.pass_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.state = st
        return st

    def current(self) -> int:
        st = self.state()
        return st.stack[-1] if st.stack else st.inherited

    def wrap(self, fn, name: str, before=None):
        """`fn` recording one span named `name` per call; `before(state, args,
        kwargs)` runs first, inside the span."""
        nid = self.name_id(name)
        ids, state = self._ids, self.state
        clock, cpu = time.perf_counter_ns, time.thread_time_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1] if stack else st.inherited
            sid = next(ids)
            stack.append(sid)
            c0 = cpu()
            t0 = clock()
            try:
                if before is not None:
                    before(st, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                c1 = cpu()
                stack.pop()
                st.buf.extend((sid, nid, t0, t1, c0, c1, parent, self.pass_id))
        return spanned

    def counting(self, fn, key: str):
        state = self.state

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts = state().counts
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def take_counts(self):
        """Counters and distinct points of all threads since the last call.
        Call between passes, when no worker runs."""
        counts, points = {}, set()
        for st in self._states:
            for k, v in st.counts.items():
                counts[k] = counts.get(k, 0) + v
            points |= st.points
            st.counts, st.points, st.keepalive = {}, set(), []
        return counts, len(points)

    def spans(self) -> np.ndarray:
        """All recorded spans, in id order; empties the per-thread buffers.
        Ids are 0..N-1, one per call, so each span goes to the row of its id."""
        total = sum(len(st.buf) for st in self._states) // len(SPAN_FIELDS)
        out = np.empty(total, dtype=SPAN_DTYPE)
        for st in self._states:
            rows = np.frombuffer(st.buf, dtype=np.int64).reshape(-1, len(SPAN_FIELDS))
            ids = rows[:, 0]
            for col, key in enumerate(SPAN_FIELDS):
                out[key][ids] = rows[:, col]
            out["thread"][ids] = st.index
            del rows, ids
            st.buf = array("q")
        if not np.array_equal(out["id"], np.arange(total)):
            raise ValueError("span ids are not 0..N-1: a span was still open")
        return out


def _propagating_executor(recorder: Recorder, base):
    """`base` executor whose tasks open their spans under the submitter's."""

    class Executor(base):
        def submit(self, fn, /, *args, **kwargs):
            parent = recorder.current()

            def task(*a, **k):
                st = recorder.state()
                saved, st.inherited = st.inherited, parent
                try:
                    return fn(*a, **k)
                finally:
                    st.inherited = saved
            return super().submit(task, *args, **kwargs)

    return Executor


def _point_key(st, args, kwargs):
    """Record the (field, model, point) of a hessian_frame call."""
    u, M = args[0], args[1]
    p = args[2] if len(args) > 2 else kwargs["p"]
    st.keepalive.append((u, M))     # ids stay unique while the pass runs
    st.points.add((id(u), id(M), np.asarray(p, dtype=float).tobytes()))


def _spanned_functions(mod):
    layer = mod.__name__.rsplit(".", 1)[1]
    for key, val in sorted(vars(mod).items()):
        if (not key.startswith("_") and isinstance(val, types.FunctionType)
                and val.__module__ == mod.__name__
                and f"{layer}.{key}" not in UNSPANNED):
            yield key, val


def instrument(recorder: Recorder, patches: Patches):
    """Wrap every layer's public functions in spans, integrands passed to the
    quadrature in `curvature_integrals.integrand` spans, and count field
    value calls.  Install a `Tap` first if both are wanted."""
    for layer in LAYERS:
        mod = sys.modules[f"curvatura.{layer}"]
        for key, fn in _spanned_functions(mod):
            name = f"{layer}.{key}"
            if layer == "quadrature" and key in QUADRATURE_ENTRIES:
                wrapped = recorder.wrap(_integrand_spanning(recorder, fn), name)
            elif name == "level_set_geometry.hessian_frame":
                wrapped = recorder.wrap(fn, name, before=_point_key)
            else:
                wrapped = recorder.wrap(fn, name)
            patches.rebind(fn, wrapped)
    quad = sys.modules["curvatura.quadrature"]
    patches.set(quad, "ThreadPoolExecutor",
                _propagating_executor(recorder, quad.ThreadPoolExecutor))
    base = sys.modules["curvatura.level_set_geometry"].ScalarField
    for cls in _subclasses(base):
        if "value" in cls.__dict__:
            patches.set(cls, "value", recorder.counting(cls.__dict__["value"], FIELD_VALUE))


def _integrand_spanning(recorder, fn):
    @functools.wraps(fn)
    def call(u, M, level, integrand, *args, **kwargs):
        return fn(u, M, level, recorder.wrap(integrand, INTEGRAND), *args, **kwargs)
    return call


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _parent_rows(spans: np.ndarray):
    child = np.nonzero(spans["parent"] >= 0)[0]
    prow = np.searchsorted(spans["id"], spans["parent"][child])
    if child.size and not np.array_equal(spans["id"][prow], spans["parent"][child]):
        raise ValueError("a span's parent was not recorded")
    return child, prow


def cpu_self_times(spans: np.ndarray) -> np.ndarray:
    """Thread CPU self time (ns) of every span: its thread's CPU time over the
    span minus that of its children on the same thread."""
    dur = spans["cpu_end"] - spans["cpu_start"]
    child, prow = _parent_rows(spans)
    same = spans["thread"][child] == spans["thread"][prow]
    return dur - np.bincount(prow[same], weights=dur[child[same]],
                             minlength=spans.size).astype(np.int64)


def pass_tables(spans: np.ndarray, names) -> dict:
    """pass id -> {name: (calls, CPU self ns, wall total ns)}."""
    cols = [np.ones(spans.size), cpu_self_times(spans), spans["end"] - spans["start"]]
    tables = {}
    for pass_id in np.unique(spans["pass"]):
        sel = spans["pass"] == pass_id
        ids = spans["name"][sel]
        sums = [np.bincount(ids, weights=c[sel], minlength=len(names)) for c in cols]
        tables[int(pass_id)] = {
            name: (int(sums[0][i]), float(sums[1][i]), float(sums[2][i]))
            for i, name in enumerate(names) if sums[0][i]}
    return tables
