"""Fuzz of the CLI contract with Hypothesis: each example takes a valid
compute, sweep or verify config, changes one key (a leaf, a list entry or a
whole object) to a value of the wrong type, zero, a negative, 1e300, an
empty list or an unknown string, and runs it.  The run must end with exit 0,
2 or 3 (1 only for a verify run whose suites ran and failed), print no
traceback, and name a key path on exit 2 that is the changed key, one of its
ancestors or one of its descendants.  Orders are tiny, so that the 100
derandomized examples take about a second."""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from curvatura.cli import main

HYPERBOLIC = {"family": "constant", "a": -1.0, "dim": 3}
TINY = {"angular_order": 4, "level_order": 2}

VALID = {
    "compute_radial": ("compute", {
        "schema_version": 1, "seed": 3, "manifold": HYPERBOLIC, "field": {"field": "radial"},
        "quadrature": TINY, "r": [0, 1], "level": 0.5}),
    "compute_quadratic": ("compute", {
        "schema_version": 1, "manifold": {"family": "euclidean", "dim": 3},
        "field": {"field": "quadratic", "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 4]],
                  "center": [0.0, 0.0, 0.1]},
        "quadrature": TINY, "r": 1, "levels": [0.5, 1.0]}),
    "compute_offcenter": ("compute", {
        "schema_version": 1, "manifold": HYPERBOLIC, "field": {"field": "offcenter", "offset": 0.3},
        "quadrature": TINY, "r": 1, "level": 0.7}),
    "sweep_sphere": ("sweep", {
        "schema_version": 1, "manifold": {"family": "warped", "profile": "poly3", "dim": 3},
        "sweep": {"kind": "sphere", "rho": {"grid": [0.5, 1.0]}, "r": [0, 2]}}),
    "sweep_levels": ("sweep", {
        "schema_version": 1, "manifold": HYPERBOLIC,
        "field": {"field": "radial_sq", "center": [0.0, 0.0, 0.0]}, "quadrature": TINY,
        "sweep": {"kind": "levels",
                  "levels": {"start": 0.2, "stop": 0.5, "num": 2, "spacing": "log"},
                  "r": 1}}),
    "sweep_ball": ("sweep", {
        "schema_version": 1,
        "sweep": {"kind": "ball_bound", "a_grid": [0.0, -1.0], "rho": 1.0, "r": [1], "dim": 3}}),
    "verify": ("verify", {
        "schema_version": 1, "seed": 5, "suites": ["asymptotic"],
        "tolerances": {"slope": 0.02, "gauss_limit": 0.01}}),
}

BAD_VALUES = [None, True, {}, "bogus", [], 0, -1, -1e300, 1e300]


def key_paths(obj, prefix="", keys=()):
    """(display path, access keys) of every node below obj, in the CLI's
    key-path notation: a.b for objects, a[1] for lists."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for k, v in items:
        if isinstance(obj, dict):
            path = f"{prefix}.{k}" if prefix else k
        else:
            path = f"{prefix}[{k}]"
        yield path, keys + (k,)
        if isinstance(v, (dict, list)):
            yield from key_paths(v, path, keys + (k,))


MUTATIONS = [(name, path, keys) for name, (_, cfg) in VALID.items()
             for path, keys in key_paths(cfg)]


def run_cli(command, obj):
    """(exit code, stderr, verify summary or None) of one in-process run."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.json"
        cfg.write_text(json.dumps(obj))
        out = Path(tmp) / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + (["--quick"] if command == "verify" else []))
        summary = out / "verify_summary.json"
        return code, err.getvalue(), json.loads(summary.read_text()) if summary.exists() else None


def related(named, changed):
    """The named key path is the changed one, an ancestor or a descendant."""
    def prefix_of(a, b):
        return a == b or b.startswith(a + ".") or b.startswith(a + "[")
    return prefix_of(named, changed) or prefix_of(changed, named)


@pytest.mark.parametrize("name", sorted(VALID))
def test_unchanged_configs_run(name):
    command, obj = VALID[name]
    code, err, _ = run_cli(command, obj)
    assert code == 0, err


# a 1e300 entry in Q or a center overflows the field's value to inf, which
# the root solve then refuses (exit 3)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(mutation=st.sampled_from(MUTATIONS), bad=st.sampled_from(BAD_VALUES))
def test_one_bad_key_exits_cleanly(mutation, bad):
    name, path, keys = mutation
    command, obj = VALID[name]
    obj = copy.deepcopy(obj)
    node = obj
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = copy.deepcopy(bad)
    code, err, summary = run_cli(command, obj)
    assert "Traceback" not in err, err
    if code == 1:
        assert command == "verify" and summary is not None and summary["passed"] is False, err
        return
    assert code in (0, 2, 3), err
    if code == 2:
        m = re.match(r"config error: ([A-Za-z_][\w.\[\]]*): ", err)
        assert m, err
        assert related(m.group(1), path), (path, err)
