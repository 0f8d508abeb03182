"""Command-line front end.

    curvatura compute --config cfg.json --out dir [--threads N]
    curvatura verify  --config cfg.json --out dir [--threads N] [--quick]
    curvatura sweep   --config cfg.json --out dir [--threads N]

The JSON config is schema-validated before any computation; violations are
rejected with the offending key path.  CURVATURA_SEED overrides the config
seed.  Exit codes: 0 success (for verify: aggregate pass), 2 config error,
3 geometry/degeneracy error, 1 internal error or aggregate failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from .errors import (
    ChartSingularityError,
    ConfigError,
    CurvaturaError,
    DegenerateGradientError,
    GeometryError,
)
from .model_manifolds import (
    ModelManifold,
    constant_curvature,
    euclidean,
    profile_by_name,
    sphere_total_mean_curvature,
    warped,
)
from .level_set_geometry import field_from_spec
from .quadrature import QuadratureSpec
from .curvature_integrals import (
    BREAKDOWN_COLUMNS,
    MCR_COLUMNS,
    ball_bound,
    comparison_rhs,
    total_mean_curvature,
)
from .reporting import fmt_value, write_csv, write_json
from .verification import CASE_COLUMNS, SUITE_NAMES, TOLERANCE_KEYS, SuiteConfig, run_suite

SCHEMA_VERSION = 1
DEFAULT_SEED = 20240817


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _check_keys(d: dict, path: str, allowed: set, required: set = frozenset()):
    for k in d:
        if k not in allowed:
            _fail(f"{path}.{k}" if path else k, f"unknown key (allowed: {sorted(allowed)})")
    for k in required:
        if k not in d:
            _fail(f"{path}.{k}" if path else k, "required key is missing")


def _check_number(v, path, lo=None, hi=None):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(path, f"expected a number, got {type(v).__name__}")
    if not math.isfinite(v):
        _fail(path, f"expected a finite number, got {v}")
    if lo is not None and v < lo:
        _fail(path, f"expected >= {lo}, got {v}")
    if hi is not None and v > hi:
        _fail(path, f"expected <= {hi}, got {v}")
    return float(v)


def _check_int(v, path, lo=None, hi=None):
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(path, f"expected an integer, got {type(v).__name__}")
    if lo is not None and v < lo:
        _fail(path, f"expected >= {lo}, got {v}")
    if hi is not None and v > hi:
        _fail(path, f"expected <= {hi}, got {v}")
    return v


def _check_vector(v, path, lo=None, hi=None):
    if not isinstance(v, list) or not v:
        _fail(path, "expected a nonempty list of numbers")
    return [_check_number(x, f"{path}[{i}]", lo, hi) for i, x in enumerate(v)]


def _validate_manifold(d, path="manifold"):
    if not isinstance(d, dict):
        _fail(path, "expected an object")
    _check_keys(d, path, {"family", "a", "profile", "dim"}, {"family", "dim"})
    fam = d["family"]
    if fam not in ("euclidean", "constant", "warped"):
        _fail(f"{path}.family", f"expected euclidean|constant|warped, got {fam!r}")
    n = _check_int(d["dim"], f"{path}.dim", 2, 6)
    if fam == "euclidean":
        if "a" in d or "profile" in d:
            _fail(path, "euclidean takes neither 'a' nor 'profile'")
        return euclidean(n)
    if fam == "constant":
        if "a" not in d:
            _fail(f"{path}.a", "required for the constant family")
        a = _check_number(d["a"], f"{path}.a", hi=0.0)
        if "profile" in d:
            _fail(f"{path}.profile", "the constant family fixes its own profile")
        try:
            return constant_curvature(a, n)
        except ValueError as e:
            _fail(f"{path}.a", str(e))
    if "profile" not in d:
        _fail(f"{path}.profile", "required for the warped family")
    if d["profile"] not in ("sinh", "linear", "poly3"):
        _fail(f"{path}.profile", f"expected sinh|linear|poly3, got {d['profile']!r}")
    if "a" in d:
        _fail(f"{path}.a", "the warped family takes no 'a'")
    return warped(profile_by_name(d["profile"]), n)


def _validate_field(d, M, path="field"):
    if not isinstance(d, dict):
        _fail(path, "expected an object")
    _check_keys(d, path, {"field", "center", "Q", "offset"}, {"field"})
    kind = d["field"]
    if kind not in ("radial", "radial_sq", "quadratic", "offcenter"):
        _fail(f"{path}.field", f"expected radial|radial_sq|quadratic|offcenter, got {kind!r}")
    if "center" in d:
        if kind == "offcenter":
            _fail(f"{path}.center", "offcenter fields are centred `offset` along the "
                                    "first axis and take no 'center'")
        c = _check_vector(d["center"], f"{path}.center")
        if len(c) != M.dim:
            _fail(f"{path}.center", f"expected length {M.dim}, got {len(c)}")
    if kind == "quadratic":
        if "Q" not in d:
            _fail(f"{path}.Q", "required for quadratic fields")
        Q = d["Q"]
        if (not isinstance(Q, list) or len(Q) != M.dim
                or any(not isinstance(row, list) or len(row) != M.dim for row in Q)):
            _fail(f"{path}.Q", f"expected a {M.dim}x{M.dim} matrix")
        for i, row in enumerate(Q):
            for j, x in enumerate(row):
                _check_number(x, f"{path}.Q[{i}][{j}]")
    elif "Q" in d:
        _fail(f"{path}.Q", f"only quadratic fields take 'Q'")
    if kind == "offcenter":
        if "offset" in d:
            _check_number(d["offset"], f"{path}.offset", lo=1e-12)
    elif "offset" in d:
        _fail(f"{path}.offset", "only offcenter takes 'offset'")
    try:
        return field_from_spec(d, M)
    except ValueError as e:
        _fail(path, str(e))


def _validate_quadrature(d, n, path="quadrature"):
    if d is None:
        return QuadratureSpec()
    if not isinstance(d, dict):
        _fail(path, "expected an object")
    _check_keys(d, path, {"angular_order", "level_order", "margin"})
    ang = d.get("angular_order", 16)
    if isinstance(ang, list):
        if len(ang) not in (1, n - 1):
            _fail(f"{path}.angular_order",
                  f"expected one order or {n - 1} orders for dim {n}, got {len(ang)}")
        ang = tuple(_check_int(x, f"{path}.angular_order[{i}]", 2)
                    for i, x in enumerate(ang))
    else:
        ang = (_check_int(ang, f"{path}.angular_order", 2),)
    lvl = _check_int(d.get("level_order", 8), f"{path}.level_order", 2)
    margin = _check_number(d.get("margin", 1e-6), f"{path}.margin", 1e-12, 1e-3)
    return QuadratureSpec(angular_orders=ang, level_order=lvl, margin=margin)


def _validate_r(v, n, path="r", lo=-1):
    """Orders r in [lo, n - 1]; r = -1 asks for the enclosed volume."""
    if isinstance(v, list):
        if not v:
            _fail(path, "expected an integer or a nonempty list of integers")
        return [_check_int(x, f"{path}[{i}]", lo, n - 1) for i, x in enumerate(v)]
    return [_check_int(v, path, lo, n - 1)]


_TOP_KEYS = {"schema_version", "seed", "manifold", "field", "quadrature", "r",
             "level", "levels", "suites", "sweep", "tolerances"}


def load_config(path: str) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"config: cannot read {path}: {e}")
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    _check_keys(cfg, "", _TOP_KEYS, {"schema_version"})
    if cfg["schema_version"] != SCHEMA_VERSION:
        _fail("schema_version", f"expected {SCHEMA_VERSION}, got {cfg['schema_version']!r}")
    if "seed" in cfg:
        _check_int(cfg["seed"], "seed", 0)
    return cfg


def _resolve_seed(cfg) -> int:
    env = os.environ.get("CURVATURA_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"CURVATURA_SEED: expected an integer, got {env!r}")
    return int(cfg.get("seed", DEFAULT_SEED))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _print_table(columns, rows):
    widths = [max(len(c), *(len(fmt_value(r.get(c))[:22]) for r in rows)) if rows else len(c)
              for c in columns]
    print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    for r in rows:
        print("  ".join(fmt_value(r.get(c))[:22].ljust(w) for c, w in zip(columns, widths)))


def cmd_compute(cfg: dict, out: Path, threads: int) -> int:
    _check_keys(cfg, "", _TOP_KEYS - {"suites", "sweep", "tolerances"},
                {"schema_version", "manifold", "field"})
    M = _validate_manifold(cfg["manifold"])
    u = _validate_field(cfg["field"], M)
    spec = _validate_quadrature(cfg.get("quadrature"), M.dim)
    if "r" not in cfg:
        _fail("r", "required for compute")
    rs = _validate_r(cfg["r"], M.dim)
    if ("level" in cfg) == ("levels" in cfg):
        _fail("level", "compute needs exactly one of 'level' or 'levels'")
    if "level" in cfg:
        level = _check_number(cfg["level"], "level", lo=1e-12)
        rows = []
        for r in rs:
            rep = total_mean_curvature(u, M, level, r, spec, threads)
            rows.append(rep.to_record(M, u))
        write_csv(out / "mean_curvature.csv", MCR_COLUMNS, rows)
        write_json(out / "mean_curvature.json", rows)
        print(f"total mean curvatures at level {level:g}:")
        _print_table(MCR_COLUMNS, rows)
        return 0
    levels = _check_vector(cfg["levels"], "levels")
    if len(levels) != 2 or not levels[0] < levels[1]:
        _fail("levels", f"expected [c1, c2] with c1 < c2, got {levels}")
    rows = []
    for r in rs:
        if r < 0:
            _fail("r", "comparison breakdowns need r >= 0")
        bd = comparison_rhs(u, M, tuple(levels), r, spec, threads)
        rows.append(bd.to_record())
    write_csv(out / "comparison.csv", BREAKDOWN_COLUMNS, rows)
    write_json(out / "comparison.json", rows)
    print(f"comparison breakdowns over levels ({levels[0]:g}, {levels[1]:g}):")
    _print_table(BREAKDOWN_COLUMNS, rows)
    return 0


def cmd_verify(cfg: dict, out: Path, threads: int, quick: bool) -> int:
    _check_keys(cfg, "", {"schema_version", "seed", "suites", "tolerances"},
                {"schema_version"})
    suites = cfg.get("suites", "all")
    if suites == "all":
        suites = list(SUITE_NAMES)
    if not isinstance(suites, list) or not suites:
        _fail("suites", "expected 'all' or a nonempty list of suite names")
    for i, s in enumerate(suites):
        if s not in SUITE_NAMES:
            _fail(f"suites[{i}]", f"unknown suite {s!r} (expected one of {SUITE_NAMES})")
    tolerances = cfg.get("tolerances", {})
    if not isinstance(tolerances, dict):
        _fail("tolerances", "expected an object")
    _check_keys(tolerances, "tolerances", set(TOLERANCE_KEYS))
    for k, v in tolerances.items():
        _check_number(v, f"tolerances.{k}", lo=0.0)
    seed = _resolve_seed(cfg)
    all_passed = True
    summary = []
    for name in suites:
        rep = run_suite(SuiteConfig(suite=name, seed=seed, quick=quick,
                                    threads=threads, tolerances=tolerances))
        write_csv(out / f"suite_{name}.csv", CASE_COLUMNS, rep.to_rows())
        write_json(out / f"suite_{name}.json", rep.to_json_dict())
        n_fail = len(rep.failures())
        status = "PASS" if rep.passed else f"FAIL ({n_fail} cases)"
        print(f"suite {name}: {status} [{len(rep.cases)} cases]")
        for c in rep.failures():
            print(f"  FAIL {c.case_id}: measured {fmt_value(c.measured)} "
                  f"tolerance {fmt_value(c.tolerance)}")
        summary.append({"suite": name, "passed": rep.passed, "cases": len(rep.cases),
                        "failures": n_fail})
        all_passed &= rep.passed
    write_json(out / "verify_summary.json",
               {"passed": all_passed, "seed": seed, "quick": quick, "suites": summary})
    print(f"aggregate: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


def _sweep_grid(d, path, lo=None, hi=None):
    """A grid of numbers in [lo, hi]: an explicit 'grid', or 'start'/'stop'/
    'num' with linear or log 'spacing'."""
    if not isinstance(d, dict):
        _fail(path, "expected an object")
    _check_keys(d, path, {"grid", "start", "stop", "num", "spacing"})
    if "grid" in d:
        return _check_vector(d["grid"], f"{path}.grid", lo, hi)
    if "start" not in d or "stop" not in d or "num" not in d:
        _fail(path, "expected either 'grid' or 'start'/'stop'/'num'")
    start = _check_number(d["start"], f"{path}.start", lo, hi)
    stop = _check_number(d["stop"], f"{path}.stop", lo, hi)
    num = _check_int(d["num"], f"{path}.num", 2)
    spacing = d.get("spacing", "linear")
    if spacing == "log":
        for key, v in (("start", start), ("stop", stop)):
            if v <= 0:
                _fail(f"{path}.{key}", "log spacing needs start and stop > 0")
        return list(np.geomspace(start, stop, num))
    if spacing != "linear":
        _fail(f"{path}.spacing", f"expected linear|log, got {spacing!r}")
    return list(np.linspace(start, stop, num))


def cmd_sweep(cfg: dict, out: Path, threads: int) -> int:
    _check_keys(cfg, "", _TOP_KEYS - {"level", "levels", "suites", "r", "tolerances"},
                {"schema_version", "sweep"})
    sw = cfg["sweep"]
    if not isinstance(sw, dict):
        _fail("sweep", "expected an object")
    kind = sw.get("kind")
    if kind == "sphere":
        _check_keys(sw, "sweep", {"kind", "rho", "r"}, {"kind", "rho", "r"})
        M = _validate_manifold(cfg.get("manifold") or _fail("manifold", "required"))
        grid = _sweep_grid(sw["rho"], "sweep.rho", 1e-12, M.working_radius)
        rs = _validate_r(sw["r"], M.dim, "sweep.r", lo=0)
        rows = [{"model": M.label, "n": M.dim, "r": r, "rho": rho,
                 "value": sphere_total_mean_curvature(M, r, rho)}
                for r in rs for rho in grid]
        columns = ("model", "n", "r", "rho", "value")
    elif kind == "ball_bound":
        _check_keys(sw, "sweep", {"kind", "a_grid", "rho", "r", "dim"},
                    {"kind", "a_grid", "rho", "r", "dim"})
        n = _check_int(sw["dim"], "sweep.dim", 2, 6)
        a_grid = _check_vector(sw["a_grid"], "sweep.a_grid", hi=0.0)
        for i, a in enumerate(a_grid):
            try:
                constant_curvature(a, n)
            except ValueError as e:
                _fail(f"sweep.a_grid[{i}]", str(e))
        rho = _check_number(sw["rho"], "sweep.rho", 1e-12, ModelManifold.working_radius)
        rs = _validate_r(sw["r"], n, "sweep.r", lo=0)
        rows = [{"a": a, "n": n, "r": r, "rho": rho,
                 "value": ball_bound(r, rho, a, n)}
                for a in a_grid for r in rs]
        columns = ("a", "n", "r", "rho", "value")
    elif kind == "levels":
        _check_keys(sw, "sweep", {"kind", "levels", "r"}, {"kind", "levels", "r"})
        M = _validate_manifold(cfg.get("manifold") or _fail("manifold", "required"))
        u = _validate_field(cfg.get("field") or _fail("field", "required"), M)
        spec = _validate_quadrature(cfg.get("quadrature"), M.dim)
        grid = _sweep_grid(sw["levels"], "sweep.levels")
        rs = _validate_r(sw["r"], M.dim, "sweep.r")
        rows = []
        for r in rs:
            for lev in grid:
                rep = total_mean_curvature(u, M, lev, r, spec, threads)
                rows.append(rep.to_record(M, u))
        columns = MCR_COLUMNS
    else:
        _fail("sweep.kind", f"expected sphere|ball_bound|levels, got {kind!r}")
    write_csv(out / "sweep.csv", columns, rows)
    print(f"sweep '{kind}': {len(rows)} rows -> {out / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(prog="curvatura",
                                 description="Total mean curvatures of level-set "
                                             "hypersurfaces in model manifolds.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("compute", "verify", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default="out", help="output directory (created)")
        p.add_argument("--threads", type=int, default=1, help="worker-thread cap")
        if name == "verify":
            p.add_argument("--quick", action="store_true", help="reduced grids")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.threads < 1:
            raise ConfigError("--threads: expected >= 1")
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"--out: cannot create {out}: {e}")
        if args.command == "compute":
            return cmd_compute(cfg, out, args.threads)
        if args.command == "verify":
            return cmd_verify(cfg, out, args.threads, args.quick)
        return cmd_sweep(cfg, out, args.threads)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (GeometryError, DegenerateGradientError, ChartSingularityError) as e:
        print(f"geometry error: {e}", file=sys.stderr)
        return 3
    except CurvaturaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
