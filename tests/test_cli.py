"""CLI tests: schema validation with key-path messages, exit codes, output
files, seed override, and sweep shapes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from curvatura.cli import main
from curvatura.level_set_geometry import sphere_direction


def write_cfg(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


BASE_COMPUTE = {
    "schema_version": 1,
    "manifold": {"family": "euclidean", "dim": 3},
    "field": {"field": "radial_sq"},
    "quadrature": {"angular_order": 16, "level_order": 8},
    "r": 1,
    "level": 0.5,
}


class TestCompute:
    def test_sphere_m1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", BASE_COMPUTE)
        out = tmp_path / "out"
        assert main(["compute", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "mean_curvature.csv").read_text().splitlines()
        header, row = rows[0].split(","), rows[1].split(",")
        value = float(row[header.index("value")])
        assert value == pytest.approx(8 * math.pi, rel=1e-9)
        assert (out / "mean_curvature.json").exists()

    def test_comparison_breakdown(self, tmp_path):
        obj = dict(BASE_COMPUTE)
        del obj["level"]
        obj["levels"] = [0.5, 1.0]
        obj["r"] = [0, 1]
        cfg = write_cfg(tmp_path, "c.json", obj)
        out = tmp_path / "out"
        assert main(["compute", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "comparison.csv").read_text().splitlines()
        assert len(rows) == 3
        header = rows[0].split(",")
        for line in rows[1:]:
            row = dict(zip(header, line.split(",")))
            assert abs(float(row["residual"])) <= float(row["error_budget"])

    def test_warped_comparison_breakdown(self, tmp_path):
        obj = {
            "schema_version": 1,
            "manifold": {"family": "warped", "profile": "poly3", "dim": 4},
            "field": {"field": "radial"},
            "quadrature": {"angular_order": 8, "level_order": 6},
            "r": 2,
            "levels": [0.5, 1.0],
        }
        cfg = write_cfg(tmp_path, "c.json", obj)
        out = tmp_path / "out"
        assert main(["compute", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "comparison.csv").read_text().splitlines()
        header = rows[0].split(",")
        row = dict(zip(header, rows[1].split(",")))
        assert abs(float(row["residual"])) <= float(row["error_budget"])
        assert float(row["term_sectional"]) > 0  # curvature correction present

    def test_hyperbolic_sphere_value(self, tmp_path):
        obj = dict(BASE_COMPUTE)
        obj["manifold"] = {"family": "constant", "a": -1.0, "dim": 3}
        obj["field"] = {"field": "radial"}
        obj["r"] = 2
        obj["level"] = 1.0
        cfg = write_cfg(tmp_path, "c.json", obj)
        out = tmp_path / "out"
        assert main(["compute", "--config", cfg, "--out", str(out)]) == 0
        row = (out / "mean_curvature.csv").read_text().splitlines()[1].split(",")
        assert float(row[5]) == pytest.approx(4 * math.pi * math.cosh(1) ** 2, rel=1e-7)


class TestConfigValidation:
    def test_unknown_key_path(self, tmp_path, capsys):
        obj = dict(BASE_COMPUTE, bogus=1)
        cfg = write_cfg(tmp_path, "c.json", obj)
        assert main(["compute", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_bad_dim_path_in_message(self, tmp_path, capsys):
        obj = dict(BASE_COMPUTE, manifold={"family": "euclidean", "dim": 9})
        cfg = write_cfg(tmp_path, "c.json", obj)
        assert main(["compute", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "manifold.dim" in capsys.readouterr().err

    def test_missing_schema_version(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {"manifold": BASE_COMPUTE["manifold"]})
        assert main(["compute", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_wrong_schema_version(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", dict(BASE_COMPUTE, schema_version=2))
        assert main(["compute", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_both_level_and_levels(self, tmp_path, capsys):
        obj = dict(BASE_COMPUTE, levels=[0.5, 1.0])
        cfg = write_cfg(tmp_path, "c.json", obj)
        assert main(["compute", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_quadratic_field_shape_error(self, tmp_path, capsys):
        obj = dict(BASE_COMPUTE, field={"field": "quadratic", "Q": [[1, 0], [0, 1]]})
        cfg = write_cfg(tmp_path, "c.json", obj)
        assert main(["compute", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "field.Q" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["compute", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


HYPERBOLIC = {"family": "constant", "a": -1.0, "dim": 3}
TINY_QUADRATURE = {"angular_order": 4, "level_order": 2}


def compute_cfg(**changes):
    return dict(BASE_COMPUTE, quadrature=TINY_QUADRATURE, **changes)


def comparison_cfg(**changes):
    """compute_cfg asking for comparison breakdowns over the levels [0.5, 1.0]."""
    obj = dict(compute_cfg(**changes), levels=[0.5, 1.0])
    del obj["level"]
    return obj


@pytest.mark.parametrize("command,obj,code,names", [
    # the schema version is the integer 1, not a value equal to it
    ("compute", compute_cfg(schema_version=True), 2, "schema_version"),
    ("compute", compute_cfg(schema_version=1.0), 2, "schema_version"),
    # a field that does not fit its model is refused when it is built, by its
    # check(M): naming the center of a radial field, the field otherwise
    ("compute", compute_cfg(manifold=HYPERBOLIC,
                            field={"field": "radial", "center": [0.3, 0.0, 0.0]}),
     2, "field.center: "),
    ("compute", compute_cfg(manifold=HYPERBOLIC,
                            field={"field": "radial_sq", "center": [0.0, 0.0, -0.2]}),
     2, "field.center: "),
    ("compute", compute_cfg(manifold=HYPERBOLIC,
                            field={"field": "quadratic", "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 4]]}),
     2, "field: quadratic fields are Cartesian-chart only"),
    ("compute", compute_cfg(manifold={"family": "warped", "profile": "poly3", "dim": 3},
                            field={"field": "offcenter", "offset": 0.3}),
     2, "field: off-center distance has no closed form"),
    # constructor errors name the key they read
    ("compute", compute_cfg(field={"field": "quadratic", "Q": [[1, 0, 0], [0.5, 1, 0], [0, 0, 4]]}),
     2, "field.Q: Q must be symmetric"),
    ("compute", compute_cfg(field={"field": "quadratic", "Q": [[1, 0, 0], [0, -1, 0], [0, 0, 4]]}),
     2, "field.Q: Q must be positive definite"),
    ("compute", compute_cfg(field={"field": "quadratic", "Q": [[1e308, 0, 0], [0, 1, 0], [0, 0, 4]]}),
     2, "field.Q: matrix entry"),
    ("compute", compute_cfg(manifold=HYPERBOLIC, field={"field": "offcenter", "offset": 12}),
     2, "field.offset: expected <= 10"),
    ("compute", compute_cfg(field={"field": "nope"}), 2, "field.field: expected radial"),
    ("compute", compute_cfg(field={"field": "quadratic"}), 2, "field.Q: required"),
    # an off-center field is centred by its offset, never by a center
    ("compute", compute_cfg(manifold=HYPERBOLIC, level=0.8,
                            field={"field": "offcenter", "offset": 0.3, "center": [5, 0, 0]}),
     2, "field.center"),
    # tolerances: numbers under known keys only
    ("verify", {"schema_version": 1, "suites": ["asymptotic"], "tolerances": {"slope": "abc"}},
     2, "tolerances.slope"),
    ("verify", {"schema_version": 1, "suites": ["asymptotic"], "tolerances": {"slop": 0.1}},
     2, "tolerances.slop"),
    ("verify", {"schema_version": 1, "suites": ["asymptotic"], "tolerances": {"slope": -1}},
     2, "tolerances.slope"),
    # a JSON integer beyond the double range is refused by its key
    ("compute", compute_cfg(level=10 ** 400), 2, "level: expected a finite number"),
    ("compute", compute_cfg(manifold={"family": "constant", "a": 10 ** 400, "dim": 3}),
     2, "manifold.a: expected a finite number"),
    ("compute", compute_cfg(field={"field": "quadratic",
                                   "Q": [[10 ** 400, 0, 0], [0, 1, 0], [0, 0, 4]]}),
     2, "field.Q[0][0]: expected a finite number"),
    ("verify", {"schema_version": 1, "suites": ["asymptotic"],
                "tolerances": {"slope": 10 ** 400}},
     2, "tolerances.slope: expected a finite number"),
    # quadrature orders above MAX_ORDER are refused by their key before any
    # rule is built (an order of 10^7 asked Gauss-Legendre for 728 TiB)
    ("compute", dict(compute_cfg(), quadrature={"angular_order": 10 ** 7}),
     2, "quadrature.angular_order: expected <= 1024"),
    ("compute", dict(compute_cfg(), quadrature={"angular_order": [8, 10 ** 7]}),
     2, "quadrature.angular_order[1]: expected <= 1024"),
    ("compute", dict(comparison_cfg(), quadrature={"angular_order": 4, "level_order": 10 ** 7}),
     2, "quadrature.level_order: expected <= 1024"),
    # the Gauss product rule has no polar margin, and its old key is refused
    ("compute", dict(compute_cfg(), quadrature={"angular_order": 8, "margin": 1e-6}),
     2, "quadrature.margin: unknown key"),
    ("sweep", {"schema_version": 1, "manifold": HYPERBOLIC, "field": {"field": "radial"},
               "quadrature": {"angular_order": 1025},
               "sweep": {"kind": "levels", "levels": {"grid": [0.5]}, "r": [1]}},
     2, "quadrature.angular_order: expected <= 1024"),
    # a rule of more than MAX_NODES nodes is refused by the angular orders'
    # key before any grid is built (orders of 1024 in dimension 6 asked the
    # angular grid for 8 PiB); a comparison counts its coarea rule, orders
    # times level order, and a levels sweep its surface rule
    ("compute", dict(compute_cfg(manifold={"family": "euclidean", "dim": 6}),
                     quadrature={"angular_order": 1024}),
     2, "quadrature.angular_order: expected a rule of at most 8388608 nodes"),
    ("compute", dict(comparison_cfg(), quadrature={"angular_order": 1024, "level_order": 1024}),
     2, "times level_order), got 1073741824"),
    ("sweep", {"schema_version": 1, "manifold": {"family": "constant", "a": -1.0, "dim": 4},
               "field": {"field": "radial"}, "quadrature": {"angular_order": [1024, 1024, 16]},
               "sweep": {"kind": "levels", "levels": {"grid": [0.5]}, "r": [1]}},
     2, "quadrature.angular_order: expected a rule of at most 8388608 nodes"),
    # radii and levels out of range; no level <= 0 encloses the base point
    ("compute", dict(comparison_cfg(), levels=[-1.0, 0.5]), 2, "levels[0]: expected >= 1e-12"),
    ("sweep", {"schema_version": 1, "manifold": HYPERBOLIC, "field": {"field": "radial"},
               "sweep": {"kind": "levels", "levels": {"grid": [-1.0, 0.5]}, "r": [1]}},
     2, "sweep.levels.grid[0]: expected >= 1e-12"),
    ("sweep", {"schema_version": 1, "manifold": HYPERBOLIC, "field": {"field": "radial"},
               "sweep": {"kind": "levels", "levels": {"start": -1.0, "stop": 0.5, "num": 3},
                         "r": [1]}},
     2, "sweep.levels.start: expected >= 1e-12"),
    ("sweep", {"schema_version": 1, "manifold": HYPERBOLIC,
               "sweep": {"kind": "sphere", "rho": {"grid": [0.5, -1]}, "r": [1]}},
     2, "sweep.rho.grid[1]"),
    ("sweep", {"schema_version": 1, "manifold": HYPERBOLIC,
               "sweep": {"kind": "sphere", "rho": {"grid": [0.5, 1e300]}, "r": [1]}},
     2, "sweep.rho.grid[1]"),
    # each sweep kind refuses the top-level keys it does not read
    ("sweep", {"schema_version": 1, "manifold": HYPERBOLIC, "field": {"field": "radial"},
               "sweep": {"kind": "sphere", "rho": {"grid": [0.5]}, "r": [1]}},
     2, "field: unknown key"),
    ("sweep", {"schema_version": 1, "manifold": HYPERBOLIC, "quadrature": TINY_QUADRATURE,
               "sweep": {"kind": "sphere", "rho": {"grid": [0.5]}, "r": [1]}},
     2, "quadrature: unknown key"),
    ("sweep", {"schema_version": 1, "manifold": HYPERBOLIC,
               "sweep": {"kind": "ball_bound", "a_grid": [-1.0], "rho": 1.0, "r": [1], "dim": 3}},
     2, "manifold: unknown key"),
    ("sweep", {"schema_version": 1, "field": {"field": "radial"},
               "sweep": {"kind": "ball_bound", "a_grid": [-1.0], "rho": 1.0, "r": [1], "dim": 3}},
     2, "field: unknown key"),
    # every order is checked before the first breakdown runs
    ("compute", comparison_cfg(r=[0, 1, -1]), 2, "r[2]: comparison breakdowns need r >= 0"),
    ("compute", comparison_cfg(r=-1), 2, "r: comparison breakdowns need r >= 0"),
    ("compute", compute_cfg(field={"field": "radial"}, level=1e300), 3, "working radius"),
    ("compute", compute_cfg(field={"field": "radial"}, r=-1, level=1e300), 3, "working radius"),
    # a ball off the base point reaches its centre's distance plus its radius
    ("compute", compute_cfg(manifold=HYPERBOLIC, field={"field": "offcenter", "offset": 0.3},
                            r=[-1], level=9.9), 3, "working radius"),
    ("compute", compute_cfg(field={"field": "radial", "center": [5.0, 0.0, 0.0]},
                            r=-1, level=6.0), 3, "working radius"),
    # the enclosed volume refuses what M_r (r >= 0) refuses: a set that does not
    # contain the base point, and an ellipsoid whose farthest point lies too far
    ("compute", compute_cfg(manifold=HYPERBOLIC, field={"field": "offcenter", "offset": 0.3},
                            r=[-1], level=0.2), 3, "does not enclose the ray origin"),
    ("compute", compute_cfg(field={"field": "radial", "center": [5.0, 0.0, 0.0]},
                            r=[-1], level=1.0), 3, "does not enclose the ray origin"),
    ("compute", compute_cfg(field={"field": "quadratic", "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                   "center": [8.0, 0.0, 0.0]}, r=[-1], level=2.0),
     3, "does not enclose the ray origin"),
    ("compute", compute_cfg(field={"field": "quadratic", "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                   "center": [5.0, 0.0, 0.0]}, r=[-1], level=18.0),
     3, "working radius"),
    # a suite runs once: a second listing would overwrite its reports
    ("verify", {"schema_version": 1, "suites": ["asymptotic", "asymptotic"]},
     2, "suites[1]: suite 'asymptotic' listed twice"),
])
def test_bad_config_exits_with_its_code(tmp_path, capsys, command, obj, code, names):
    cfg = write_cfg(tmp_path, "c.json", obj)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    assert main(argv + (["--quick"] if command == "verify" else [])) == code
    err = capsys.readouterr().err
    assert names in err and "Traceback" not in err


def test_the_order_cap_admits_its_bound():
    from curvatura.cli import MAX_ORDER, _validate_quadrature
    spec = _validate_quadrature({"angular_order": [MAX_ORDER, 8], "level_order": MAX_ORDER}, 3)
    assert spec.angular_orders == (MAX_ORDER, 8) and spec.level_order == MAX_ORDER


def test_the_node_cap_admits_its_bound():
    from curvatura.cli import MAX_NODES, MAX_ORDER, _validate_quadrature
    from curvatura.errors import ConfigError
    from curvatura.quadrature import QuadratureSpec
    default = QuadratureSpec()
    assert math.prod(default.angular_for(6)) * default.level_order == MAX_NODES
    assert _validate_quadrature({"angular_order": 16, "level_order": 8}, 6,
                                coarea=True) == default
    bound = {"angular_order": MAX_ORDER, "level_order": MAX_NODES // MAX_ORDER ** 2}
    assert _validate_quadrature(bound, 3, coarea=True).level_order == 8
    with pytest.raises(ConfigError, match="^quadrature.angular_order: .* got 9437184$"):
        _validate_quadrature(dict(bound, level_order=9), 3, coarea=True)
    assert _validate_quadrature(dict(bound, level_order=MAX_ORDER), 3).level_order == MAX_ORDER


def test_missing_orders_and_seed_are_the_library_defaults(tmp_path, monkeypatch):
    from curvatura.cli import _validate_quadrature
    from curvatura.quadrature import QuadratureSpec
    from curvatura.verification import SuiteConfig
    assert _validate_quadrature({}, 4) == QuadratureSpec()
    assert _validate_quadrature({"angular_order": 6}, 4).level_order == QuadratureSpec().level_order
    monkeypatch.delenv("CURVATURA_SEED", raising=False)
    cfg = write_cfg(tmp_path, "v.json", {"schema_version": 1, "suites": ["asymptotic"]})
    out = tmp_path / "o"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quick"]) == 0
    assert json.loads((out / "verify_summary.json").read_text())["seed"] == SuiteConfig.seed


def test_importing_the_cli_defers_the_suites():
    """compute and sweep start without compiling the verification suites:
    importing the CLI binds curvatura.verification as an import does, in
    sys.modules and on the package, but its body runs on first use."""
    code = ("import sys, curvatura, curvatura.cli; "
            "m = sys.modules['curvatura.verification']; "
            "print(curvatura.verification is m, "
            "'run_suite' in object.__getattribute__(m, '__dict__')); "
            "print(callable(m.run_suite), type(m) is type(sys))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert res.stdout.split("\n")[:2] == ["True False", "True True"]


# at angular order 4 in dimension 3 a level's rule has 4 * 4 = 16 nodes, so a
# node cap of 64 admits 4 levels, and 64 sphere radii
SMALL_CAP = 64


def sweep_cfg(kind, grid):
    if kind == "levels":
        return {"schema_version": 1, "manifold": HYPERBOLIC, "field": {"field": "radial"},
                "quadrature": TINY_QUADRATURE, "sweep": {"kind": kind, "levels": grid, "r": [1]}}
    return {"schema_version": 1, "manifold": HYPERBOLIC,
            "sweep": {"kind": kind, "rho": grid, "r": [1]}}


@pytest.mark.parametrize("kind,grid,message", [
    ("levels", {"start": 0.5, "stop": 1.0, "num": 5}, "sweep.levels.num: expected <= 4, got 5"),
    ("levels", {"grid": [0.5, 0.6, 0.7, 0.8, 0.9]},
     "sweep.levels.grid: expected at most 4 values, got 5"),
    ("sphere", {"start": 0.5, "stop": 1.0, "num": SMALL_CAP + 1},
     "sweep.rho.num: expected <= 64, got 65"),
    ("sphere", {"grid": [0.5] * (SMALL_CAP + 1)}, "sweep.rho.grid: expected at most 64 values"),
])
def test_sweep_grids_past_the_node_cap_are_refused(tmp_path, capsys, monkeypatch, kind, grid,
                                                   message):
    """A levels sweep joins every level's rule into one node stack, so its
    level count is capped at MAX_NODES over the nodes of one level, and a
    sphere sweep's radii at MAX_NODES: past either, it exits 2 naming its
    key before any grid is spaced or integral run."""
    from curvatura import cli
    monkeypatch.setattr(cli, "MAX_NODES", SMALL_CAP)
    reached = []
    monkeypatch.setattr(cli.np, "linspace", lambda *a, **k: reached.append(a))
    monkeypatch.setattr(cli, "total_mean_curvature", lambda *a, **k: reached.append(a))
    cfg = write_cfg(tmp_path, "s.json", sweep_cfg(kind, grid))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert reached == []


@pytest.mark.parametrize("kind,count", [("levels", SMALL_CAP // 16), ("sphere", SMALL_CAP)])
def test_sweep_grids_at_the_node_cap_are_run(tmp_path, monkeypatch, kind, count):
    from curvatura import cli
    monkeypatch.setattr(cli, "MAX_NODES", SMALL_CAP)
    for grid in ({"start": 0.5, "stop": 1.0, "num": count},
                 {"grid": [0.5 + 0.01 * k for k in range(count)]}):
        cfg = write_cfg(tmp_path, "s.json", sweep_cfg(kind, grid))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len((tmp_path / "o" / "sweep.csv").read_text().splitlines()) == count + 1


class RecordingPool:
    """A stand-in for ThreadPoolExecutor that starts no thread: it records
    the worker count asked for and maps on the calling thread."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


@pytest.mark.parametrize("threads,code", [(0, 2), (1, 0), (4, 0), (64, 0), (65, 2),
                                          (10 ** 6, 2)])
def test_threads_are_capped_before_any_pool_starts(tmp_path, capsys, monkeypatch,
                                                    threads, code):
    """--threads outside [1, MAX_THREADS] exits 2 naming the option before a
    pool is asked for; inside it, the pool is asked for at most that many
    workers.  The pool is replaced, so no thread is started."""
    from curvatura import cli, quadrature
    made = []
    monkeypatch.setattr(quadrature, "ThreadPoolExecutor",
                        lambda max_workers: RecordingPool(made, max_workers))
    # a 20-node stack (order 4 and its companion): a pool for every threads > 1
    cfg = write_cfg(tmp_path, "c.json", compute_cfg())
    assert main(["compute", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", str(threads)]) == code
    err = capsys.readouterr().err
    if code:
        assert f"--threads: expected an integer in [1, {cli.MAX_THREADS}]" in err
        assert made == []
    else:
        assert "Traceback" not in err
        assert made == ([] if threads == 1 else [threads])


@pytest.mark.parametrize("manifold,field,level", [
    (HYPERBOLIC, {"field": "offcenter", "offset": 0.3}, 9.6),
    ({"family": "euclidean", "dim": 3}, {"field": "radial", "center": [4.0, 0.0, 0.0]}, 5.9),
])
def test_ball_just_inside_the_working_radius_is_answered(tmp_path, manifold, field, level):
    obj = compute_cfg(manifold=manifold, field=field, r=-1, level=level)
    cfg = write_cfg(tmp_path, "c.json", obj)
    assert main(["compute", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_ellipsoid_inside_the_working_radius_is_answered(tmp_path):
    # centre distance 3 plus the longest semi-axis sqrt(80) passes the working
    # radius, but the farthest point of the ellipsoid lies at about 9.59
    field = {"field": "quadratic", "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 4]],
             "center": [0.0, 0.0, 3.0]}
    obj = compute_cfg(field=field, r=[-1, 0], level=40.0)
    cfg = write_cfg(tmp_path, "c.json", obj)
    assert main(["compute", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_centred_polar_field_is_accepted(tmp_path):
    obj = compute_cfg(manifold=HYPERBOLIC, field={"field": "radial", "center": [0.0, 0.0, 0.0]})
    cfg = write_cfg(tmp_path, "c.json", obj)
    assert main(["compute", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def compute_column(out, name, column):
    rows = (out / name).read_text().splitlines()
    header, row = rows[0].split(","), rows[1].split(",")
    return float(row[header.index(column)])


def test_quadratic_sphere_about_an_off_origin_centre(tmp_path):
    # grad u vanishes at the centre, inside the level set and on no
    # quadrature node, so the run must not be refused for it
    centre = 0.4 * sphere_direction([0.4, 0.0])
    obj = dict(BASE_COMPUTE, field={"field": "quadratic", "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                    "center": centre.tolist()},
               quadrature={"angular_order": 8, "level_order": 4}, level=4.5)
    cfg = write_cfg(tmp_path, "c.json", obj)
    out = tmp_path / "o"
    assert main(["compute", "--config", cfg, "--out", str(out)]) == 0
    # a sphere of radius 3: M_1 = 8 pi * 3
    assert compute_column(out, "mean_curvature.csv", "value") == pytest.approx(24 * math.pi,
                                                                              rel=1e-6)


def test_level_set_between_eight_and_the_working_radius(tmp_path):
    # a sphere of radius 9: every ray crosses it past the last doubled
    # bracket below the working radius 10
    obj = dict(BASE_COMPUTE, field={"field": "quadratic",
                                    "Q": [[0.02, 0, 0], [0, 0.02, 0], [0, 0, 0.02]]},
               quadrature={"angular_order": 8, "level_order": 4}, r=0, level=0.81)
    cfg = write_cfg(tmp_path, "c.json", obj)
    out = tmp_path / "o"
    assert main(["compute", "--config", cfg, "--out", str(out)]) == 0
    assert compute_column(out, "mean_curvature.csv", "value") == pytest.approx(4 * math.pi * 81,
                                                                              rel=1e-9)


class TestGeometryExit:
    def test_offcenter_level_below_offset(self, tmp_path, capsys):
        obj = {
            "schema_version": 1,
            "manifold": {"family": "constant", "a": -1.0, "dim": 3},
            "field": {"field": "offcenter", "offset": 0.5},
            "r": 1,
            "level": 0.2,
        }
        cfg = write_cfg(tmp_path, "c.json", obj)
        assert main(["compute", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


class TestVerify:
    def test_single_suite_pass(self, tmp_path):
        cfg = write_cfg(tmp_path, "v.json",
                        {"schema_version": 1, "suites": ["asymptotic"], "seed": 5})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out), "--quick"]) == 0
        assert (out / "suite_asymptotic.csv").exists()
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["passed"] is True

    def test_failing_tolerance_exits_nonzero(self, tmp_path):
        cfg = write_cfg(tmp_path, "v.json",
                        {"schema_version": 1, "suites": ["pointwise"],
                         "tolerances": {"reilly2": 0.0}})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out), "--quick"]) == 1
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["passed"] is False

    def test_unknown_suite_name(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "v.json",
                        {"schema_version": 1, "suites": ["nope"]})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "suites[0]" in capsys.readouterr().err

    def test_quick_csvs_are_byte_identical_across_runs_and_threads(self, tmp_path):
        # the determinism contract: reruns and --threads values write the
        # same CSV bytes
        cfg = write_cfg(tmp_path, "v.json", {"schema_version": 1, "seed": 12345,
                                             "suites": ["pointwise", "asymptotic"]})
        csvs = []
        for k, threads in enumerate(("1", "1", "2")):
            out = tmp_path / f"o{k}"
            assert main(["verify", "--config", cfg, "--out", str(out), "--quick",
                         "--threads", threads]) == 0
            csvs.append({f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))})
        assert sorted(csvs[0]) == ["suite_asymptotic.csv", "suite_pointwise.csv"]
        assert csvs[1] == csvs[0] and csvs[2] == csvs[0]

    def test_seed_env_override(self, tmp_path):
        cfg = write_cfg(tmp_path, "v.json",
                        {"schema_version": 1, "suites": ["asymptotic"], "seed": 5})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        os.environ["CURVATURA_SEED"] = "99"
        try:
            assert main(["verify", "--config", cfg, "--out", str(out1), "--quick"]) == 0
        finally:
            del os.environ["CURVATURA_SEED"]
        s = json.loads((out1 / "verify_summary.json").read_text())
        assert s["seed"] == 99

    @pytest.mark.parametrize("env", ["-5", "abc"])
    def test_bad_seed_env_exits_2(self, tmp_path, capsys, monkeypatch, env):
        # the config seed's check: an integer >= 0
        cfg = write_cfg(tmp_path, "v.json", {"schema_version": 1, "suites": ["pointwise"]})
        monkeypatch.setenv("CURVATURA_SEED", env)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--quick"]) == 2
        err = capsys.readouterr().err
        assert "CURVATURA_SEED" in err and "Traceback" not in err


class TestSweep:
    def test_sphere_sweep_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, "s.json", {
            "schema_version": 1,
            "manifold": {"family": "constant", "a": -1.0, "dim": 3},
            "sweep": {"kind": "sphere",
                      "rho": {"start": 0.01, "stop": 2.0, "num": 40, "spacing": "log"},
                      "r": [1]},
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 41
        header = rows[0].split(",")
        values = [float(dict(zip(header, r.split(",")))["value"]) for r in rows[1:]]
        assert values == sorted(values)  # M_1 grows with the radius

    def test_ball_bound_sweep(self, tmp_path):
        cfg = write_cfg(tmp_path, "s.json", {
            "schema_version": 1,
            "sweep": {"kind": "ball_bound", "a_grid": [0.0, -0.25, -0.5, -1.0],
                      "rho": 1.0, "r": [1, 2], "dim": 3},
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 9

    def test_levels_sweep_monotone(self, tmp_path):
        cfg = write_cfg(tmp_path, "s.json", {
            "schema_version": 1,
            "manifold": {"family": "constant", "a": -1.0, "dim": 3},
            "field": {"field": "radial"},
            "quadrature": {"angular_order": 8, "level_order": 4},
            "sweep": {"kind": "levels", "levels": {"start": 0.5, "stop": 2.0, "num": 4},
                      "r": [1, 2]},
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        header = rows[0].split(",")
        per_r = {}
        for line in rows[1:]:
            row = dict(zip(header, line.split(",")))
            per_r.setdefault(row["r"], []).append(float(row["value"]))
        for seq in per_r.values():
            assert seq == sorted(seq)

    def test_bad_kind(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "s.json",
                        {"schema_version": 1, "sweep": {"kind": "wat"}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "sweep.kind" in capsys.readouterr().err


class TestCsvFormat:
    def test_a_streamed_sweep_writes_the_bytes_of_its_rows(self, tmp_path, capsys):
        from curvatura.model_manifolds import constant_curvature, sphere_total_mean_curvature
        from oracles import csv_string
        cfg = write_cfg(tmp_path, "s.json", {
            "schema_version": 1, "manifold": HYPERBOLIC,
            "sweep": {"kind": "sphere", "rho": {"start": 0.01, "stop": 2.0, "num": 50},
                      "r": [0, 1, 2]}})
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert "sweep 'sphere': 150 rows" in capsys.readouterr().out
        M = constant_curvature(-1.0, 3)
        columns = ("model", "n", "r", "rho", "value")
        rows = [{"model": M.label, "n": 3, "r": r, "rho": rho,
                 "value": sphere_total_mean_curvature(M, r, rho)}
                for r in (0, 1, 2) for rho in np.linspace(0.01, 2.0, 50)]
        assert (out / "sweep.csv").read_bytes() == csv_string(columns, rows).encode("ascii")

    def test_seventeen_significant_digits(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", BASE_COMPUTE)
        out = tmp_path / "out"
        assert main(["compute", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "mean_curvature.csv").read_text()
        value_field = text.splitlines()[1].split(",")[5]
        # shortest-roundtrip would be fine too; 17 significant digits pins it
        assert float(value_field) == pytest.approx(8 * math.pi, rel=1e-9)
        assert len(value_field.replace(".", "").replace("-", "").lstrip("0")) >= 15
