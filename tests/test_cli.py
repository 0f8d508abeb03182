"""CLI tests: schema validation with key-path messages, exit codes, output
files, seed override, and sweep shapes."""

import json
import math
import os

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


@pytest.mark.parametrize("command,obj,code,names", [
    # a field that does not fit its chart is refused when it is built
    ("compute", compute_cfg(manifold=HYPERBOLIC,
                            field={"field": "radial", "center": [0.3, 0.0, 0.0]}), 2, "field"),
    ("compute", compute_cfg(manifold=HYPERBOLIC,
                            field={"field": "radial_sq", "center": [0.0, 0.0, -0.2]}), 2, "field"),
    ("compute", compute_cfg(manifold=HYPERBOLIC,
                            field={"field": "quadratic", "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 4]]}),
     2, "field"),
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
    # radii and levels out of range
    ("sweep", {"schema_version": 1, "manifold": HYPERBOLIC,
               "sweep": {"kind": "sphere", "rho": {"grid": [0.5, -1]}, "r": [1]}},
     2, "sweep.rho.grid[1]"),
    ("sweep", {"schema_version": 1, "manifold": HYPERBOLIC,
               "sweep": {"kind": "sphere", "rho": {"grid": [0.5, 1e300]}, "r": [1]}},
     2, "sweep.rho.grid[1]"),
    ("compute", compute_cfg(field={"field": "radial"}, level=1e300), 3, "working radius"),
    ("compute", compute_cfg(field={"field": "radial"}, r=-1, level=1e300), 3, "working radius"),
])
def test_bad_config_exits_with_its_code(tmp_path, capsys, command, obj, code, names):
    cfg = write_cfg(tmp_path, "c.json", obj)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    assert main(argv + (["--quick"] if command == "verify" else [])) == code
    err = capsys.readouterr().err
    assert names in err and "Traceback" not in err


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
    def test_seventeen_significant_digits(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", BASE_COMPUTE)
        out = tmp_path / "out"
        assert main(["compute", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "mean_curvature.csv").read_text()
        value_field = text.splitlines()[1].split(",")[5]
        # shortest-roundtrip would be fine too; 17 significant digits pins it
        assert float(value_field) == pytest.approx(8 * math.pi, rel=1e-9)
        assert len(value_field.replace(".", "").replace("-", "").lstrip("0")) >= 15
