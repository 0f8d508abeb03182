"""The benchmark's three workloads.

Each workload is one caller in a closed loop: `run_pass` makes one call of
the workload's work and returns when the result is complete.  `build` turns
the seed into the generated config and the inputs; the program sees the seed
only through that config.  `check` returns the pass's correctness checks as
(name, passed) pairs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

import curvatura.cli as cli
import curvatura.curvature_integrals as ci
from curvatura.level_set_geometry import QuadraticFormField, RadialDistanceField
from curvatura.model_manifolds import (
    constant_curvature,
    euclidean,
    sphere_total_mean_curvature,
)
from curvatura.quadrature import QuadratureSpec

NAMES = ("ellipsoid-flat", "hyperbolic-paths", "verify-quick")

# (angular order, level order) of the two library workloads: passes of a few
# seconds, so that a run holds several and the calibration around each pass
# tracks the host's speed (see README.md)
ORDERS = {"ellipsoid-flat": (12, 6), "hyperbolic-paths": (6, 4)}
LEVELS = (0.5, 1.0)
VERIFY_THREADS = 2
# The comparison and inequality suites take 35 of the 40 s of a full quick
# run, in ellipsoid and sphere quadratures that the two library workloads
# already time; a 40 s pass does not fit the benchmark's run budget.
VERIFY_SUITES = ["pointwise", "asymptotic"]

SPHERE_ORACLE_TOL = 1e-6
TWO_PATH_TOL = 1e-7
RICCI_PATH_TOL = 1e-9


def breakdown_fingerprint(breakdowns) -> bytes:
    """Every number of the breakdowns, exactly (json writes floats by repr)."""
    rows = [dict(bd.to_record(), meta=bd.meta) for bd in breakdowns]
    return json.dumps(rows, sort_keys=True, default=float).encode()


class ComparisonWorkload:
    """A pass of library calls that each return a ComparisonBreakdown."""

    def fingerprint(self, out) -> bytes:
        return breakdown_fingerprint(out)

    def relative_residuals(self, out, tap):
        return [abs(bd.residual) / bd.scale for bd in out]

    def check(self, out, tap):
        return [("fine_nodes_tallied", tap.fine_nodes == sum(bd.node_count for bd in out))]


class EllipsoidFlat(ComparisonWorkload):
    """Non-radial, flat: the ray root solve runs at every node and the
    curvature-tensor layer is short-circuited."""

    def __init__(self, config: dict):
        self.config = config
        self.M = euclidean(config["dim"])
        self.u = QuadraticFormField(np.diag(config["Q_diag"]))
        self.spec = QuadratureSpec(angular_orders=(config["angular_order"],),
                                   level_order=config["level_order"])
        self.levels = tuple(config["levels"])

    @staticmethod
    def make_config(seed: int) -> dict:
        a, l = ORDERS["ellipsoid-flat"]
        return {"seed": seed, "dim": 3, "Q_diag": [1.0, 1.0, 4.0], "levels": list(LEVELS),
                "r": [0, 1, 2], "angular_order": a, "level_order": l, "threads": 1}

    def run_pass(self):
        # ci.* is looked up at call time, so that traced runs reach the wrappers
        return [ci.comparison_rhs(self.u, self.M, self.levels, r, self.spec, 1)
                for r in self.config["r"]]

    def check(self, out, tap):
        checks = super().check(out, tap)
        for bd in out:
            checks.append((f"r={bd.r}/residual_within_budget", abs(bd.residual) <= bd.error_budget))
            checks.append((f"r={bd.r}/flat_terms_zero",
                           bd.term_sectional == 0.0 and bd.term_mixed == 0.0))
        return checks


class HyperbolicPaths(ComparisonWorkload):
    """Radial, curved: three comparison paths over r = 0..n-1; the root solve
    short-circuits and the time goes to the node geometry and curvature."""

    def __init__(self, config: dict):
        self.config = config
        self.M = constant_curvature(config["a"], config["dim"])
        self.u = RadialDistanceField()
        self.spec = QuadratureSpec(angular_orders=(config["angular_order"],),
                                   level_order=config["level_order"])
        self.levels = tuple(config["levels"])

    @staticmethod
    def make_config(seed: int) -> dict:
        a, l = ORDERS["hyperbolic-paths"]
        return {"seed": seed, "a": -1.0, "dim": 4, "levels": list(LEVELS),
                "r": [0, 1, 2, 3], "angular_order": a, "level_order": l, "threads": 1}

    def run_pass(self):
        args = (self.u, self.M, self.levels)
        out = []
        for r in self.config["r"]:
            out.append(ci.comparison_rhs(*args, r, self.spec, 1))
            out.append(ci.comparison_rhs_constant(*args, r, self.spec, 1))
        out.append(ci.ricci_comparison(*args, self.spec, 1))
        return out

    def check(self, out, tap):
        checks = super().check(out, tap)
        general = {bd.r: bd for bd in out if "path" not in bd.meta}
        c1, c2 = self.levels
        for bd in out:
            path = bd.meta.get("path", "general")
            oracle = (sphere_total_mean_curvature(self.M, bd.r, c2)
                      - sphere_total_mean_curvature(self.M, bd.r, c1))
            rel = abs(bd.lhs - oracle) / max(1.0, abs(oracle))
            checks.append((f"{path}/r={bd.r}/lhs_vs_sphere_oracle", rel <= SPHERE_ORACLE_TOL))
            ref = general[bd.r]
            if path == "constant":
                tot = ref.term_principal + ref.term_sectional + ref.term_mixed
                rel = abs(tot - (bd.term_principal + bd.term_sectional)) / ref.scale
                checks.append((f"constant/r={bd.r}/two_path", rel <= TWO_PATH_TOL))
            elif path == "ricci":
                rel = abs(bd.term_sectional - ref.term_sectional) / ref.scale
                checks.append(("ricci/r=1/ricci_path", rel <= RICCI_PATH_TOL))
        return checks


class VerifyQuick:
    """`curvatura verify --quick --threads 2` over VERIFY_SUITES, in-process."""

    def __init__(self, config: dict, workdir: Path):
        self.config = config
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(config, sort_keys=True))
        self.out_dir = workdir / "out"

    @staticmethod
    def make_config(seed: int) -> dict:
        return {"schema_version": 1, "suites": list(VERIFY_SUITES), "seed": seed}

    def argv(self):
        return ["verify", "--quick", "--threads", str(VERIFY_THREADS),
                "--config", str(self.config_path), "--out", str(self.out_dir)]

    def run_pass(self):
        if self.out_dir.exists():
            for f in self.out_dir.iterdir():
                f.unlink()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(self.argv())
        csvs = {f.name: f.read_bytes() for f in sorted(self.out_dir.glob("*.csv"))}
        written = sum(f.stat().st_size for f in self.out_dir.iterdir())
        return {"rc": rc, "csv": csvs, "bytes": written}

    def fingerprint(self, out) -> bytes:
        return b"".join(name.encode() + b"\n" + data for name, data in out["csv"].items())

    def relative_residuals(self, out, tap):
        """Comparison breakdowns, if a selected suite makes any, and the
        pointwise identities' relative residuals from the CSVs."""
        rel = [abs(bd.residual) / bd.scale for bd in tap.breakdowns]
        for data in out["csv"].values():
            for row in csv.DictReader(io.StringIO(data.decode("ascii"))):
                if row["metric"] == "max_rel_residual":
                    rel.append(abs(float(row["measured"])))
        return rel

    def check(self, out, tap):
        return [("exit_code_0", out["rc"] == 0),
                ("suite_csvs_written",
                 sorted(out["csv"]) == sorted(f"suite_{s}.csv" for s in VERIFY_SUITES))]


def build(name: str, seed: int, workdir: Path):
    """The workload `name` with its inputs generated from `seed`."""
    if name == "ellipsoid-flat":
        return EllipsoidFlat(EllipsoidFlat.make_config(seed))
    if name == "hyperbolic-paths":
        return HyperbolicPaths(HyperbolicPaths.make_config(seed))
    if name == "verify-quick":
        return VerifyQuick(VerifyQuick.make_config(seed), workdir)
    raise ValueError(f"unknown workload {name!r} (expected one of {NAMES})")
