"""Tests for the verification suites: structure, reproducibility, and
failure reporting.  Numerical assertions of the suites themselves are covered
by the acceptance module; here quick mode keeps the runtime down."""

import dataclasses
import inspect
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from curvatura import level_set_geometry, verification
from curvatura.errors import ConfigError
from curvatura.level_set_geometry import (
    RadialDistanceField,
    div_newton_fd_stack,
    div_newton_stack,
    hessian_frame_stack,
    reilly1_residual_stack,
    reilly2_sides_stack,
    sphere_direction,
)
from curvatura.model_manifolds import constant_curvature, euclidean, poly3_profile, warped
from curvatura.verification import (
    CASE_COLUMNS,
    SUITE_NAMES,
    TOLERANCES,
    SuiteConfig,
    _default_models,
    _field_grid,
    run_suite,
)
from oracles import csv_string


@pytest.fixture(scope="module")
def quick_reports():
    return {name: run_suite(SuiteConfig(suite=name, quick=True, seed=424242))
            for name in SUITE_NAMES}


def test_all_quick_suites_pass(quick_reports):
    for name, rep in quick_reports.items():
        assert rep.passed, [c.case_id for c in rep.failures()]


def test_tolerance_keys_are_the_keys_the_suites_read():
    # the suites read every key of the table and no other; a config's value
    # overrides the default, and reading an undeclared key fails at once
    read = re.findall(r'\btol\("(\w+)"\)', inspect.getsource(verification))
    assert sorted(set(read)) == sorted(TOLERANCES)
    cfg = SuiteConfig(suite="pointwise", tolerances={"slope": 0.5})
    assert cfg.tol("slope") == 0.5 and cfg.tol("reilly2") == TOLERANCES["reilly2"] == 1e-8
    with pytest.raises(KeyError, match="reily2"):
        cfg.tol("reily2")


def test_readme_lists_every_tolerance_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = {k: float(v) for k, v in re.findall(r"`(\w+)`: (\d[\d.]*(?:e[+-]?\d+)?)", readme)}
    assert {k: listed.get(k) for k in TOLERANCES} == TOLERANCES


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(suite="nonsense"))


def test_coverage_guard_refuses_vacuous_reports():
    M, u = euclidean(3), RadialDistanceField()
    cs = verification.SuiteReport("demo")
    cs.required += [("euclidean", 1), ("euclidean", 2), ("algebra", None)]
    cs.add("demo/r=1", M, u, 1, "m", 0.25, 1.0, expected=0.5, h=0.1)
    cs.add("demo/n=2", None, None, None, "m", 0.0, 1.0, n=2, seed=[1, 0])
    with pytest.raises(ConfigError, match=r"no cases for \[\('euclidean', 2\)\]$"):
        cs.report()
    cs.add("demo/r=2", M, u, 2, "m", 0.5, 1.0, passed=False, residual=1.0)
    with cs.timed("demo/block"):
        pass
    rep = cs.report()
    assert [c.case_id for c in rep.cases] == ["demo/r=1", "demo/n=2", "demo/r=2"]
    assert [c.residual for c in rep.cases] == [0.25, 0.0, 1.0]
    assert [c.passed for c in rep.cases] == [True, True, False]
    assert [c.to_row()["model"] for c in rep.cases] == ["euclidean", "algebra", "euclidean"]
    assert [(c.field, c.n, c.r) for c in rep.cases] == [("radial", 3, 1), ("-", 2, None),
                                                        ("radial", 3, 2)]
    assert rep.cases[0].inputs == {"model": M.describe(), "field": u.describe(), "r": 1,
                                   "h": 0.1}
    assert rep.cases[1].inputs == {"n": 2, "seed": [1, 0]}
    assert not rep.passed and list(rep.timings) == ["demo/block"]
    with pytest.raises(ConfigError, match="suite 'demo' produced no cases"):
        verification.SuiteReport("demo").report()


def test_pointwise_guard_refuses_a_model_left_without_fields(monkeypatch):
    # the required (model, r) pairs come from the model grid, not from the
    # cases the field loops make
    fields_for = verification._fields_for
    monkeypatch.setattr(verification, "_fields_for",
                        lambda M: [] if M.label == "warped(poly3)" else fields_for(M))
    missing = [("warped(poly3)", r) for r in range(3)]
    with pytest.raises(ConfigError, match=re.escape(f"no cases for {missing}") + "$"):
        run_suite(SuiteConfig(suite="pointwise", quick=True, seed=424242))


def test_structural_coverage(quick_reports):
    # every suite covers each configured model family with >= 1 case
    for name, rep in quick_reports.items():
        families = {c.model for c in rep.cases}
        if name == "pointwise":
            assert {"euclidean", "constant(a=-1)", "warped(poly3)"} <= families
        if name == "comparison":
            assert any(m.startswith("constant") for m in families)
            assert any(m.startswith("warped") for m in families)
            assert "euclidean" in families
    # pointwise covers every r of every model
    rep = quick_reports["pointwise"]
    for model in ("euclidean", "constant(a=-1)", "warped(poly3)"):
        rs = {c.r for c in rep.cases if c.model == model and c.r is not None}
        assert rs >= {0, 1, 2}


def test_reports_reproducible_bit_for_bit():
    a = run_suite(SuiteConfig(suite="pointwise", quick=True, seed=7))
    b = run_suite(SuiteConfig(suite="pointwise", quick=True, seed=7))
    rows_a = csv_string(CASE_COLUMNS, a.to_rows())
    rows_b = csv_string(CASE_COLUMNS, b.to_rows())
    assert rows_a == rows_b


def test_seed_changes_sampled_cases():
    a = run_suite(SuiteConfig(suite="pointwise", quick=True, seed=1))
    b = run_suite(SuiteConfig(suite="pointwise", quick=True, seed=2))
    measured_a = [c.measured for c in a.cases if c.metric == "max_rel_residual"]
    measured_b = [c.measured for c in b.cases if c.metric == "max_rel_residual"]
    assert measured_a != measured_b


def test_every_model_case_carries_its_rerun_inputs(quick_reports):
    # the rerun contract: a case names its model, field and order; algebra
    # cases name their matrix size and seed instead
    for rep in quick_reports.values():
        for c in rep.cases:
            if c.model == "algebra":
                assert {"n", "matrices", "seed"} <= set(c.inputs), c.case_id
                continue
            assert {"model", "field", "r"} <= set(c.inputs), c.case_id
            assert c.inputs["r"] == c.r and c.inputs["model"]["dim"] == c.n, c.case_id
            assert c.inputs["field"]["field"] == c.field, c.case_id


def test_failing_case_carries_rerun_inputs():
    # force a failure with an impossible tolerance
    rep = run_suite(SuiteConfig(suite="pointwise", quick=True,
                                tolerances={"reilly2": 0.0}))
    fails = [c for c in rep.failures() if c.metric == "max_rel_residual"]
    assert fails and not rep.passed
    for c in fails:
        assert "model" in c.inputs and "field" in c.inputs and "r" in c.inputs
        assert "seed" in c.inputs


@pytest.mark.parametrize("kernel,stub,failing,measured", [
    ("reilly2_sides_stack", lambda u, M, P, r: (np.full(len(P), math.nan), np.zeros(len(P))),
     r"/reilly2$", math.nan),
    ("reilly1_residual_stack", lambda u, M, P, r, hs: np.full((len(hs), len(P)), math.nan),
     r"/reilly1_order$", math.nan),
    # the finer sum is not zero, the coarser one is: order -inf, not a log2 error
    ("reilly1_residual_stack",
     lambda u, M, P, r, hs: np.outer([0.0, 1.0], np.ones(len(P))), r"/reilly1_order$", -math.inf),
    # the curved correction_cross cases read the contraction too
    ("div_newton_stack", lambda M, P, hd, r: np.full(np.shape(P), math.nan),
     r"/(div_newton|correction_cross)$", math.nan),
    # the oracle of the curved div_newton cases, and the flat cases' own row
    ("div_newton_fd_stack", lambda u, M, P, hd, r, h: np.full(np.shape(P), math.nan),
     r"^pointwise/(constant|warped).*/div_newton$|/div_newton_fd$", math.nan),
    ("correction_sums_stack", lambda kappa, derivs, rd, gn, r: (np.full(len(gn), math.nan),) * 2,
     r"/correction_cross$", math.nan),
    ("sigma_hessian_kronecker_stack", lambda H, r: np.full(len(H), math.nan),
     r"/sigma_dual_path$", math.nan),
    ("trace_identity_residual_stack", lambda H, e: np.full(np.shape(H)[:2], math.nan),
     r"/trace_identity$", math.nan),
])
def test_nan_or_diverging_residuals_fail_their_cases(monkeypatch, kernel, stub, failing,
                                                     measured):
    monkeypatch.setattr(verification, kernel, stub)
    rep = run_suite(SuiteConfig(suite="pointwise", quick=True, seed=424242))
    hit = [c for c in rep.cases if re.search(failing, c.case_id)]
    assert hit and not rep.passed
    assert [c.case_id for c in rep.failures()] == [c.case_id for c in hit]
    for c in hit:
        assert (math.isnan(c.measured) and math.isnan(c.residual) if math.isnan(measured)
                else c.measured == measured and c.residual == math.inf), c.case_id


def test_aggregate_pass_iff_all_cases(quick_reports):
    for rep in quick_reports.values():
        assert rep.passed == all(c.passed for c in rep.cases)


def test_timings_absent_from_rows(quick_reports):
    rep = quick_reports["asymptotic"]
    for row in rep.to_rows():
        assert set(row) == set(CASE_COLUMNS)
    assert rep.timings  # kept in the JSON side only


def test_json_dict_shape(quick_reports):
    d = quick_reports["inequality"].to_json_dict()
    assert d["suite"] == "inequality"
    assert isinstance(d["cases"], list) and d["cases"]
    assert all("inputs" in c for c in d["cases"])


def test_a_term_moved_by_a_millionth_fails_its_budget(monkeypatch, quick_reports):
    # the budgets can fail: one term of one breakdown moved by 1e-6 relative
    # (the residual with it) fails that case's residual_vs_budget row and no
    # other.  The poly3 r = 1 sectional term is read by no other row finely
    # enough to see it: residual_vs_oracle divides the move by the oracle LHS
    assert quick_reports["comparison"].passed
    real = verification.comparison_rhs

    def perturbed(u, M, levels, r, spec, threads):
        bd = real(u, M, levels, r, spec, threads)
        if M.label != "warped(poly3)" or r != 1:
            return bd
        moved = bd.term_sectional * (1.0 + 1e-6)
        return dataclasses.replace(bd, term_sectional=moved,
                                   residual=bd.lhs - (bd.term_principal + moved + bd.term_mixed))

    monkeypatch.setattr(verification, "comparison_rhs", perturbed)
    rep = run_suite(SuiteConfig(suite="comparison", quick=True, seed=424242))
    assert [c.case_id for c in rep.failures()] == ["comparison/poly3/n=3/r=1/residual_vs_budget"]
    (case,) = rep.failures()
    assert case.measured > 1e5 * case.tolerance


def test_full_comparison_suite_passes():
    # the full grid adds n=4 spheres, all ellipsoid orders, and the
    # off-center breakdown cases that quick mode skips
    rep = run_suite(SuiteConfig(suite="comparison", quick=False))
    assert rep.passed, [c.case_id for c in rep.failures()]
    assert any("offcenter/r=2" in c.case_id for c in rep.cases)
    assert any("/n=4/" in c.case_id for c in rep.cases)


def _point_by_point(M, rng, k):
    """The pointwise suite's sampling one point and one scalar draw at a
    time: the reference for the stacked draw of _sample_points."""
    out = []
    for _ in range(k):
        r = rng.uniform(0.6, 1.4)
        angles = [rng.uniform(0.5, math.pi - 0.5) for _ in range(M.dim - 2)]
        angles.append(rng.uniform(0.0, 2.0 * math.pi))
        out.append([r] + angles if M.chart == "polar" else r * sphere_direction(angles))
    return np.array(out)


@pytest.mark.parametrize("M", [euclidean(2), euclidean(3), euclidean(5),
                               constant_curvature(-1.0, 3), warped(poly3_profile(), 4)],
                         ids=lambda M: f"{M.label}/n={M.dim}")
def test_stacked_sampling_draws_the_point_by_point_bits(M):
    for k in range(20):
        got = verification._sample_points(M, np.random.default_rng((99, k)), 7)
        want = _point_by_point(M, np.random.default_rng((99, k)), 7)
        assert got.shape == (7, M.dim) and got.tobytes() == want.tobytes()


def test_pointwise_families_make_one_centre_stack_per_model_and_field(monkeypatch):
    sizes = []
    stack = level_set_geometry.hessian_frame_stack

    def counted(u, M, P, chart=None):
        sizes.append(len(P))
        return stack(u, M, P, chart)

    for module in (level_set_geometry, verification):
        monkeypatch.setattr(module, "hessian_frame_stack", counted)
    assert run_suite(SuiteConfig(suite="pointwise", quick=True, seed=424242)).passed
    pairs = sum(len(verification._fields_for(M)) for M in verification._default_models())
    # n = 3 everywhere.  Centres: reilly2 r = 0..2 at 40 points, reilly1_order
    # and div_newton r = 1..2 at 10 and 6; stencils: 2n points per centre,
    # for two steps in reilly1_order and one in the div_newton oracle
    assert Counter(sizes) == {120: pairs, 20: pairs, 240: pairs, 12: pairs, 72: pairs}


def _alone(case, M, u):
    """The measured value of a pointwise case from its own points run
    alone through the public kernels at its one order."""
    r, inp = case.r, case.inputs
    P = verification._sample_points(M, np.random.default_rng(tuple(inp["seed"])), inp["points"])
    family = case.case_id.rsplit("/", 1)[1]
    if family == "reilly2":
        lhs, rhs = reilly2_sides_stack(u, M, P, r)
        return float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))))
    if family == "reilly1_order":
        s_h = s_h2 = 0.0
        for a, b in reilly1_residual_stack(u, M, P, r, (inp["h"], inp["h"] / 2)).T.tolist():
            s_h += a
            s_h2 += b
        return verification._convergence_order(s_h, s_h2)
    hd = hessian_frame_stack(u, M, P)
    dn = div_newton_stack(M, P, hd, r)
    oracle = div_newton_fd_stack(u, M, P, hd, r, h=inp["h"])
    if family == "div_newton_fd":
        return float(np.max(np.abs(oracle)))
    if M.is_flat:
        return float(np.max(np.abs(dn)))
    scale = np.maximum(1.0, np.max(np.abs(dn), axis=1))
    return float(np.max(np.max(np.abs(dn - oracle), axis=1) / scale))


def test_pointwise_cases_read_the_bits_of_their_points_alone():
    rep = run_suite(SuiteConfig(suite="pointwise", quick=True, seed=12345))
    grid = {(M.label, u.kind, r): (M, u) for M, u, r in _field_grid(_default_models(), 0)}
    families = set()
    for c in rep.cases:
        if c.model == "algebra" or c.metric == "max_abs_residual":
            continue
        families.add(c.case_id.rsplit("/", 1)[1])
        got = _alone(c, *grid[(c.model, c.field, c.r)])
        assert got.hex() == c.measured.hex(), c.case_id
    assert families == {"reilly2", "reilly1_order", "div_newton", "div_newton_fd"}
