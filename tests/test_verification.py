"""Tests for the verification suites: structure, reproducibility, and
failure reporting.  Numerical assertions of the suites themselves are covered
by the acceptance module; here quick mode keeps the runtime down."""

import inspect

import pytest

from curvatura import verification
from curvatura.errors import ConfigError
from curvatura.reporting import csv_string
from curvatura.verification import (
    CASE_COLUMNS,
    SUITE_NAMES,
    TOLERANCE_KEYS,
    SuiteConfig,
    run_suite,
)


@pytest.fixture(scope="module")
def quick_reports():
    return {name: run_suite(SuiteConfig(suite=name, quick=True, seed=424242))
            for name in SUITE_NAMES}


def test_all_quick_suites_pass(quick_reports):
    for name, rep in quick_reports.items():
        assert rep.passed, [c.case_id for c in rep.failures()]


def test_tolerance_keys_are_the_keys_the_suites_read():
    # each declared key is read somewhere after the declaration; reading an
    # undeclared key fails at once
    src = inspect.getsource(verification)
    after = src.split("TOLERANCE_KEYS = (", 1)[1].split(")", 1)[1]
    assert [k for k in TOLERANCE_KEYS if f'"{k}"' not in after] == []
    assert len(set(TOLERANCE_KEYS)) == len(TOLERANCE_KEYS)
    with pytest.raises(KeyError, match="TOLERANCE_KEYS"):
        SuiteConfig(suite="pointwise").tol("reily2", 1e-8)


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(suite="nonsense"))


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


def test_failing_case_carries_rerun_inputs():
    # force a failure with an impossible tolerance
    rep = run_suite(SuiteConfig(suite="pointwise", quick=True,
                                tolerances={"reilly2": 0.0}))
    fails = [c for c in rep.failures() if c.metric == "max_rel_residual"]
    assert fails and not rep.passed
    for c in fails:
        assert "model" in c.inputs and "field" in c.inputs and "r" in c.inputs
        assert "seed" in c.inputs


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


def test_full_comparison_suite_passes():
    # the full grid adds n=4 spheres, all ellipsoid orders, and the
    # off-center breakdown cases that quick mode skips
    rep = run_suite(SuiteConfig(suite="comparison", quick=False))
    assert rep.passed, [c.case_id for c in rep.failures()]
    assert any("offcenter/r=2" in c.case_id for c in rep.cases)
    assert any("/n=4/" in c.case_id for c in rep.cases)
