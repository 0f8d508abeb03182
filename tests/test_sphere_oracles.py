"""Total mean curvatures of geodesic spheres against their closed form.

The level-0.7 sets of the radial distance field and of the off-centre
distance field (offset 0.3) in constant curvature a are geodesic spheres of
radius 0.7, so `sphere_total_mean_curvature` gives each M_r exactly.  The
radial field's nodes come from its exact radius, the off-centre field's from
the ray root solve.  Every reported error estimate must bound the true
error, and from angular order 24 on the rule must sit within 1e-14 relative
of the closed form: the Gauss product rule leaves no polar cap out.
"""

import pytest

from curvatura.curvature_integrals import total_mean_curvature
from curvatura.level_set_geometry import OffCenterDistanceField, RadialDistanceField
from curvatura.model_manifolds import constant_curvature, sphere_total_mean_curvature
from curvatura.quadrature import QuadratureSpec

LEVEL = 0.7
FIELDS = {"radial": RadialDistanceField(), "offcenter": OffCenterDistanceField(0.3)}
# (n, field, a, angular orders); the off-centre field's root solve makes its
# rules in dimensions 4 and 5 the costly ones, so they stop at lower orders
CASES = [(3, field, a, (8, 16, 24, 32)) for field in FIELDS for a in (-0.25, -1.0, -4.0)]
CASES += [(4, "radial", -1.0, (8, 16, 24)), (4, "offcenter", -1.0, (8, 12, 16)),
          (5, "radial", -1.0, (8, 16)), (5, "offcenter", -1.0, (8,))]


@pytest.mark.parametrize("n,field,a,orders", CASES,
                         ids=[f"n={n}-{f}-a={a:g}" for n, f, a, _ in CASES])
def test_every_estimate_bounds_its_error(n, field, a, orders):
    M = constant_curvature(a, n)
    for order in orders:
        spec = QuadratureSpec(angular_orders=(order,), level_order=4)
        for r in range(n):
            rep = total_mean_curvature(FIELDS[field], M, LEVEL, r, spec)
            oracle = sphere_total_mean_curvature(M, r, LEVEL)
            err = abs(rep.value - oracle)
            assert err <= rep.error_estimate, (order, r, err, rep.error_estimate)
            if order >= 24:
                assert err <= 1e-14 * oracle, (order, r, err / oracle)
