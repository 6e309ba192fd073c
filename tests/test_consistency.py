"""Cross-module consistency: certificates against exact computations."""

import pytest

from torrigid.rigidity import Verdict, der_vanishing_gamma, qgorenstein_rigidity, quotient_rigidity
from torrigid.t1 import der_part_exact, t1_affine, t1_polygon
from torrigid.toric import affine_cone, q_gorenstein, singular_codim

SMOOTH_3D = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
THIRD = [(1, 0, 1), (0, 1, 1), (-1, -1, 1)]
SQUARE = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
HEXAGON = [(1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1)]
QUOTIENT_4D = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 3)]


@pytest.mark.parametrize("rays", [SMOOTH_3D, THIRD, QUOTIENT_4D])
def test_rigid_certificates_imply_zero_tangent(rays):
    cone = affine_cone(rays)
    certified = (
        qgorenstein_rigidity(cone).verdict is Verdict.RIGID
        or quotient_rigidity(cone).verdict is Verdict.RIGID
    )
    assert certified
    assert t1_affine(cone).total == 0


@pytest.mark.parametrize("rays", [SQUARE, HEXAGON, THIRD])
def test_der_vanishing_certificate_matches_exact(rays):
    cone = affine_cone(rays)
    cert = der_vanishing_gamma(cone, search_bound=4)
    if cert.verdict is Verdict.DER_PART_VANISHES:
        dim, _ = der_part_exact(cone)
        assert dim == 0


@pytest.mark.parametrize("rays", [SQUARE, HEXAGON, THIRD, SMOOTH_3D])
def test_qgorenstein_never_fails_gamma(rays):
    # the interpolating-covector criterion subsumes the connectivity test
    cone = affine_cone(rays)
    if q_gorenstein(cone) is None or singular_codim(cone) < 3:
        pytest.skip("hypotheses not met")
    cert = der_vanishing_gamma(cone, search_bound=4)
    assert cert.verdict is not Verdict.CONDITION_NOT_SATISFIED


PENTAGON = [(0, 0), (1, 0), (1, 1), (0, 2), (-1, 1)]
OCTAGON = [(0, 0), (1, 0), (2, 1), (2, 2), (1, 3), (0, 3), (-1, 2), (-1, 1)]


@pytest.mark.parametrize(
    "polygon",
    [
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        PENTAGON,
        [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
        OCTAGON,
    ],
    ids=["square", "pentagon", "hexagon", "octagon"],
)
def test_polygon_consistency(polygon):
    # t1_polygon cross-checks the affine computation internally
    report = t1_polygon(polygon)
    assert report.dimension == len(polygon) - 3
    assert report.minor_condition
