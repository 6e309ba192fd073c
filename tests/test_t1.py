import itertools
import json
import random
from fractions import Fraction
from math import comb, factorial, gcd, prod
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torrigid import localcoh, t1
from torrigid.cli import load_fan
from torrigid.ideals import SquarefreeMonomialIdeal
from torrigid.lattice import (
    AffineSystem,
    BoundExceeded,
    UnboundedPolyhedronError,
    Witness,
    hilbert_basis,
    int_det,
    integer_feasible,
    lattice_points,
    rref,
    solve_diophantine,
)
from torrigid.localcoh import _restriction, local_coh_piece, mult_map, negative
from torrigid.rigidity import Verdict
from torrigid.t1 import (
    Completeness,
    UnsupportedModeError,
    _intervals,
    _kernel_dim,
    _translate,
    cox_polynomial,
    cy_t1,
    der_part_exact,
    der_part_sufficient,
    dual_cone_generators,
    hom_q_h3,
    q_presentation,
    t1_affine,
    t1_polygon,
)
from torrigid.toric import (
    FanValidationError,
    affine_cone,
    class_group,
    irrelevant_ideal,
    is_simplicial,
    singular_codim,
    smooth_subfan,
    validate_fan,
)


FANS = Path(__file__).resolve().parent.parent / "fans"


def fermat_quintic(p4_fan):
    terms = [(1, tuple(5 if j == i else 0 for j in range(5))) for i in range(5)]
    return cox_polynomial(p4_fan, terms)


def fermat_under_change(a):
    """Terms of sum_i (A x)_i^d, d = len(A), by the multinomial theorem."""
    d = len(a)
    assert int_det(a) != 0
    terms = []
    for e in itertools.product(range(d + 1), repeat=d):
        if sum(e) != d:
            continue
        multinomial = factorial(d) // prod(factorial(x) for x in e)
        coeff = sum(multinomial * prod(aij**x for aij, x in zip(row, e)) for row in a)
        if coeff:
            terms.append((coeff, e))
    return terms


def projective_fan(n):
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)] + [(-1,) * n]
    return validate_fan(rays, [tuple(j for j in range(n + 1) if j != i) for i in range(n + 1)])


class TestQPresentation:
    def test_square(self, square_cone):
        pres = q_presentation(class_group(square_cone.fan))
        assert pres.free_rank == 1
        row = pres.grading_matrix[0]
        assert row in ((1, -1, 1, -1), (-1, 1, -1, 1))
        entries = [pres.entry(0, j) for j in range(4)]
        assert entries in (
            ["x1", "-x2", "x3", "-x4"],
            ["-x1", "x2", "-x3", "x4"],
        )

    def test_a1_zero_module(self, a1_cone):
        pres = q_presentation(class_group(a1_cone.fan))
        assert pres.free_rank == 0

    def test_p2(self, p2_fan):
        pres = q_presentation(class_group(p2_fan))
        assert pres.free_rank == 1
        assert pres.grading_matrix[0] in ((1, 1, 1), (-1, -1, -1))


class TestDualCone:
    def test_square(self, square_cone):
        gens = dual_cone_generators(square_cone)
        assert gens == sorted([(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)])

    def test_a1(self, a1_cone):
        assert dual_cone_generators(a1_cone) == [(0, 1), (2, -1)]


class TestHomQH3:
    def test_square(self, square_cone):
        total, contributions = hom_q_h3(square_cone)
        assert total == 1
        assert [c.fine_degree for c in contributions] == [(-1, -1, -1, -1)]

    def test_hexagon(self, hexagon_cone):
        total, contributions = hom_q_h3(hexagon_cone)
        assert total == 3  # vertex count minus three
        assert [c.fine_degree for c in contributions] == [(-1, -1, -1, -1, -1, -1)]

    def test_simplicial_is_zero(self, third_cone):
        assert hom_q_h3(third_cone) == (0, ())

    def test_codim2_refused(self, a1_cone):
        with pytest.raises(UnsupportedModeError):
            hom_q_h3(a1_cone)

    def test_coefficient_pairing(self):
        # The cone over a square pyramid is singular along the curve of its
        # base face, transversally the cone over the square, so its T^1 is
        # infinite and this part is refused.  The infinite part comes from
        # the unbounded chamber (-1, -1, -1, -1, >= 0), whose kernel is 1
        # only when a_ij goes with the target p + e_j: pairing it with
        # p + e_(j+1) gives 0.  No three-dimensional cone can tell the
        # pairings apart (see hom_q_h3).
        pyramid = affine_cone([(0, 0, 0, 1), (1, 0, 0, 1), (1, 1, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)])
        with pytest.raises(UnsupportedModeError, match=r"face on rays \[1, 2, 3, 4\] has T\^1 of dimension 1"):
            hom_q_h3(pyramid)
        b = irrelevant_ideal(smooth_subfan(pyramid))
        cox = class_group(pyramid.fan)
        coef = list(zip(*cox.grading_matrix))  # coef[j][i] = a_ij
        sources = [(0,) * 5] * cox.free_rank
        targets = [tuple(int(k == j) for k in range(5)) for j in range(5)]
        chamber = (-1, -1, -1, -1, 0)
        assert _kernel_dim(b, 3, chamber, sources, targets, coef, {}, {}) == 1
        shifted = targets[1:] + targets[:1]  # a_ij paired with p + e_(j+1)
        assert _kernel_dim(b, 3, chamber, sources, shifted, coef, {}, {}) == 0


class TestDerPart:
    def test_square_sufficient(self, square_cone):
        cert = der_part_sufficient(square_cone, search_bound=4)
        assert cert.verdict is Verdict.DER_PART_VANISHES

    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 2), (4, 3)])
    def test_a_series(self, n, expected):
        cone = affine_cone([(1, 0), (1, n)])
        dim, completeness = der_part_exact(cone)
        assert dim == expected
        assert completeness is Completeness.GUARANTEED

    def test_monomial_map_through_zero_piece(self):
        # x1 * x4 from degree (-1,-1,-1,-1): the piece after x1 is zero, the
        # source and target are not, so the composite is a zero 1 x 1 matrix
        b = SquarefreeMonomialIdeal(4, (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2, 3})))
        start = (-1, -1, -1, -1)
        assert local_coh_piece(b, 2, (0, -1, -1, -1)).dimension == 0
        end = (0, -1, -1, 0)
        assert [list(row) for row in _restriction(b, 0, negative(start), negative(end))] == [[0]]

    def test_third_cone_exact_zero(self, third_cone):
        dim, _ = der_part_exact(third_cone)
        assert dim == 0

    def test_index_42_cone(self):
        # the dual monoid has a 25-element Hilbert basis
        cone = affine_cone([(-3, 3, -1), (-2, 0, -3), (-1, -3, 2)])
        dim, completeness = der_part_exact(cone)
        assert (dim, completeness) == (0, Completeness.GUARANTEED)

    @pytest.mark.parametrize("rays", [[(1, 0), (2, 1)], [(1, 0, 0), (0, 1, 0), (1, 1, 1)]])
    def test_smooth_cone(self, rays):
        # the irrelevant ideal of the smooth subfan is the unit ideal here
        cone = affine_cone(rays)
        dim, completeness = der_part_exact(cone)
        assert dim == 0
        assert completeness is Completeness.GUARANTEED
        assert t1_affine(cone).total == 0

    def test_unsupported(self):
        # non-simplicial with a singular two-dimensional face, the A_1 cone
        # on rays 2 and 3: T^1 is infinite, and this part is not known to be
        cone = affine_cone([(0, 0, 1), (1, 0, 1), (1, 2, 1), (0, 1, 1)])
        with pytest.raises(UnsupportedModeError, match=r"face on rays \[2, 3\] has T\^1 of dimension 1"):
            der_part_exact(cone)


def riemenschneider_t1(n, q):
    """dim T^1 of the cyclic quotient X(n, q) (Riemenschneider 1974): expand
    n/(n-q) = [a_2, ..., a_{e-1}] as a Hirzebruch-Jung continued fraction;
    then it is n - 1 when e = 3 and (e - 4) + sum(a_i - 1) when e >= 4."""
    a, num, den = [], n, n - q
    while den:
        a.append(-(-num // den))
        num, den = den, a[-1] * den - num
    if len(a) == 1:
        return n - 1
    return len(a) - 2 + sum(x - 1 for x in a)


CYCLIC_QUOTIENTS = [
    (n, q) for n in range(2, 8) for q in range(1, n) if gcd(n, q) == 1
]


@pytest.mark.parametrize("n,q", CYCLIC_QUOTIENTS)
def test_cyclic_quotient_closed_form(n, q):
    cone = affine_cone([(0, 1), (n, -q)])
    report = t1_affine(cone)
    assert report.completeness is Completeness.GUARANTEED
    assert report.total == riemenschneider_t1(n, q)


@st.composite
def cyclic_quotients(draw):
    n = draw(st.integers(2, 30))
    return n, draw(st.sampled_from([q for q in range(1, n) if gcd(n, q) == 1]))


@given(cyclic_quotients())
def test_cyclic_quotient_closed_form_to_30(case):
    # the chambers need no window: a box of characters had to grow with n
    n, q = case
    report = t1_affine(affine_cone([(0, 1), (n, -q)]))
    assert report.completeness is Completeness.GUARANTEED
    assert report.total == riemenschneider_t1(n, q)


def test_cyclic_quotient_cases():
    assert len(CYCLIC_QUOTIENTS) == 17
    # rational normal cone of degree n (Pinkham: 2n - 4) and the A_{n-1} cone
    assert [riemenschneider_t1(n, 1) for n in range(3, 8)] == [2, 4, 6, 8, 10]
    assert [riemenschneider_t1(n, n - 1) for n in range(2, 8)] == [1, 2, 3, 4, 5, 6]


class TestT1Affine:
    def test_square(self, square_cone):
        report = t1_affine(square_cone)
        assert report.mode == "codim_ge_3"
        assert (report.der_dimension, report.homq_dimension) == (0, 1)
        assert report.total == 1
        assert report.completeness is Completeness.GUARANTEED

    def test_third_cone_rigid(self, third_cone):
        report = t1_affine(third_cone)
        assert report.total == 0
        assert report.mode == "simplicial"

    def test_a1(self, a1_cone):
        report = t1_affine(a1_cone)
        assert report.mode == "simplicial"
        assert report.total == 1
        assert t1_affine(a1_cone, bound=3) == report  # the bound is ignored

    def test_hexagon(self, hexagon_cone):
        report = t1_affine(hexagon_cone)
        assert report.total == 3

    def test_non_rigid_face_mode(self):
        # the face on rays 2 and 3 is the A_1 cone, so T^1 is infinite
        cone = affine_cone([(0, 0, 1), (1, 0, 1), (1, 2, 1), (0, 1, 1)])
        report = t1_affine(cone)
        assert report.mode == "non_rigid_face"
        assert report.witness_face == (frozenset({1, 2}), 1)
        assert report.total is None and report.completeness is Completeness.INFINITE
        assert (report.der_dimension, report.homq_dimension) == (None, None)

    @pytest.mark.parametrize("bound,total", [(2, 3), (3, 4)])
    def test_simplicial_cone_window_totals(self, bound, total):
        # singular along a curve, transversally the A_1 cone on rays 1 and 3:
        # the characters in the box of radius 3 * bound carry 3, 4, ...
        # dimensions, so the derivation part, all of T^1, is infinite
        cone = affine_cone([(1, 0, 1), (0, 1, 1), (-1, -2, 3)])
        report = t1_affine(cone)
        assert (report.mode, report.witness_face) == ("non_rigid_face", (frozenset({0, 2}), 1))
        assert (report.total, report.completeness) == (None, Completeness.INFINITE)
        assert der_part_exact(cone) == (None, Completeness.INFINITE)
        assert oracle_der(cone, bound) == total


class TestT1Polygon:
    def test_unit_square(self):
        rep = t1_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert rep.dimension == 1
        assert rep.minor_condition
        assert rep.cross_check_total == 1

    def test_hexagon(self):
        hexagon = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
        rep = t1_polygon(hexagon)
        assert rep.dimension == 3

    def test_triangle(self):
        rep = t1_polygon([(0, 0), (1, 0), (0, 1)])
        assert rep.dimension == 0

    def test_unordered_input(self):
        rep = t1_polygon([(1, 1), (0, 0), (0, 1), (1, 0)])
        assert rep.dimension == 1

    def test_non_smooth_edge(self):
        with pytest.raises(UnsupportedModeError):
            t1_polygon([(0, 0), (2, 0), (2, 2), (0, 2)])  # edges of lattice length 2

    def test_interior_point_rejected(self):
        with pytest.raises(ValueError):
            t1_polygon([(0, 0), (2, 0), (1, 2), (1, 1)])


class TestCyT1:
    def test_fermat_quintic(self, p4_fan):
        report = cy_t1(p4_fan, fermat_quintic(p4_fan))
        assert report.hypotheses_ok
        assert report.monomial_count == 126
        assert report.dimension == 101

    def test_quintic_invariant_under_relabeling(self, p4_fan):
        perm = [2, 0, 4, 1, 3]
        rays = [p4_fan.rays[i] for i in perm]
        cones = [frozenset(perm.index(i) for i in c) for c in p4_fan.max_cones]
        fan2 = validate_fan(rays, cones)
        terms = [(1, tuple(5 if j == i else 0 for j in range(5))) for i in range(5)]
        report = cy_t1(fan2, cox_polynomial(fan2, terms))
        assert report.dimension == 101

    def test_quintic_invariant_under_lattice_change(self, p4_fan):
        # unimodular change of the ambient lattice
        u = [
            (1, 1, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 2),
            (0, 0, 0, 1),
        ]
        rays = [
            tuple(sum(u[a][b] * v[b] for b in range(4)) for a in range(4))
            for v in p4_fan.rays
        ]
        fan2 = validate_fan(rays, p4_fan.max_cones)
        terms = [(1, tuple(5 if j == i else 0 for j in range(5))) for i in range(5)]
        report = cy_t1(fan2, cox_polynomial(fan2, terms))
        assert report.dimension == 101

    def test_quintic_under_coordinate_change(self, p4_fan):
        a = [
            (1, 1, -1, 1, 1),
            (-1, 1, 1, 1, -1),
            (1, -1, 1, 1, 1),
            (1, 1, 1, -1, -1),
            (-1, 1, 1, 1, 1),
        ]
        terms = fermat_under_change(a)
        assert max(abs(c) for c, _ in terms) > 100  # dense, large coefficients
        report = cy_t1(p4_fan, cox_polynomial(p4_fan, terms))
        assert (report.monomial_count, report.jacobian_rank, report.dimension) == (126, 25, 101)

    def test_sextic_under_coordinate_change(self):
        a = [
            (-1, -1, 1, 1, -1, 1),
            (1, 1, -1, 1, 1, -1),
            (-1, 1, 1, -1, 1, 1),
            (1, 1, 1, 1, -1, -1),
            (1, -1, -1, 1, 1, 1),
            (-1, -1, 1, 1, 1, -1),
        ]
        p5 = projective_fan(5)
        report = cy_t1(p5, cox_polynomial(p5, fermat_under_change(a)))
        assert (report.monomial_count, report.jacobian_rank, report.dimension) == (462, 36, 426)

    def test_quintic_with_fractional_coefficients(self, p4_fan):
        coeffs = [Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(-3), Fraction(4, 9)]
        terms = [(c, tuple(5 if j == i else 0 for j in range(5))) for i, c in enumerate(coeffs)]
        terms.append((Fraction(1, 6), (1, 1, 1, 1, 1)))
        report = cy_t1(p4_fan, cox_polynomial(p4_fan, terms))
        assert (report.jacobian_rank, report.dimension) == (25, 101)

    def test_fractional_coefficients_keep_their_ratios(self, p4_fan):
        # f = (x1/2 + x2/3)^5 + x3^5 + x4^5 + x5^5 satisfies 2 df/dx1 = 3 df/dx2,
        # which takes 5 off the rank only if the ratios of the coefficients
        # survive the clearing of denominators
        terms = [
            (comb(5, k) * Fraction(1, 2) ** k * Fraction(1, 3) ** (5 - k), (k, 5 - k, 0, 0, 0))
            for k in range(6)
        ]
        terms += [(1, tuple(5 if j == i else 0 for j in range(5))) for i in (2, 3, 4)]
        report = cy_t1(p4_fan, cox_polynomial(p4_fan, terms))
        assert (report.jacobian_rank, report.dimension) == (20, 106)

    def test_k3_gate(self):
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
        cones = [tuple(j for j in range(4) if j != i) for i in range(4)]
        fan = validate_fan(rays, cones, name="P3")
        terms = [(1, tuple(4 if j == i else 0 for j in range(4))) for i in range(4)]
        report = cy_t1(fan, cox_polynomial(fan, terms))
        assert report.dimension is None
        failed = {h.name for h in report.hypotheses if h.status == "failed"}
        assert "dim_at_least_4" in failed

    def test_degree_mismatch(self, p4_fan):
        terms = [(1, (4, 0, 0, 0, 0)), (1, (0, 4, 0, 0, 0))]
        poly = cox_polynomial(p4_fan, terms)
        report = cy_t1(p4_fan, poly)
        assert report.dimension is None
        bad = [h for h in report.hypotheses if h.name == "degree_anticanonical"]
        assert bad[0].status == "failed"
        assert "(4, 0, 0, 0, 0)" in bad[0].detail

    def test_mixed_degree_rejected(self, p4_fan):
        with pytest.raises(ValueError, match="class degrees"):
            cox_polynomial(p4_fan, [(1, (5, 0, 0, 0, 0)), (1, (4, 0, 0, 0, 0))])

    def test_p1_x_p3_against_brute_force(self):
        rays = [
            (1, 0, 0, 0),
            (-1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
            (0, -1, -1, -1),
        ]
        cones = [
            (a, b, c, d)
            for a in (0, 1)
            for (b, c, d) in itertools.combinations((2, 3, 4, 5), 3)
        ]
        fan = validate_fan(rays, cones, name="P1xP3")
        # f = x0^2 q1 + x1^2 q2 + x0 x1 q3 with quartics q in the P3 block
        terms = [
            (1, (2, 0, 4, 0, 0, 0)),
            (1, (2, 0, 0, 4, 0, 0)),
            (1, (0, 2, 0, 0, 4, 0)),
            (1, (0, 2, 0, 0, 0, 4)),
            (2, (1, 1, 1, 1, 1, 1)),
            (1, (0, 2, 1, 1, 2, 0)),
            (1, (2, 0, 0, 1, 1, 2)),
        ]
        poly = cox_polynomial(fan, terms)
        report = cy_t1(fan, poly)
        assert report.hypotheses_ok
        # brute-force oracle: row-reduce the full multiplication matrix over
        # explicit monomial enumerations of both degrees
        def monos(deg0, deg1):
            out = []
            for a in itertools.product(range(deg0 + 1), repeat=2):
                if sum(a) != deg0:
                    continue
                for b in itertools.product(range(deg1 + 1), repeat=4):
                    if sum(b) == deg1:
                        out.append(a + b)
            return out

        betas = monos(2, 4)
        idx = {e: k for k, e in enumerate(betas)}
        rows = []
        partials = []
        for k in range(6):
            dk = []
            for c, e in poly.terms:
                if e[k]:
                    dk.append((c * e[k], tuple(x - (1 if j == k else 0) for j, x in enumerate(e))))
            partials.append(dk)
        for k in range(6):
            deg0, deg1 = (1, 0) if k < 2 else (0, 1)
            for g in monos(deg0, deg1):
                row = [Fraction(0)] * len(betas)
                for c, e in partials[k]:
                    tgt = tuple(a + b for a, b in zip(g, e))
                    row[idx[tgt]] += c
                rows.append(row)
        _, pivots = rref(rows)
        expected = len(betas) - len(pivots)
        assert report.monomial_count == len(betas)
        assert report.dimension == expected


@pytest.mark.parametrize(
    "name", ["weighted_simplex_1113", "third_cone", "a2_cone", "a3_cone", "p4"]
)
def test_degree_zero_membership_matches_solve_diophantine(name):
    # p has class degree zero, class(p) = class(0), exactly when it lies in
    # the row lattice of the rays.  Class groups Z, Z/3, Z/3, Z/4 and Z;
    # where there is torsion, a vector of free degree zero can still lie
    # outside that lattice
    fan, _ = load_fan(str(FANS / f"{name}.json"))
    cox = class_group(fan)
    zero = cox.class_of((0,) * cox.num_rays)
    rng = random.Random(name)
    hits = 0
    for _ in range(200):
        if rng.random() < 0.5:
            u = [rng.randint(-4, 4) for _ in range(cox.ambient_rank)]
            p = tuple(sum(a * b for a, b in zip(u, v)) + rng.choice((0, 0, 1)) for v in fan.rays)
        else:
            p = tuple(rng.randint(-5, 5) for _ in range(cox.num_rays))
        in_row_lattice = solve_diophantine(fan.rays, p) is not None
        assert (cox.class_of(p) == zero) == in_row_lattice, p
        hits += in_row_lattice
    assert 0 < hits < 200


def test_cox_polynomial_compares_torsion():
    # rays (+-1, +-1): class group Z^2 + Z/2.  x1 and x4 differ by p(1/2, 1/2),
    # so they share the free degree but not the torsion class
    fan = validate_fan([(1, 1), (1, -1), (-1, 1), (-1, -1)], [(0, 1), (0, 2), (1, 3), (2, 3)])
    cox = class_group(fan)
    assert cox.torsion == (2,)
    x1, x4 = (1, 0, 0, 0), (0, 0, 0, 1)
    assert cox.class_of(x1)[1] == cox.class_of(x4)[1]
    assert cox.class_of(x1)[0] != cox.class_of(x4)[0]
    with pytest.raises(ValueError, match="different class degrees"):
        cox_polynomial(fan, [(1, x1), (1, x4)])
    cox_polynomial(fan, [(1, (2, 0, 0, 0)), (1, (0, 0, 0, 2))])  # 2 p(1/2, 1/2) is integral


# ---------------------------------------------------------------------------
# Per-character oracle: both parts of T^1 rebuilt for every character of the
# window, with no memo, from one-variable mult_map steps composed here


def stepwise(b, i, start, exponent):
    """Multiplication by x^exponent from the degree-start piece of H^i_B, as
    a product of one-variable steps (target x source)."""
    sdim = local_coh_piece(b, i, start).dimension
    cur = [[int(r == c) for c in range(sdim)] for r in range(sdim)]
    p = list(start)
    for k, e in enumerate(exponent):
        for _ in range(e):
            step = mult_map(b, i, p, k).matrix
            # most steps keep the sign pattern and are the identity: skip their product
            if step != tuple(tuple(int(r == c) for c in range(len(cur))) for r in range(len(cur))):
                cur = [[sum(x * cur[t][c] for t, x in enumerate(row)) for c in range(sdim)] for row in step]
            p[k] += 1
    return cur


def _ray_degree(cone):
    rays = [cone.fan.rays[i] for i in sorted(cone.indices)]
    return lambda u: tuple(sum(a * c for a, c in zip(u, v)) for v in rays)


def oracle_der(cone, bound):
    """The derivation part, one system per character of the window."""
    degree = _ray_degree(cone)
    m, n = len(cone.indices), cone.fan.ambient_rank
    b = irrelevant_ideal(smooth_subfan(cone))
    exponents = [degree(w) for w in hilbert_basis(dual_cone_generators(cone))]
    radius = bound * max(1, max(abs(c) for v in cone.ray_vectors for c in v))
    der = 0
    for u in itertools.product(range(-radius, radius + 1), repeat=n):
        p = degree(u)
        sources = [tuple(x + (k == j) for k, x in enumerate(p)) for j in range(m)]
        dims = [local_coh_piece(b, 2, d).dimension for d in sources]
        if not any(dims):
            continue
        rows = []
        for beta in exponents:
            tdim = local_coh_piece(b, 2, [x + y for x, y in zip(p, beta)]).dimension
            if not tdim:
                continue
            blocks = [
                [[beta[j] * x for x in row] for row in stepwise(b, 2, d, [x - (k == j) for k, x in enumerate(beta)])]
                if beta[j] and dims[j]
                else [[0] * dims[j]] * tdim
                for j, d in enumerate(sources)
            ]
            rows.extend([x for blk in blocks for x in blk[t]] for t in range(tdim))
        der += sum(dims) - len(rref(rows)[1])
    return der


def oracle_homq(cone, bound):
    """The contributions of hom_q_h3, one system per character of the window."""
    degree = _ray_degree(cone)
    m, n = len(cone.indices), cone.fan.ambient_rank
    b = irrelevant_ideal(smooth_subfan(cone))
    cox = class_group(cone.fan)
    r, a = cox.free_rank, cox.grading_matrix
    contributions = []
    for u in itertools.product(range(-bound, bound + 1), repeat=n):
        p = degree(u)
        h = local_coh_piece(b, 3, p).dimension
        if not h:
            continue
        rows = []
        for j in range(m):
            step = mult_map(b, 3, p, j).matrix
            rows.extend([a[i][j] * x for i in range(r) for x in row] for row in step)
        ker = r * h - len(rref(rows)[1])
        if ker:
            contributions.append((p, ker))
    return contributions


SHIPPED_CONES = [
    json.loads((FANS / f"{name}.json").read_text())["rays"]
    for name in ("a1_cone", "a2_cone", "a3_cone", "third_cone", "square_cone", "hexagon_cone")
]
SIMPLICIAL_3D = [  # determinants 6, 3, 3 and 6
    [(1, 0, 1), (0, 1, 1), (-1, -2, 3)],
    [(1, 0, 0), (0, 1, 0), (1, 2, 3)],
    [(1, 0, 1), (0, 1, 1), (-2, -1, 1)],
    [(1, 0, 0), (1, 2, 0), (1, 1, 3)],
]


@pytest.mark.parametrize("bound,max_n", [(1, 12), (2, 9)])
def test_per_character_oracle(bound, max_n):
    # at bound 2 the window of X(n, q) has (4n + 1)^2 characters; n <= 9
    # keeps the test at a few seconds.  On these cones every finite part
    # lies inside the window, so the window must give it exactly; an
    # infinite part must grow with the window.
    cyclic = [[(0, 1), (n, -q)] for n in range(2, max_n + 1) for q in range(1, n) if gcd(n, q) == 1]
    nonzero_der = nonzero_homq = infinite_der = 0
    for rays in cyclic + SHIPPED_CONES + SIMPLICIAL_3D:
        cone = affine_cone([tuple(v) for v in rays])
        assert len(rays) > 3 or 0 < abs(int_det(rays)) <= 12
        # the hexagon's dual Hilbert basis alone takes seconds, and t1_affine
        # certifies its derivation part zero without it
        if len(rays) < 6:
            der = oracle_der(cone, bound)
            dim, completeness = der_part_exact(cone)
            if completeness is Completeness.INFINITE:
                assert dim is None and oracle_der(cone, bound - 1) < der, rays
                infinite_der += 1
            else:
                assert (dim, completeness) == (der, Completeness.GUARANTEED), rays
            nonzero_der += der > 0
        if singular_codim(cone) >= 3:
            contributions = oracle_homq(cone, bound)
            total, got = hom_q_h3(cone)
            assert [(c.fine_degree, c.dimension) for c in got] == contributions, rays
            assert total == sum(k for _, k in contributions)
            nonzero_homq += total > 0
    # the three cones of SIMPLICIAL_3D that are singular in codimension 2
    assert nonzero_der >= len(cyclic) and nonzero_homq == 2 and infinite_der == 3


@pytest.mark.parametrize(
    "run,calls",
    [
        (lambda: der_part_exact(affine_cone(SHIPPED_CONES[-2])), 24),  # the square
        (lambda: der_part_exact(affine_cone([(0, 1), (7, -3)])), 15),
        (lambda: hom_q_h3(affine_cone(SHIPPED_CONES[-1])), 64),  # the hexagon
    ],
)
def test_one_rank_per_sign_signature(monkeypatch, run, calls):
    # one rref per distinct (source patterns, target patterns) signature
    # among the chambers; ranking every character of a window separately
    # took 157 calls on X(7, 3) and 64 on the hexagon
    count = 0

    def counting(*args):
        nonlocal count
        count += 1
        return rref(*args)

    monkeypatch.setattr("torrigid.t1.rref", counting)
    run()
    assert count == calls


@st.composite
def chamber_points(draw):
    """Shifts per coordinate, the key of one chamber of them, two degrees x
    and y in that chamber, and a shift s with s_k = 0 or a shift of k."""
    shifts = draw(st.lists(st.lists(st.integers(0, 6), max_size=4), min_size=1, max_size=5))
    key, x, y, s = [], [], [], []
    for ks in shifts:
        x_k = draw(st.integers(-12, 12))
        # exactly one interval holds x_k
        [(c, lo, hi)] = [
            (c, lo, hi)
            for c, lo, hi in _intervals(ks)
            if (lo is None or lo <= x_k) and (hi is None or x_k <= hi)
        ]
        key.append(c)
        x.append(x_k)
        y.append(draw(st.integers(-12 if lo is None else lo, 12 if hi is None else hi)))
        s.append(draw(st.sampled_from([0, *ks])))
    return key, x, y, s


@given(chamber_points())
def test_chamber_fixes_sign_patterns(case):
    key, x, y, s = case
    patterns = {negative([a + d for a, d in zip(z, s)]) for z in (key, x, y)}
    assert len(patterns) == 1


@pytest.mark.parametrize(
    "run,calls",
    [
        (lambda: der_part_exact(affine_cone(SHIPPED_CONES[-2])), 81),  # the square
        (lambda: der_part_exact(affine_cone([(0, 1), (7, -3)])), 25),
        (lambda: hom_q_h3(affine_cone(SHIPPED_CONES[-1])), 64),  # the hexagon
    ],
)
def test_one_kernel_per_chamber(monkeypatch, run, calls):
    # one kernel lookup per chamber (3^4 of them on the square), and for
    # hom_q_h3 only where the third cohomology is nonzero (64 of 729
    # chambers); looking up every character of a window took 841 calls on
    # X(7, 3) and 729 on the hexagon
    count = 0

    def counting(*args):
        nonlocal count
        count += 1
        return _kernel_dim(*args)

    monkeypatch.setattr("torrigid.t1._kernel_dim", counting)
    run()
    assert count == calls


def test_targets_only_behind_nonzero_sources(monkeypatch):
    # the index-42 cone has 2,340 chambers, and every source piece of H^2
    # vanishes on each: its 3 source degrees are formed per chamber, its 25
    # target degrees (one per Hilbert-basis element) never; forming both for
    # every chamber built 65,520 degrees
    counts = {"kernels": 0, "degrees": 0}

    def counting_kernel(*args):
        counts["kernels"] += 1
        return _kernel_dim(*args)

    def counting_translate(*args):
        counts["degrees"] += 1
        return _translate(*args)

    monkeypatch.setattr("torrigid.t1._kernel_dim", counting_kernel)
    monkeypatch.setattr("torrigid.t1._translate", counting_translate)
    cone = affine_cone([(-3, 3, -1), (-2, 0, -3), (-1, -3, 2)])
    assert der_part_exact(cone) == (0, Completeness.GUARANTEED)
    assert counts == {"kernels": 2340, "degrees": 3 * 2340}


@pytest.mark.parametrize(
    "run",
    [
        lambda: der_part_exact(affine_cone([(0, 1), (7, -3)])),  # X(7, 3)
        lambda: hom_q_h3(affine_cone(SHIPPED_CONES[-1])),  # the hexagon
    ],
    ids=["der_part_exact", "hom_q_h3"],
)
def test_chamber_walk_keeps_its_own_degree_records(monkeypatch, run):
    # the chambers share degrees, and the one-degree memo of localcoh._degree
    # only remembers the last: the walk keeps its records by degree, so each
    # distinct degree takes at most one sign pattern, and nothing of them
    # outlives the call at module level
    degrees, patterns = set(), 0
    degree, sign_pattern = localcoh._degree, localcoh.negative

    def recording(b, p):
        degrees.add(p)
        return degree(b, p)

    def counting(p):
        nonlocal patterns
        patterns += 1
        return sign_pattern(p)

    def sizes():
        return {
            (module.__name__, name): len(value)
            for module in (localcoh, t1)
            for name, value in vars(module).items()
            if isinstance(value, (dict, list, set, tuple)) and not name.startswith("__")
        }

    monkeypatch.setattr(localcoh, "_degree", recording)
    monkeypatch.setattr("torrigid.t1._degree", recording)
    monkeypatch.setattr(localcoh, "negative", counting)
    monkeypatch.setattr(localcoh, "_last", (None, None, None))
    before = sizes()
    run()
    assert 0 < patterns <= len(degrees)
    assert sizes() == before


# ---------------------------------------------------------------------------
# Bounded-search oracle: the chamber walk from before finiteness was decided
# from the faces


def searched_chambers(rays, shifts, kernel, bound):
    """The chamber walk of ``_chamber_characters`` before T^1 was decided from
    the faces, kept as an oracle for that decision: (total, found, outcome).

    An unbounded chamber with a nonzero kernel is searched for a character
    by ``integer_feasible`` within ``bound``; on a simplicial cone it is
    first cut to a bounded chamber that holds a character if it does, since
    |det| e_k lies in p(M).  A character found makes the outcome
    ``infinite``, a search that runs out ``inconclusive``."""
    n = len(rays[0])
    index = abs(int_det(rays)) if len(rays) == n else 0

    def system(chamber):
        rows = [(v, lo) for v, (_, lo, _) in zip(rays, chamber) if lo is not None]
        rows += [(tuple(-c for c in v), -hi) for v, (_, _, hi) in zip(rays, chamber) if hi is not None]
        return AffineSystem(num_vars=n, inequalities=tuple(rows))

    found, outcome = [], "guaranteed"
    for chamber in itertools.product(*map(_intervals, shifts)):
        ker = kernel(tuple(key for key, _, _ in chamber))
        if not ker:
            continue
        try:
            found += [(u, ker) for u in lattice_points(system(chamber))]
        except UnboundedPolyhedronError:
            if index:
                chamber = [
                    (key, hi - index + 1 if lo is None else lo, lo + index - 1 if hi is None else hi)
                    for key, lo, hi in chamber
                ]
            result = integer_feasible(system(chamber), bound)
            if isinstance(result, Witness):
                return None, [], "infinite"
            if isinstance(result, BoundExceeded):
                outcome = "inconclusive"
    return sum(ker for _, ker in found), sorted(found), outcome


def searched_t1(cone):
    """t1_affine with no face rule and every chamber walk by
    ``searched_chambers`` at twice the largest ray coordinate: (outcome,
    total, contributions), the total and contributions only when every walk
    is ``guaranteed``."""
    bound = 2 * max(abs(c) for v in cone.ray_vectors for c in v)
    outcomes = []

    def walk(rays, shifts, kernel):
        total, found, outcome = searched_chambers(rays, shifts, kernel, bound)
        outcomes.append(outcome)
        return total or 0, found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(t1, "_chamber_characters", walk)
        patch.setattr(t1, "_non_rigid_face", lambda cone: None)
        report = t1_affine(cone)
    for outcome in ("infinite", "inconclusive"):
        if outcome in outcomes:
            return outcome, None, None
    return "guaranteed", report.total, report.contributions


@st.composite
def small_cones(draw):
    """n to n + 2 rays in Z^n, n = 3 or 4, with coordinates in [-2, 2]."""
    n = draw(st.sampled_from((3, 4)))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    return draw(st.lists(vec, min_size=n, max_size=n + 2))


PYRAMID = [(0, 0, 0, 1), (1, 0, 0, 1), (1, 1, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)]


@settings(max_examples=100)
@given(small_cones())
@example(PYRAMID)  # non-simplicial, smooth in codimension 2, one square facet
@example([(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)])  # the square: rigid faces
@example([(1, 0, 1), (0, 1, 1), (-1, -2, 3)])  # simplicial, singular along a curve
def test_face_rule_matches_bounded_search(rays):
    try:
        cone = affine_cone(rays)
    except FanValidationError:
        assume(False)
    assume(cone.dim == len(rays[0]))
    report = t1_affine(cone)
    rigid = report.witness_face is None
    simplicial, codim = is_simplicial(cone), singular_codim(cone)
    if not rigid:
        face, total = report.witness_face
        assert total > 0 and face < cone.indices
    if simplicial or codim >= 3:
        outcome, total, contributions = searched_t1(cone)
        assert rigid == (outcome != "infinite"), outcome
        if rigid:
            assert (outcome, total, contributions) == ("guaranteed", report.total, report.contributions)
    else:
        # the search does not apply: a singular two-dimensional face
        assert len(report.witness_face[0]) == 2
    if simplicial:
        # Schlessinger: quotient singularities smooth in codimension 2 are
        # rigid; a singular two-dimensional face is never rigid
        if codim >= 3:
            assert report.total == 0 and der_part_exact(cone) == (0, Completeness.GUARANTEED)
        else:
            assert report.completeness is Completeness.INFINITE
