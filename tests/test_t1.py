import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from search_oracles import signature
from toric_oracles import class_of_cox_polynomial
from torrigid import lattice, localcoh, t1, toric
from torrigid.cli import load_fan, load_polynomial
from torrigid.ideals import SquarefreeMonomialIdeal
from torrigid.lattice import (
    AffineSystem,
    BoundExceeded,
    UnboundedPolyhedronError,
    Witness,
    _bareiss_rank,
    hilbert_basis,
    int_det,
    int_rank,
    integer_feasible,
    lattice_points,
    rref,
    solve_diophantine,
)
from torrigid.localcoh import _all_records, _pattern, _records, _restriction, local_coh_piece, mult_map, negative
from torrigid.rigidity import Hypothesis
from torrigid.t1 import (
    Completeness,
    CoxPolynomial,
    UnsupportedModeError,
    _cy_fan,
    _der_part_vanishes,
    _intervals,
    _kernels,
    _scaled,
    cox_polynomial,
    cy_t1,
    der_part_exact,
    dual_cone_generators,
    hom_q_h3,
    t1_affine,
    t1_polygon,
)
from torrigid.toric import (
    FanValidationError,
    affine_cone,
    class_group,
    irrelevant_ideal,
    is_simplicial,
    is_smooth,
    q_gorenstein,
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
        kernel = _kernels(3, _all_records(b), coef)
        assert kernel(signature(chamber, sources + targets)) == 1
        shifted = targets[1:] + targets[:1]  # a_ij paired with p + e_(j+1)
        assert kernel(signature(chamber, sources + shifted)) == 0


class TestConeLeavingOutARay:
    # the irrelevant ideal and the class group have one variable per ray of
    # the fan, the degrees p(u) one coordinate per ray of the cone: a cone
    # that leaves out a ray of its fan is refused before any pattern is built
    @pytest.mark.parametrize("first", [False, True], ids=["unused_last", "unused_first"])
    @pytest.mark.parametrize("part", [der_part_exact, hom_q_h3], ids=["der_part_exact", "hom_q_h3"])
    def test_square_cone_with_an_unused_ray(self, cold_localcoh, square_cone, part, first):
        square = list(square_cone.ray_vectors)
        rays = [(0, 0, -1), *square] if first else [*square, (0, 0, -1)]
        used = frozenset(range(1, 5) if first else range(4))
        cone = validate_fan(rays, [used]).cone(used)
        with pytest.raises(ValueError, match="every ray of its fan"):
            part(cone)
        assert not any(localcoh._records.cache_info()[:2])

    def test_sub_cone_of_a_larger_fan(self):
        fan = validate_fan([(0, 1), (1, 0), (-1, -2)], [{0, 1}, {1, 2}])
        with pytest.raises(ValueError, match="every ray of its fan"):
            der_part_exact(fan.cone(frozenset({1, 2})))
        assert der_part_exact(affine_cone([(1, 0), (-1, -2)])) == (1, Completeness.GUARANTEED)
        # a smooth cone is rigid whatever else its fan holds
        assert der_part_exact(fan.cone(frozenset({0, 1}))) == (0, Completeness.GUARANTEED)


class TestDerPart:
    def test_square_sufficient(self, square_cone):
        assert _der_part_vanishes(square_cone)

    # cones smooth in codimension 2 that are not Q-Gorenstein: the
    # connectivity test decides, and only a failed test ranks the part
    @pytest.mark.parametrize(
        "rays,vanishes,der_dim",
        [
            ([(-1, 1, 1), (-1, 2, 1), (-2, -2, -1), (-1, -2, -2)], True, 0),
            ([(-1, 1, 1), (-1, 1, -2), (0, 1, 2), (-1, 0, -2)], False, 2),
        ],
        ids=["gamma", "exact"],
    )
    def test_non_q_gorenstein(self, monkeypatch, rays, vanishes, der_dim):
        cone = affine_cone(rays)
        assert singular_codim(cone) >= 3 and q_gorenstein(cone) is None
        assert _der_part_vanishes(cone) is vanishes
        calls = []
        exact = t1.der_part_exact
        monkeypatch.setattr(t1, "der_part_exact", lambda c: calls.append(c) or exact(c))
        assert t1_affine(cone).der_dimension == der_dim
        assert calls == ([] if vanishes else [cone])
        assert exact(cone) == (der_dim, Completeness.GUARANTEED)

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
        assert [list(row) for row in _restriction(0, _pattern(b, negative(start)), _pattern(b, negative(end)))] == [[0]]

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

    def test_cross_check_disagreement_raises(self, monkeypatch):
        # an error, not an assert, so that it survives python -O
        monkeypatch.setattr(t1, "t1_affine", lambda cone: SimpleNamespace(total=0))
        with pytest.raises(RuntimeError, match="polygon formula disagrees with the affine computation"):
            t1_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def per_derivative_jacobian_rank(fan, poly):
    """Rank of the Jacobian system of ``cy_t1``, its rows built as they were
    before they were read off the anticanonical monomials: the multipliers
    x^g of each nonzero partial derivative are enumerated on their own by
    ``lattice_points``, from g - e_k in the image of M."""
    rays = fan.rays
    n = len(rays[0])
    target = AffineSystem(num_vars=n, inequalities=tuple((v, -1) for v in rays))
    monomials = sorted(
        tuple(1 + sum(a * b for a, b in zip(u, v)) for v in rays) for u in lattice_points(target)
    )
    index = {e: k for k, e in enumerate(monomials)}
    rows = []
    for k in range(len(rays)):
        derivative = [
            (c * e[k], tuple(x - (j == k) for j, x in enumerate(e))) for c, e in poly.terms if e[k]
        ]
        if not derivative:
            continue
        multipliers = AffineSystem(
            num_vars=n, inequalities=tuple((v, -(j == k)) for j, v in enumerate(rays))
        )
        for u in lattice_points(multipliers):
            g = tuple((j == k) + sum(a * b for a, b in zip(u, v)) for j, v in enumerate(rays))
            row = [0] * len(monomials)
            for c, e in derivative:
                row[index[tuple(map(add, g, e))]] += c
            rows.append(row)
    # ranked by Bareiss elimination alone, not by the modular certificate
    # that cy_t1's int_rank tries first
    scale = lcm(*(c.denominator for c, _ in poly.terms))
    return _bareiss_rank([[int(x * scale) for x in row] for row in rows])[0]


def random_fermat_under_change(seed, num_vars):
    rng = random.Random(seed)
    while True:
        a = [[rng.choice((-1, 1)) for _ in range(num_vars)] for _ in range(num_vars)]
        if int_det(a):
            return fermat_under_change(a)


class TestCyT1:
    @pytest.mark.parametrize(
        "num_vars,terms",
        [
            (5, None),  # fans/fermat_quintic.json
            *((5, random_fermat_under_change(seed, 5)) for seed in range(3)),
            *((6, random_fermat_under_change(seed, 6)) for seed in range(2)),
            # x5 does not occur, so df/dx5 vanishes identically; in the last
            # polynomial df/dx4 does too
            (5, [(1, (5, 0, 0, 0, 0)), (-2, (0, 5, 0, 0, 0)), (1, (0, 0, 5, 0, 0)),
                 (3, (0, 0, 0, 5, 0)), (1, (2, 1, 0, 2, 0)), (4, (1, 1, 1, 2, 0))]),
            (5, [(1, (5, 0, 0, 0, 0)), (1, (4, 1, 0, 0, 0)), (1, (3, 0, 2, 0, 0))]),
            # x0^5 alone: its exponent 5 is the largest entry of an
            # anticanonical monomial, base - 1 for cy_t1's monomial codes
            (5, [(3, (5, 0, 0, 0, 0))]),
        ],
    )
    def test_rows_match_per_derivative_enumeration(self, num_vars, terms):
        fan = projective_fan(num_vars - 1)
        if terms is None:
            poly, _ = load_polynomial(str(FANS / "fermat_quintic.json"), fan)
        else:
            poly = cox_polynomial(fan, terms)
        report = cy_t1(fan, poly)
        assert report.hypotheses_ok
        assert report.jacobian_rank == per_derivative_jacobian_rank(fan, poly)
        assert report.dimension == report.monomial_count - report.jacobian_rank

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

    @pytest.mark.parametrize("num_vars,seed", [(5, 10), (5, 11), (5, 12), (6, 10)])
    def test_certified_rank_matches_bareiss(self, monkeypatch, num_vars, seed):
        # the rank certified modulo P by the packed scan is the rank that
        # fraction-free elimination finds when the scan is switched off
        fan = projective_fan(num_vars - 1)
        poly = cox_polynomial(fan, random_fermat_under_change(seed, num_vars))
        scan = lattice._full_rank_mod_p
        verdicts = []

        def recording(a, k):
            verdicts.append(scan(a, k))
            return verdicts[-1]

        monkeypatch.setattr(lattice, "_full_rank_mod_p", recording)
        certified = cy_t1(fan, poly)
        assert verdicts == [True]
        monkeypatch.setattr(lattice, "_full_rank_mod_p", lambda a, k: False)
        assert cy_t1(fan, poly) == certified

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


class TestZeroPolynomial:
    X0 = (5, 0, 0, 0, 0)

    @pytest.mark.parametrize(
        "coeffs", [(1, -1), (Fraction(1, 2), Fraction(1, 2), -1), (3, -1, -2)]
    )
    def test_cancelling_terms_rejected(self, p4_fan, coeffs):
        with pytest.raises(ValueError, match="polynomial is zero"):
            cox_polynomial(p4_fan, [(c, self.X0) for c in coeffs])

    def test_equal_exponents_combined(self, p4_fan):
        fermat = fermat_quintic(p4_fan)
        ones = (1, 1, 1, 1, 1)
        terms = [
            (Fraction(1, 3), self.X0), (2, ones), *fermat.terms[1:], (Fraction(2, 3), self.X0), (-2, ones)
        ]
        poly = cox_polynomial(p4_fan, terms)
        assert poly == fermat
        assert cy_t1(p4_fan, poly) == cy_t1(p4_fan, fermat)

    def test_cancelled_term_leaves_no_degree(self, p4_fan):
        # x0^4 cancels, so the rest is one polynomial of one class degree
        poly = cox_polynomial(p4_fan, [(1, (4, 0, 0, 0, 0)), (1, self.X0), (-1, (4, 0, 0, 0, 0))])
        assert poly.terms == ((1, self.X0),)


def relabelled_p4():
    perm = [2, 0, 4, 1, 3]
    p4 = projective_fan(4)
    rays = [p4.rays[i] for i in perm]
    return validate_fan(rays, [frozenset(perm.index(i) for i in c) for c in p4.max_cones])


def fake_p4():
    """P^4 / (Z/5): the rays span a sublattice of index 5 and sum to zero.
    The class group is Z + Z/5, and the fan passes every ``cy`` hypothesis."""
    rays = [(-2, -3, -4, -5), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 5)]
    return validate_fan(rays, [tuple(j for j in range(5) if j != i) for i in range(5)])


CY_FANS = {
    "P4": projective_fan(4),
    "P5": projective_fan(5),
    "P4 relabelled": relabelled_p4(),
    "P4/Z5": fake_p4(),
}


@st.composite
def exponents(draw, m):
    """Exponent vectors e >= 0 of length m: of total degree m half the time
    (the free degree of -K on the fans of ``CY_FANS``), small otherwise."""
    if draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(0, m), min_size=m - 1, max_size=m - 1)))
        return tuple(b - a for a, b in zip([0, *cuts], [*cuts, m]))
    return tuple(draw(st.lists(st.integers(0, m + 1), min_size=m, max_size=m)))


@pytest.mark.parametrize("name", CY_FANS)
@settings(max_examples=150)
@given(data=st.data())
def test_anticanonical_membership_matches_class_of(name, data):
    # an exponent e >= 0 is an anticanonical monomial exactly when it has
    # the class of (1, ..., 1), torsion part included
    fan = CY_FANS[name]
    hyps, table = _cy_fan(fan.rays, fan.max_cones)
    assert all(h.status == "satisfied" for h in hyps)
    cox = class_group(fan)
    e = data.draw(exponents(fan.num_rays))
    assert (e in table.members) == (cox.class_of(e) == cox.class_of((1,) * fan.num_rays))


def test_torsion_splits_the_anticanonical_degree():
    # of the 126 quintic monomials on P^4 / (Z/5), those with sum_j j e_j
    # divisible by 5 are anticanonical
    fan = fake_p4()
    _, table = _cy_fan(fan.rays, fan.max_cones)
    cox = class_group(fan)
    assert cox.torsion == (5,)
    quintics = [e for e in itertools.product(range(6), repeat=5) if sum(e) == 5]
    members = [e for e in quintics if e in table.members]
    assert len(quintics) == 126 and len(members) == 26 == len(table.index)
    assert all(sum(j * x for j, x in enumerate(e)) % 5 == 0 for e in members)


def torsion_square():
    """Rays (+-1, +-1): class group Z^2 + Z/2, as in
    ``test_cox_polynomial_compares_torsion``."""
    return validate_fan([(1, 1), (1, -1), (-1, 1), (-1, -1)], [(0, 1), (0, 2), (1, 3), (2, 3)])


COX_POLYNOMIAL_FANS = {**CY_FANS, "(+-1, +-1)": torsion_square()}
# a shift of the free degree 0 and a nonzero torsion class, on the fans
# with torsion
TORSION_SHIFTS = {"P4/Z5": (-1, 1, 0, 0, 0), "(+-1, +-1)": (-1, 0, 0, 1)}


def random_coefficient(rng):
    """Nonzero: an int, a Fraction, True or a float."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((-3, -2, -1, 1, 2, 3))
    if kind == 1:
        return Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))
    if kind == 2:
        return True
    return rng.choice((0.1, 0.2, -0.3, 0.5, -1.5, 2.0))


def random_terms(rng, fan, torsion_shift=None):
    """A term list for the fan, valid or invalid.  Most exponents come from
    a pool of one class (ref + p(u) for small characters u, where that stays
    nonnegative), so equal exponents meet, and some terms are cancelled by
    their negatives.  One exponent in twelve is of another class (drawn
    independently, or half the time ref + ``torsion_shift`` when given), one
    in twelve has a wrong length or a negative entry, and half are lists;
    one coefficient in twelve is zero (0, False, 0.0 or Fraction(0)).  One
    term list in twenty is empty, and one in twenty has every exponent one
    entry short."""
    m, n = fan.num_rays, fan.ambient_rank
    ref = tuple(rng.randint(1, 3) for _ in range(m))
    pool = [ref]
    for _ in range(rng.randint(0, 3)):
        u = [rng.randint(-1, 1) for _ in range(n)]
        e = tuple(x + sum(map(mul, u, v)) for x, v in zip(ref, fan.rays))
        if min(e) >= 0:
            pool.append(e)
    if torsion_shift and rng.random() < 0.5:
        other = tuple(map(add, ref, torsion_shift))
    else:
        other = tuple(rng.randint(0, 3) for _ in range(m))
    terms = []
    for _ in range(0 if rng.random() < 0.05 else rng.randint(1, 6)):
        pick = rng.randrange(12)
        if pick == 0:
            e = other
        elif pick == 1:
            e = tuple(rng.randint(-1, 3) for _ in range(rng.choice((m, m, m - 1, m + 1))))
        else:
            e = rng.choice(pool)
        c = rng.choice((0, False, 0.0, Fraction(0))) if rng.randrange(12) == 0 else random_coefficient(rng)
        terms.append((c, list(e) if rng.random() < 0.5 else e))
    terms += [(-c, e) for c, e in terms if rng.random() < 0.3]
    if rng.random() < 0.05:  # one entry short of the fan's rays throughout
        terms = [(c, tuple(e)[1:]) for c, e in terms]
    rng.shuffle(terms)
    return terms


def cox_polynomial_outcome(build, fan, terms):
    """The polynomial with the types of its coefficients, or the message of
    the ``ValueError`` raised."""
    try:
        poly = build(fan, terms)
    except ValueError as exc:
        return str(exc)
    return poly, [type(c) for c, _ in poly.terms]


@pytest.mark.parametrize("name", COX_POLYNOMIAL_FANS)
def test_cox_polynomial_matches_class_of_reference(name):
    # ints add as ints and the class degree is tested on e - ref, with the
    # same result, or the same message, as one Fraction addition per term
    # and one class_of per term
    fan = COX_POLYNOMIAL_FANS[name]
    rng = random.Random(name)
    outcomes = Counter()
    for _ in range(300):
        terms = random_terms(rng, fan, TORSION_SHIFTS.get(name))
        outcome = cox_polynomial_outcome(cox_polynomial, fan, terms)
        assert outcome == cox_polynomial_outcome(class_of_cox_polynomial, fan, terms), terms
        outcomes[outcome.split(" ")[0] if isinstance(outcome, str) else len(outcome[0].terms) > 1] += 1
    # valid polynomials of one term and of several, and every refusal
    assert set(outcomes) == {True, False, "zero", "bad", "polynomial", "exponents", "terms"}


def test_float_coefficients_convert_before_they_add(p4_fan):
    # each float converts exactly, so 0.1 and 0.2 on one exponent give
    # Fraction(0.1) + Fraction(0.2), not Fraction(0.1 + 0.2)
    x0 = (5, 0, 0, 0, 0)
    terms = [(0.1, x0), (0.2, x0)]
    assert Fraction(0.1) + Fraction(0.2) != Fraction(0.1 + 0.2)
    assert cox_polynomial(p4_fan, terms).terms == ((Fraction(0.1) + Fraction(0.2), x0),)
    assert cox_polynomial(p4_fan, terms) == class_of_cox_polynomial(p4_fan, terms)


@pytest.mark.parametrize(
    "fan,terms,offending",
    [
        # every term is checked, not the first alone
        (projective_fan(4), [(1, (5, 0, 0, 0, 0)), (1, (4, 0, 0, 0, 0))], (4, 0, 0, 0, 0)),
        (
            projective_fan(4),
            [(1, (0, 0, 0, 0, 5)), (2, (1, 1, 1, 1, 1)), (1, (0, 0, 1, 0, 0))],
            (0, 0, 1, 0, 0),
        ),
        (
            projective_fan(4),
            [(1, (4, 0, 0, 0, 0)), (1, (5, 0, 0, 0, 0)), (1, (0, 6, 0, 0, 0))],
            (4, 0, 0, 0, 0),
        ),
        # the same free degree, another torsion class
        (fake_p4(), [(1, (5, 0, 0, 0, 0)), (1, (4, 1, 0, 0, 0))], (4, 1, 0, 0, 0)),
    ],
)
def test_mixed_classes_report_first_offending_exponent(fan, terms, offending):
    # built by hand: cox_polynomial would refuse mixed class degrees
    poly = CoxPolynomial(tuple((Fraction(c), e) for c, e in terms))
    report = cy_t1(fan, poly)
    assert report.dimension is None
    assert report.hypotheses[-1] == Hypothesis(
        "degree_anticanonical", "failed", f"offending exponent {offending}"
    )


class TestCyFanCache:
    @staticmethod
    def counted_lattice_points(monkeypatch):
        calls = []

        def counting(system):
            calls.append(system)
            return lattice_points(system)

        monkeypatch.setattr(t1, "lattice_points", counting)
        return calls

    def test_one_table_per_fan_value(self, monkeypatch, cold_cy_cache):
        calls = self.counted_lattice_points(monkeypatch)
        p4 = projective_fan(4)
        named = validate_fan(p4.rays, p4.max_cones, name="another name")
        assert named != p4 and named.name != p4.name
        first = cy_t1(p4, fermat_quintic(p4))
        assert cy_t1(named, fermat_quintic(named)) == first
        assert len(calls) == 1
        relabelled = relabelled_p4()
        assert cy_t1(relabelled, fermat_quintic(relabelled)).dimension == 101
        assert len(calls) == 2
        info = _cy_fan.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)

    def test_failed_hypotheses_cached_without_table(self, monkeypatch, cold_cy_cache):
        calls = self.counted_lattice_points(monkeypatch)
        fan, _ = load_fan(str(FANS / "p3.json"))
        hyps, table = _cy_fan(fan.rays, fan.max_cones)
        assert table is None and not calls
        assert "dim_at_least_4" in {h.name for h in hyps if h.status == "failed"}

    def test_bounded_and_immutable(self):
        maxsize = _cy_fan.cache_info().maxsize
        assert isinstance(maxsize, int) and 0 < maxsize <= 16
        p4 = projective_fan(4)
        hyps, table = _cy_fan(p4.rays, p4.max_cones)
        assert type(hyps) is tuple and type(table.slots) is tuple and type(table.weights) is tuple
        assert type(table.members) is frozenset
        with pytest.raises(TypeError):
            table.index[0] = 0
        with pytest.raises(AttributeError):
            table.members = frozenset()


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
        pytest.param(lambda: der_part_exact(affine_cone(SHIPPED_CONES[-2])), 20, id="square"),
        pytest.param(lambda: der_part_exact(affine_cone([(0, 1), (7, -3)])), 15, id="X(7,3)"),
        pytest.param(lambda: hom_q_h3(affine_cone(SHIPPED_CONES[-1])), 1, id="hexagon"),
        pytest.param(lambda: der_part_exact(affine_cone([(0, 1), (30, -1)])), 91, id="X(30,1)"),
    ],
)
def test_one_rank_per_sign_signature(monkeypatch, run, calls):
    # one rref per distinct (source patterns, target patterns) signature
    # among the chambers that can hold a character; ranking every character
    # of a window separately took 157 calls on X(7, 3) and 64 on the
    # hexagon.  A chamber whose pinned coordinates span holds at most one
    # character and is ranked only when it holds it: 24 -> 20 calls on the
    # square and 960 -> 91 on X(30, 1).  On the hexagon every chamber of
    # hom_q_h3 but one has independent rays at its -1 coordinates (Gale
    # null) or no character, and only x = (-1, ..., -1) is ranked: 64 -> 1
    count = 0

    def counting(*args):
        nonlocal count
        count += 1
        return rref(*args)

    monkeypatch.setattr("torrigid.t1.rref", counting)
    run()
    assert count == calls


def test_blocks_in_ints_when_integral():
    # every restriction matrix met so far is integral; its block rows are
    # then ints, and a block with a fraction keeps its Fractions
    integral = _scaled(3, ((Fraction(1), Fraction(-2)), (Fraction(0), Fraction(1))))
    assert integral == [[3, -6], [0, 3]]
    assert {type(x) for row in integral for x in row} == {int}
    assert _scaled(-2, ((Fraction(1, 2), Fraction(1)),)) == [[-1, -2]]
    assert _scaled(3, ((Fraction(1, 2), Fraction(1)),)) == [[Fraction(3, 2), 3]]


@st.composite
def chamber_points(draw, count=1):
    """Shifts per coordinate, the key of one chamber of them, two degrees x
    and y in that chamber, and ``count`` shifts s with s_k = 0 or a shift of
    k."""
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
        s.append(draw(st.lists(st.sampled_from([0, *ks]), min_size=count, max_size=count)))
    return key, x, y, list(zip(*s))


@given(chamber_points())
def test_chamber_fixes_sign_patterns(case):
    key, x, y, [s] = case
    patterns = {negative([a + d for a, d in zip(z, s)]) for z in (key, x, y)}
    assert len(patterns) == 1


@given(chamber_points(count=3))
def test_walk_signature_is_the_or_of_interval_bits(case):
    # the walk over every sign pattern of the rays e_k, where x = u, asks a
    # recording kernel once per chamber, at the signature that
    # search_oracles.signature gives its key, and the drawn x and y of one
    # chamber have one signature.  lattice_points is replaced by the key of
    # the chamber it is given (the upper end of each interval, or its lower
    # end 0), so every chamber, bounded or not, names the signature it got
    key, x, y, degrees = case
    m = len(key)
    rays = [tuple(int(j == k) for j in range(m)) for k in range(m)]
    patterns = [frozenset(k for k in range(m) if mask >> k & 1) for mask in range(1 << m)]
    asked = []

    def kernel(signature):
        asked.append(signature)
        return 1 + signature

    def chamber_key(system):
        ends = {}
        for v, c in system.equalities:
            ends[v.index(1)] = c
        for v, c in system.inequalities:
            k = next(j for j, a in enumerate(v) if a)
            ends[k] = -c if v[k] < 0 else ends.get(k, c)
        return [tuple(ends[k] for k in range(m))]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(t1, "lattice_points", chamber_key)
        _, found = t1._chamber_characters(rays, degrees, patterns, kernel)
    intervals = [_intervals([d[k] for d in degrees]) for k in range(m)]
    keys = sorted(itertools.product(*[[c for c, _, _ in ivs] for ivs in intervals]))
    assert [u for u, _ in found] == keys
    assert found == [(u, 1 + signature(u, degrees)) for u in keys]
    assert sorted(asked) == sorted(ker - 1 for _, ker in found)
    # x and y lie in one chamber of the walk, which was asked for their signature
    walk_key = tuple(
        next(c for c, lo, hi in ivs if (lo is None or lo <= x_k) and (hi is None or x_k <= hi))
        for x_k, ivs in zip(x, intervals)
    )
    assert signature(x, degrees) == signature(y, degrees) == signature(walk_key, degrees)
    assert (walk_key, 1 + signature(x, degrees)) in found


@settings(max_examples=300)
@given(chamber_points(count=5), st.integers(1, 4))
def test_sign_signature_packs_every_degree(case, sources):
    # every pattern carries a piece, so a kernel decodes every source and
    # target mask of its signature and builds one block per pair: each block
    # joins the patterns of key + source and key + target, and the other
    # degrees of the chamber have the key's signature, so they rank nothing
    key, x, y, shifts = case
    src, tgt = shifts[:sources], shifts[sources:]
    m = len(key)
    records = [
        SimpleNamespace(pattern=frozenset(k for k in range(m) if mask >> k & 1), dims={0: 1})
        for mask in range(1 << m)
    ]
    blocks = []

    def restriction(q, src, tgt):
        blocks.append((src.pattern, tgt.pattern))
        return ((Fraction(1),),)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(t1, "_restriction", restriction)
        kernel = _kernels(2, records, [[1] * len(src)] * len(tgt))
        kernel(signature(key, shifts))
        degree = [[negative([a + d for a, d in zip(key, s)]) for s in side] for side in (src, tgt)]
        assert blocks == [(p, q) for q in degree[1] for p in degree[0]]
        kernel(signature(x, shifts))
        kernel(signature(y, shifts))
    assert len(blocks) == len(src) * len(tgt)


@pytest.mark.parametrize(
    "run,calls",
    [
        pytest.param(lambda: der_part_exact(affine_cone(SHIPPED_CONES[-2])), 36, id="square"),
        pytest.param(lambda: der_part_exact(affine_cone([(0, 1), (7, -3)])), 15, id="X(7,3)"),
        pytest.param(lambda: hom_q_h3(affine_cone(SHIPPED_CONES[-1])), 1, id="hexagon"),
    ],
)
def test_one_kernel_per_chamber(monkeypatch, run, calls):
    # one kernel lookup per chamber whose sign pattern can carry a kernel,
    # less the pinned chambers with no character and, for hom_q_h3, the
    # Gale-null ones: 36 of the square's 3^4 chambers (40 before the
    # pinned gate), 15 of X(7, 3)'s 25 (16), and for hom_q_h3 1 of the
    # hexagon's 729 (64, where the third cohomology is nonzero); looking
    # up every character of a window took 841 calls on X(7, 3) and 729 on
    # the hexagon, and every chamber 81 on the square and 25 on X(7, 3)
    count = 0

    def counting_kernels(*args):
        kernel = _kernels(*args)

        def counting(key):
            nonlocal count
            count += 1
            return kernel(key)

        return counting

    monkeypatch.setattr("torrigid.t1._kernels", counting_kernels)
    run()
    assert count == calls


def test_targets_only_behind_nonzero_sources(monkeypatch):
    # no sign pattern of the index-42 cone carries H^2, so none of its 2,340
    # chambers is walked and no block of a multiplication map is built:
    # ranking each of them formed its 3 source degrees (7,020), and forming
    # its 25 target degrees too built 65,520
    counts = {"kernels": 0, "restrictions": 0}

    def counting_kernels(*args):
        kernel = _kernels(*args)

        def counting(key):
            counts["kernels"] += 1
            return kernel(key)

        return counting

    def counting_restriction(*args):
        counts["restrictions"] += 1
        return _restriction(*args)

    monkeypatch.setattr("torrigid.t1._kernels", counting_kernels)
    monkeypatch.setattr("torrigid.t1._restriction", counting_restriction)
    cone = affine_cone([(-3, 3, -1), (-2, 0, -3), (-1, -3, 2)])
    assert der_part_exact(cone) == (0, Completeness.GUARANTEED)
    assert counts == {"kernels": 0, "restrictions": 0}


def test_one_record_lookup_per_distinct_source_shift(monkeypatch):
    # hom_q_h3 gives each of the hexagon's r = 3 Euler components the source
    # shift 0: its 64 kernels read their records off the 2^6 pattern
    # records, and look up none of their own, where looking up each degree
    # took 1 + 6 per kernel, and every source shift 3 + 6.  Each pattern's
    # record is read off the ideal's table, or built, once
    reads = []

    class Reading:
        def __init__(self, table):
            self.table = table

        def get(self, mask):
            reads.append(mask)
            return self.table.get(mask)

        def __setitem__(self, mask, record):
            self.table[mask] = record

    monkeypatch.setattr("torrigid.localcoh._records", lambda b: Reading(_records(b)))
    hom_q_h3(affine_cone(SHIPPED_CONES[-1]))
    assert sorted(reads) == list(range(2**6))


# ---------------------------------------------------------------------------
# Product-walk oracle: every chamber of the interval product, before the walk
# was cut to the sign patterns that can carry a kernel


def coordinate_shifts(degrees, m):
    """The shifts of each of the m coordinates in the degree shifts."""
    return [[d[k] for d in degrees] for k in range(m)]


def product_chambers(rays, degrees, kernel):
    """The chamber walk of ``_chamber_characters`` over the whole interval
    product, kept as an oracle for its sign-pattern filter, its equalities
    and its signatures: every chamber is asked for its kernel at the
    signature of its key (``search_oracles.signature``), and its system has
    inequalities only."""
    n = len(rays[0])
    found = []
    for chamber in itertools.product(*map(_intervals, coordinate_shifts(degrees, len(rays)))):
        ker = kernel(signature([key for key, _, _ in chamber], degrees))
        if not ker:
            continue
        rows = [(v, lo) for v, (_, lo, _) in zip(rays, chamber) if lo is not None]
        rows += [(tuple(-c for c in v), -hi) for v, (_, _, hi) in zip(rays, chamber) if hi is not None]
        try:
            found += [(u, ker) for u in lattice_points(AffineSystem(n, inequalities=tuple(rows)))]
        except UnboundedPolyhedronError:
            continue
    return sum(ker for _, ker in found), sorted(found)


def random_rigid_cones(n, m, radius, count):
    """``count`` cones on m rays in Z^n with coordinates in [-radius, radius],
    drawn by a generator seeded with (n, m, radius): full-dimensional, not
    smooth, every proper face rigid, and at most 2,500 chambers in the
    interval product of the derivation part."""
    rng = random.Random(f"{n} {m} {radius}")
    out = []
    while len(out) < count:
        rays = [tuple(rng.randint(-radius, radius) for _ in range(n)) for _ in range(m)]
        try:
            cone = affine_cone(rays)
        except FanValidationError:
            continue
        if cone.dim != n or is_smooth(cone) or t1._non_rigid_face(cone) is not None:
            continue
        exponents = [t1._fine_degree(cone.ray_vectors, w) for w in hilbert_basis(dual_cone_generators(cone))]
        if prod(len(_intervals([1, *(beta[k] for beta in exponents)])) for k in range(m)) <= 2500:
            out.append(rays)
    return out


@pytest.mark.parametrize(
    "n,m,radius,count",
    [(2, 2, 4, 20), (3, 3, 2, 10), (3, 4, 2, 10), (4, 4, 1, 10), (4, 5, 1, 10)],
    ids=["2d", "3d-simplicial", "3d", "4d-simplicial", "4d"],
)
def test_pattern_walk_matches_product_walk(monkeypatch, n, m, radius, count):
    # both parts, with the walk over the patterns that can carry a kernel
    # and then over the whole product: equal totals and contributions, and
    # never more kernels asked for by the pattern walk
    asked = {"patterns": 0, "product": 0}

    def counted(name, kernel):
        def counting(signature):
            asked[name] += 1
            return kernel(signature)

        return counting

    walk = t1._chamber_characters
    walks = {
        "patterns": lambda rays, degrees, patterns, kernel, **gates: walk(
            rays, degrees, patterns, counted("patterns", kernel), **gates
        ),
        "product": lambda rays, degrees, patterns, kernel, **gates: product_chambers(
            rays, degrees, counted("product", kernel)
        ),
    }
    parts, nonzero = [], 0
    for rays in random_rigid_cones(n, m, radius, count):
        cone = affine_cone(rays)
        answers = {}
        for name, patched in walks.items():
            monkeypatch.setattr(t1, "_chamber_characters", patched)
            answers[name] = [der_part_exact(cone)]
            if singular_codim(cone) >= 3 and not is_simplicial(cone):
                answers[name].append(hom_q_h3(cone))
            monkeypatch.setattr(t1, "_chamber_characters", walk)
        assert answers["patterns"] == answers["product"], rays
        parts.append(len(answers["product"]))
        nonzero += any(part[0] for part in answers["product"])
    assert len(parts) == count and asked["patterns"] <= asked["product"]
    # Schlessinger: simplicial cones of dimension >= 3 with rigid faces are
    # rigid, so only there is every part zero
    assert (nonzero > 0) == (n == 2 or m > n)


# ---------------------------------------------------------------------------
# The gates of the chamber walk: a chamber pinned by rays that span holds at
# most one character, and a Gale-null chamber of hom_q_h3 has no kernel


def chamber_system(rays, chamber):
    """The system of a chamber of ``_intervals``: a one-point interval as an
    equality, the others as inequalities."""
    eqs = [(v, lo) for v, (_, lo, hi) in zip(rays, chamber) if lo == hi]
    rows = [(v, lo) for v, (_, lo, hi) in zip(rays, chamber) if lo is not None and lo != hi]
    rows += [(tuple(-c for c in v), -hi) for v, (_, lo, hi) in zip(rays, chamber) if hi is not None and lo != hi]
    return AffineSystem(len(rays[0]), tuple(eqs), tuple(rows))


def pinned_outcomes(rays, shifts):
    """How the chambers whose one-point intervals pin rays of full rank end,
    counted by an exact solve of all their equalities: 'non-integral' (one
    rational solution, not integral), 'outside' (no rational solution, or
    an integral one that leaves an interval) or 'holds'."""
    n = len(rays[0])
    outcomes = Counter()
    for chamber in itertools.product(*map(_intervals, shifts)):
        eqs = chamber_system(rays, chamber).equalities
        if not eqs or int_rank([v for v, _ in eqs]) < n:
            continue
        reduced, pivots = rref([[*v, c] for v, c in eqs])
        if n in pivots:
            outcomes["outside"] += 1
        elif any(row[n].denominator != 1 for row in reduced):
            outcomes["non-integral"] += 1
        else:
            outcomes["holds" if lattice_points(chamber_system(rays, chamber)) else "outside"] += 1
    return outcomes


@st.composite
def pinned_walks(draw):
    """Rays of rank n = 2, 3 or 4 with coordinates in [-3, 3], n or n + 1 of
    them, and one or two shifts in 1..3 per ray, so that one-point
    intervals are common; at most 400 chambers."""
    n = draw(st.integers(2, 4))
    rays = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=n, max_size=n + 1))
    assume(int_rank(rays) == n)
    shifts = draw(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=2), min_size=len(rays), max_size=len(rays)))
    assume(prod(len(_intervals(s)) for s in shifts) <= 400)
    return rays, shifts


# a non-integral pinned character: 2a + b = a + 2b = -1
NON_INTEGRAL = ([(2, 1), (1, 2)], [[1], [1]])
# x_0 = x_1 = -1 pin u = (-1, -1), so x_2 = -2 is outside x_2 >= 0 and
# x_2 = -1; x_2 = -1 and x_0 or x_1 = -1 pin the other one at 0, outside <= -2
OUTSIDE = ([(1, 0), (0, 1), (1, 1)], [[1], [1], [1]])
# the first two rays are parallel, so the first n pinned rays can be
# dependent: x_0 = x_1 = -1 has no rational solution
PARALLEL = ([(1, 0), (2, 0), (0, 1)], [[1], [1], [1]])


@pytest.mark.parametrize(
    "case,outcomes",
    [
        (NON_INTEGRAL, {"non-integral": 1}),
        (OUTSIDE, {"outside": 4, "holds": 3}),
        (PARALLEL, {"non-integral": 2, "outside": 2, "holds": 1}),
    ],
    ids=["non-integral", "outside", "parallel"],
)
def test_pinned_examples(case, outcomes):
    # the explicit examples of the test below hold both kinds of pinned
    # chambers that the gate skips
    assert pinned_outcomes(*case) == outcomes


@settings(max_examples=120, deadline=None, derandomize=True)
@given(pinned_walks())
@example(NON_INTEGRAL)
@example(OUTSIDE)
@example(PARALLEL)
def test_pinned_gate_matches_lattice_points(case):
    # a kernel that is nonzero on every signature, and every sign pattern,
    # so every chamber of the product is counted: the gated walk gives what
    # lattice_points gives on every chamber (``product_chambers``), and calls
    # it only on the chambers that are not pinned.  Each shift s of ray k is
    # the degree s e_k, so coordinate k has the intervals of its shifts
    rays, shifts = case
    m, n = len(rays), len(rays[0])
    patterns = [frozenset(k for k in range(m) if mask >> k & 1) for mask in range(1 << m)]
    degrees = [tuple(s if j == k else 0 for j in range(m)) for k, ks in enumerate(shifts) for s in ks]

    def kernel(signature):
        return 1 + signature % 3

    calls = []

    def counting(system):
        calls.append(system)
        return lattice_points(system)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(t1, "lattice_points", counting)
        got = t1._chamber_characters(rays, degrees, patterns, kernel)
    assert got == product_chambers(rays, degrees, kernel)
    unpinned = sum(
        int_rank([v for v, _ in chamber_system(rays, chamber).equalities] or [(0,) * n]) < n
        for chamber in itertools.product(*map(_intervals, shifts))
    )
    assert len(calls) == unpinned


def random_homq_cones(n, count):
    """``count`` non-simplicial cones on n + 1 to n + 3 rays in Z^n with
    coordinates in [-2, 2], drawn by a generator seeded with n:
    full-dimensional, smooth in codimension 2, every proper face rigid."""
    rng = random.Random(f"gale {n}")
    out = []
    while len(out) < count:
        rays = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(n + 1, n + 3))]
        try:
            cone = affine_cone(rays)
        except FanValidationError:
            continue
        if cone.dim != n or is_simplicial(cone) or singular_codim(cone) < 3:
            continue
        if t1._non_rigid_face(cone) is None:
            out.append(rays)
    return out


POLYGON_CONES = [
    SHIPPED_CONES[-2],  # the square
    SHIPPED_CONES[-1],  # the hexagon
    *(
        [(x, y, 1) for x, y in json.loads((FANS / f"{name}.json").read_text())["vertices"]]
        for name in ("square_polygon", "hexagon_polygon")
    ),
    [(2, -1, 1), (1, 1, 1), (2, -2, 1), (-2, 2, 1), (-1, 2, 1), (-1, -1, 1)],  # asymmetric hexagon
]


@pytest.mark.parametrize(
    "cones",
    [POLYGON_CONES, random_homq_cones(3, 6), random_homq_cones(4, 12)],
    ids=["polygons", "random-3d", "random-4d"],
)
def test_gale_bound_matches_ungated_kernel(cones):
    # hom_q_h3's kernel at a key lies in K_E (x) H(N), dim K_E = |E| - rank of
    # the rays at the -1 coordinates E: wherever that is 0 the ungated
    # kernel of _kernels is 0, on the signature of every key of the
    # product, walked or not
    gated = nonzero = 0
    for rays in cones:
        walks = []
        walk = t1._chamber_characters

        def capture(rays, degrees, patterns, kernel, **gates):
            walks.append((degrees, kernel, gates))
            return walk(rays, degrees, patterns, kernel, **gates)

        cone = affine_cone([tuple(v) for v in rays])
        t1._non_rigid_face(cone)  # walks the faces' chambers first
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(t1, "_chamber_characters", capture)
            hom_q_h3(cone)
        [(degrees, kernel, gates)] = walks
        assert gates == {"gale": True}
        for key in itertools.product((0, -1, -2), repeat=len(rays)):
            pinned = [v for v, x in zip(cone.ray_vectors, key) if x == -1]
            if len(pinned) == (int_rank(pinned) if pinned else 0):
                assert kernel(signature(key, degrees)) == 0, (rays, key)
                gated += 1
            else:
                nonzero += kernel(signature(key, degrees)) > 0
    assert gated and nonzero


@pytest.mark.parametrize(
    "run",
    [
        lambda: der_part_exact(affine_cone([(0, 1), (7, -3)])),  # X(7, 3)
        lambda: hom_q_h3(affine_cone(SHIPPED_CONES[-1])),  # the hexagon
    ],
    ids=["der_part_exact", "hom_q_h3"],
)
def test_chamber_walk_keeps_its_own_degree_records(monkeypatch, cold_localcoh, run):
    # the walk keeps its own records: a chamber's degrees are read off the
    # records of all sign patterns through the chamber's sign signature, so
    # no degree is looked up in localcoh (whose one-degree memo
    # localcoh._degree only remembers the last), and nothing of the walk's
    # tables outlives the call at module level
    calls = {"_degree": 0, "negative": 0}
    degree, sign_pattern = localcoh._degree, localcoh.negative

    def recording(b, p):
        calls["_degree"] += 1
        return degree(b, p)

    def counting(p):
        calls["negative"] += 1
        return sign_pattern(p)

    def sizes():
        return {
            (module.__name__, name): len(value)
            for module in (localcoh, t1)
            for name, value in vars(module).items()
            if isinstance(value, (dict, list, set, tuple)) and not name.startswith("__")
        }

    monkeypatch.setattr(localcoh, "_degree", recording)
    monkeypatch.setattr(localcoh, "negative", counting)
    before = sizes()
    run()
    assert calls == {"_degree": 0, "negative": 0}
    assert sizes() == before


walked_cones = pytest.mark.parametrize(
    "rays",
    [
        SHIPPED_CONES[-1],  # the hexagon: hom_q_h3 after the face rule
        SIMPLICIAL_3D[1],  # simplicial and face-rigid
        SIMPLICIAL_3D[0],  # simplicial with a non-rigid face
        [(-1, -2, 0), (1, 1, -2), (-2, 2, 2), (-2, 1, 2)],  # der_part_exact and hom_q_h3
        [(1, 2, -1, -1), (2, 0, 0, 2), (-1, 2, 2, 0), (2, 2, 0, 0), (2, 2, -1, 1)],  # a 3-D face walked
    ],
    ids=["hexagon", "simplicial-rigid", "simplicial-witness", "non-q-gorenstein", "4d"],
)


@walked_cones
def test_one_face_walk_per_cone(monkeypatch, rays):
    # t1_affine decides the face rule and then calls the parts, which decide
    # it again for the same cone: the singular faces of the cone are found
    # once, and those of each face cone walked on the way once each
    walked = []
    fill = toric._singular_record

    def counting(cone):
        if toric._facet_record(cone.fan.rays, cone.indices).singular is None:
            walked.append(cone)
        return fill(cone)

    monkeypatch.setattr(toric, "_singular_record", counting)
    toric._facet_record.cache_clear()
    t1._non_rigid_face.cache_clear()
    cone = affine_cone(rays)
    report = t1_affine(cone)
    assert set(Counter(walked).values()) == {1}
    # called again, directly or through the parts, for the same cone
    if report.witness_face is None:
        assert t1_affine(cone) == report
        if not is_simplicial(cone):
            assert hom_q_h3(cone) == (report.homq_dimension, report.contributions)
    else:
        assert der_part_exact(cone) == (None, Completeness.INFINITE)
    assert walked.count(cone) == 1
    info = t1._non_rigid_face.cache_info()
    assert info.misses == len(walked) and info.hits >= 1


@walked_cones
def test_second_t1_affine_tests_no_face_by_minors(monkeypatch, rays):
    # a second t1_affine on an equal cone reads the singular faces off the
    # cone's facet record: the only minors it takes are the direct is_smooth
    # tests of the cone itself, none when it has more rays than the rank
    report = t1_affine(affine_cone(rays))
    tested = []
    unimodular = toric._unimodular

    def counting(vectors, n):
        tested.append(frozenset(vectors))
        return unimodular(vectors, n)

    monkeypatch.setattr(toric, "_unimodular", counting)
    cone = affine_cone(rays)
    assert t1_affine(cone) == report
    assert set(tested) <= {frozenset(cone.ray_vectors)}


def test_parts_refuse_a_non_rigid_face_after_t1_affine():
    # the remembered witness of t1_affine's walk refuses the parts too
    cone = affine_cone(PYRAMID)
    assert t1_affine(cone).witness_face == (frozenset({0, 1, 2, 3}), 1)
    for part in (hom_q_h3, der_part_exact):
        with pytest.raises(UnsupportedModeError, match=r"rays \[1, 2, 3, 4\]"):
            part(cone)


# ---------------------------------------------------------------------------
# Bounded-search oracle: the chamber walk from before finiteness was decided
# from the faces


def searched_chambers(rays, degrees, kernel, bound):
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
    for chamber in itertools.product(*map(_intervals, coordinate_shifts(degrees, len(rays)))):
        ker = kernel(signature([key for key, _, _ in chamber], degrees))
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

    def walk(rays, degrees, patterns, kernel, **gates):
        # every chamber of the product, whatever the patterns and gates
        total, found, outcome = searched_chambers(rays, degrees, kernel, bound)
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
