"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every expected value is either frozen from an independent oracle
computed here (combinatorial counts, brute-force row reduction, classical
versal families) or is a classical value stated in the sources the package
implements.
"""

import itertools
import random
import time
from math import gcd

from torrigid.ideals import SquarefreeMonomialIdeal
from torrigid.lattice import cone_contains, cone_is_pointed
from torrigid.localcoh import (
    alexander_dual,
    cech_piece,
    clique_complex,
    codim2_ideal,
    h2_via_graph,
    local_coh_piece,
    mult_map,
    stanley_reisner_complex,
)
from torrigid.rigidity import (
    Connected,
    Verdict,
    polytope_halfspace_connectivity,
    qgorenstein_rigidity,
    quotient_rigidity,
    wps_rigidity,
)
from torrigid.t1 import cox_polynomial, cy_t1, der_part_exact, t1_affine, t1_polygon
from torrigid.toric import (
    FanValidationError,
    WeightSystem,
    affine_cone,
    graph_gamma,
    irrelevant_ideal,
    validate_fan,
    wps_normalize,
    wps_rigidity_condition,
    wps_singular_ideal,
)

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def _lift(polygon):
    return affine_cone([(x, y, 1) for x, y in polygon])


def _report(number, message):
    print(f"[criterion {number:2}] PASS: {message}")


def random_minimal_ideal(rng, max_vars=6):
    """Random proper squarefree monomial ideal with minimal generators."""
    while True:
        m = rng.randint(2, max_vars)
        count = rng.randint(1, min(m + 1, 5))
        gens = set()
        while len(gens) < count:
            size = rng.randint(1, m)
            gens.add(frozenset(rng.sample(range(m), size)))
        b = SquarefreeMonomialIdeal(m, tuple(gens))
        if not b.is_unit:
            return b


def random_small_fan(rng):
    """Random fan with a proper irrelevant ideal, in rank two or three.

    Every ray must belong to some cone (a variable attached to no cone makes
    the irrelevant ideal principal and the ray graph meaningless)."""
    while True:
        n = rng.choice([2, 3])
        m = rng.randint(2, 6)
        rays = set()
        while len(rays) < m:
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if not any(v):
                continue
            g = 0
            for x in v:
                g = gcd(g, x)
            rays.add(tuple(x // g for x in v))
        rays = sorted(rays)
        cones = []
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, min(n + 1, m - 1))
            idx = tuple(sorted(rng.sample(range(m), size)))
            gens = [rays[i] for i in idx]
            # the cones of a fan are pointed and list only extremal rays
            if cone_is_pointed(gens) and not any(
                cone_contains(gens[:k] + gens[k + 1 :], g) for k, g in enumerate(gens)
            ):
                cones.append(idx)
        if not cones:
            continue
        used = sorted({i for c in cones for i in c})
        if len(used) < 2:
            continue
        relabel = {old: new for new, old in enumerate(used)}
        rays = [rays[i] for i in used]
        cones = [tuple(relabel[i] for i in c) for c in cones]
        try:
            fan = validate_fan(rays, cones)
        except FanValidationError:  # a cone inside another but not a face of it
            continue
        if not irrelevant_ideal(fan).is_unit:
            return fan


def test_criterion_1_polygon_formula():
    start = time.perf_counter()
    square_affine = t1_affine(_lift(SQUARE))
    square_poly = t1_polygon(SQUARE)
    assert square_affine.total == 1 and square_poly.dimension == 1
    elapsed_square = time.perf_counter() - start

    start = time.perf_counter()
    hex_affine = t1_affine(_lift(HEXAGON))
    hex_poly = t1_polygon(HEXAGON)
    assert hex_affine.total == 3 and hex_poly.dimension == 3
    elapsed_hex = time.perf_counter() - start

    # vertex count minus three: 4 - 3 = 1 and 6 - 3 = 3
    assert square_poly.dimension == len(SQUARE) - 3
    assert hex_poly.dimension == len(HEXAGON) - 3
    assert elapsed_square < 1.0 and elapsed_hex < 1.0
    _report(1, f"square 1, hexagon 3 ({elapsed_square:.2f}s / {elapsed_hex:.2f}s)")


def test_criterion_2_quintic_benchmark():
    rays = [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (-1, -1, -1, -1),
    ]
    cones = [tuple(j for j in range(5) if j != i) for i in range(5)]
    fan = validate_fan(rays, cones, name="P4")
    terms = [(1, tuple(5 if j == i else 0 for j in range(5))) for i in range(5)]
    start = time.perf_counter()
    report = cy_t1(fan, cox_polynomial(fan, terms))
    elapsed = time.perf_counter() - start
    # independent bounded-exponent oracle: quintic monomials with every
    # exponent at most 3, by inclusion-exclusion C(9,4) - 5*C(5,4)
    count = 0
    for e in itertools.product(range(4), repeat=5):
        if sum(e) == 5:
            count += 1
    assert count == 126 - 25
    assert report.dimension == count == 101
    assert elapsed < 10.0
    _report(2, f"quintic tangent dimension 101 ({elapsed:.2f}s)")


def test_criterion_3_rigidity_soundness():
    cone = affine_cone([(1, 0, 1), (0, 1, 1), (-1, -1, 1)])
    qg = qgorenstein_rigidity(cone)
    qt = quotient_rigidity(cone)
    assert qg.verdict is Verdict.RIGID
    assert qt.verdict is Verdict.RIGID
    report = t1_affine(cone)
    assert report.total == 0
    _report(3, "index-three cone certified rigid and tangent space is zero")


def test_criterion_4_oracle_equivalence():
    rng = random.Random(20240911)
    ideals = [random_minimal_ideal(rng) for _ in range(100)]
    start = time.perf_counter()
    comparisons = 0
    for b in ideals:
        m = b.num_vars
        for p in itertools.product(range(-2, 3), repeat=m):
            for i in range(m + 1):
                assert local_coh_piece(b, i, p).dimension == cech_piece(b, i, p), (
                    b,
                    i,
                    p,
                )
                comparisons += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, f"{comparisons} strand comparisons on 100 ideals agree ({elapsed:.1f}s)")


def test_criterion_5_multiplication_isomorphism():
    rng = random.Random(77001)
    ideals = [random_minimal_ideal(rng) for _ in range(100)]
    checked = 0
    for b in ideals:
        m = b.num_vars
        for pattern_bits in range(2**m):
            pattern = [k for k in range(m) if pattern_bits >> k & 1]
            for j in range(m):
                # the two chambers with p_j != -1: p_j >= 0 and p_j <= -2
                p = tuple(
                    (-2 if k == j else -1) if k in pattern else 0 for k in range(m)
                )
                if (j in pattern and p[j] != -2) or (j not in pattern and p[j] != 0):
                    continue
                for i in range(m + 1):
                    src = local_coh_piece(b, i, p).dimension
                    tgt_p = list(p)
                    tgt_p[j] += 1
                    tgt = local_coh_piece(b, i, tgt_p).dimension
                    if src == 0 and tgt == 0:
                        continue
                    mm = mult_map(b, i, p, j)
                    assert mm.is_bijective(), (b, i, p, j)
                    checked += 1
    assert checked > 0
    _report(5, f"{checked} nontrivial multiplication maps are all bijective")


def test_criterion_6_graph_formula():
    rng = random.Random(6006)
    fans = [random_small_fan(rng) for _ in range(50)]
    checked = 0
    for fan in fans:
        m = fan.num_rays
        b = irrelevant_ideal(fan)
        b2 = codim2_ideal(fan)
        degrees = {tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(20)}
        for p in sorted(degrees):
            expected = h2_via_graph(fan, p)
            assert local_coh_piece(b, 2, p).dimension == expected, (fan, p)
            if not b2.is_unit and not b2.is_zero:
                assert local_coh_piece(b2, 2, p).dimension == expected, (fan, p)
            checked += 1
    _report(6, f"{checked} degree strands match the component count on 50 fans")


def test_criterion_7_alexander_duality():
    rng = random.Random(7007)
    fans = [random_small_fan(rng) for _ in range(50)]
    for fan in fans:
        dual = alexander_dual(clique_complex(graph_gamma(fan)))
        sr = stanley_reisner_complex(codim2_ideal(fan))
        assert dual == sr, fan
    _report(7, "Stanley-Reisner complexes match Alexander duals on 50 fans")


def test_criterion_8_a_series():
    # versal-family oracle: the surface x*y = z^n deforms as
    # z^n + t_{n-2} z^{n-2} + ... + t_0, which has n - 1 parameters
    for n in (2, 3, 4):
        versal_parameter_count = len(range(0, n - 1))
        cone = affine_cone([(1, 0), (1, n)])
        dim, completeness = der_part_exact(cone)
        assert dim == n - 1 == versal_parameter_count, n
        report = t1_affine(cone)
        assert report.total == n - 1
    _report(8, "index-n surface cones give tangent dimensions 1, 2, 3")


def test_criterion_9_wps_criterion():
    assert wps_rigidity(WeightSystem((1, 1, 2, 3))).verdict is Verdict.RIGID
    assert (
        wps_rigidity(WeightSystem((1, 1, 2, 2))).verdict
        is Verdict.CONDITION_NOT_SATISFIED
    )
    checked = 0
    for n in (2, 3, 4):
        for weights in itertools.product(range(1, 7), repeat=n + 1):
            q = WeightSystem(weights)
            cond = wps_rigidity_condition(q)
            codim = wps_singular_ideal(q).height()
            assert cond == (codim >= 3), (weights, cond, codim)
            # the criterion is stable under normalization
            norm = wps_normalize(q)
            assert wps_rigidity_condition(norm) == (
                wps_singular_ideal(norm).height() >= 3
            )
            checked += 1
    _report(9, f"weight criterion matches singular codimension on {checked} systems")


def test_criterion_10_polytope_connectivity_fuzz():
    from torrigid.rigidity import _is_vertex

    rng = random.Random(101010)
    checked = 0
    while checked < 200:
        dim = rng.choice([2, 3])
        pts = sorted(
            {
                tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(dim + 1, 8))
            }
        )
        verts = [p for i, p in enumerate(pts) if _is_vertex(pts, i)]
        if len(verts) < 3:
            continue
        v = verts[rng.randrange(len(verts))]
        normal = tuple(rng.randint(-3, 3) for _ in range(dim))
        if not any(normal):
            continue
        offset = sum(a * x for a, x in zip(normal, v))
        result = polytope_halfspace_connectivity(verts, v, normal, offset)
        assert isinstance(result, Connected), (verts, v, normal)
        checked += 1
    _report(10, "200 random halfspace slices of polytope edge graphs connected")
