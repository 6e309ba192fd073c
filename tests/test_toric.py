import itertools
import json
import math
import random
from math import inf
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cone_oracles import cone_contains
from toric_oracles import (
    height,
    least_dim_without,
    proper_faces_fan,
    singular_faces_by_dim,
    smooth_faces_fan,
    wps_singular_ideal,
)
from torrigid import t1
from torrigid.cli import load_fan
from torrigid.lattice import (
    content,
    int_rank,
    integer_kernel,
    rational_feasible,
    rational_solve,
    smith_normal_form,
)
from torrigid.t1 import dual_cone_generators
from torrigid.toric import (
    Cone,
    Fan,
    FanValidationError,
    TorusFactorError,
    WeightSystem,
    _cone_probe,
    _facet_record,
    _independent,
    _is_hull_face_fan,
    _is_vertex,
    _lifted_faces,
    affine_cone,
    class_group,
    faces,
    gorenstein,
    graph_gamma,
    graph_gamma_f,
    irrelevant_ideal,
    is_complete,
    is_fano,
    is_simplicial,
    is_smooth,
    q_gorenstein,
    simplicial_codim,
    singular_codim,
    smooth_subfan,
    validate_fan,
    wps_normalize,
    wps_shared_factor,
)

FANS = Path(__file__).resolve().parent.parent / "fans"
FAN_FILES = [p for p in sorted(FANS.glob("*.json")) if "rays" in json.loads(p.read_text())]
SQUARE_RAYS = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
COMPLETE_FANS = ["f2", "p1xp3", "p2", "p3", "p4", "weighted_simplex_1113"]
# the face fan of the cube: complete, with six non-simplicial maximal cones
CUBE_RAYS = list(itertools.product((-1, 1), repeat=3))
CUBE_CONES = [
    [i for i, v in enumerate(CUBE_RAYS) if v[k] == s] for k in range(3) for s in (-1, 1)
]


class TestValidateFan:
    def test_p2(self, p2_fan):
        assert p2_fan.num_rays == 3
        assert p2_fan.warnings == ()

    def test_normalizes_ray(self):
        fan = validate_fan([(2, 0), (0, 1)], [(0, 1)])
        assert fan.rays[0] == (1, 0)
        assert len(fan.warnings) == 1

    def test_opposite_rays(self):
        with pytest.raises(FanValidationError, match="pointed"):
            validate_fan([(1, 0), (-1, 0)], [(0, 1)])

    def test_duplicate_rays(self):
        with pytest.raises(FanValidationError, match="coincide"):
            validate_fan([(2, 0), (1, 0)], [(0,), (1,)])

    def test_empty_cone_list(self):
        with pytest.raises(FanValidationError):
            validate_fan([(1, 0)], [])

    def test_listed_face_dropped(self):
        # P2 plus the ray cone [0]: a listed face of a listed cone is dropped,
        # so the fan stays complete
        fan = validate_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2), (0,)])
        assert fan.max_cones == (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}))
        assert fan.warnings == ("cone [0] is a face of cone [0, 1]; dropped",)
        assert is_complete(fan)
        square = validate_fan(SQUARE_RAYS, [(0, 1), (0, 1, 2, 3), (0, 1)])
        assert square.max_cones == (frozenset(range(4)),)
        assert len(square.warnings) == 1

    def test_nested_non_face_rejected(self):
        # the diagonal [0, 2] lies in the square cone but is not a face of it
        with pytest.raises(FanValidationError, match="cone \\[0, 2\\] lies in cone \\[0, 1, 2, 3\\]"):
            validate_fan(SQUARE_RAYS, [(0, 1, 2, 3), (0, 2)])

    def test_nested_cones_keep_the_irrelevant_ideal(self):
        rng = random.Random(16)
        checked = 0
        while checked < 40:
            rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 0), (0, -1, 1)]
            cones = [tuple(sorted(rng.sample(range(6), rng.randint(1, 3)))) for _ in range(4)]
            try:
                fan = validate_fan(rays, cones)
            except FanValidationError:
                continue
            kept = set(fan.max_cones)
            assert all(any(frozenset(c) <= k for k in kept) for c in cones)
            assert irrelevant_ideal(fan) == irrelevant_ideal(Fan(fan.rays, tuple(map(frozenset, cones))))
            checked += 1

    def test_ray_not_extremal(self):
        # (1, 1) lies inside the cone of (1, 0) and (0, 1): the smooth plane,
        # which must not gain a class group of rank one
        with pytest.raises(FanValidationError, match="ray 1 is not extremal in cone \\[0, 1, 2\\]"):
            affine_cone([(1, 0), (1, 1), (0, 1)])

    @pytest.mark.parametrize(
        "rays, cones, message",
        [
            # a line and a non-extremal ray: pointedness is tested first
            ([(1, 0), (-1, 0), (0, 1), (1, 1)], [(0, 1, 2, 3)], "cone [0, 1, 2, 3] is not pointed"),
            ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2, 3)], "cone [0, 1, 2, 3] is not pointed"),
            # the whole plane
            ([(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1, 2, 3)], "cone [0, 1, 2, 3] is not pointed"),
            # two non-extremal rays: the least index is named
            ([(1, 0), (1, 1), (0, 1), (1, 2)], [(0, 1, 2, 3)], "ray 1 is not extremal in cone [0, 1, 2, 3]"),
            # a rank-deficient cone with a non-extremal ray
            ([(1, 0, 0), (1, 1, 0), (0, 1, 0)], [(0, 1, 2)], "ray 1 is not extremal in cone [0, 1, 2]"),
            # the first listed cone that fails is named
            ([(1, 0), (1, 1), (0, 1), (-1, 0)], [(0, 1, 2), (0, 3, 2)], "ray 1 is not extremal in cone [0, 1, 2]"),
            ([(1, 0), (1, 1), (0, 1), (-1, 0)], [(0, 3, 2), (0, 1, 2)], "cone [0, 2, 3] is not pointed"),
            # an out-of-range index comes before pointedness
            ([(1, 0), (-1, 0)], [(0, 1, 5)], "cone [0, 1, 5] has out-of-range ray index 5"),
        ],
    )
    def test_error_messages_and_precedence(self, rays, cones, message):
        with pytest.raises(FanValidationError) as exc:
            validate_fan(rays, cones)
        assert str(exc.value) == message


class TestFaces:
    def test_square_cone(self, square_cone):
        fs = set(faces(square_cone))
        expected = {
            frozenset(),
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
            frozenset({0, 3}),
            frozenset({0, 1, 2, 3}),
        }
        assert fs == expected  # in particular no diagonals {0,2}, {1,3}

    def test_2d_cone(self, a1_cone):
        assert set(faces(a1_cone)) == {
            frozenset(),
            frozenset({0}),
            frozenset({1}),
            frozenset({0, 1}),
        }

    def test_single_ray(self):
        c = affine_cone([(1, 2)])
        assert set(faces(c)) == {frozenset(), frozenset({0})}

    def test_closed_under_face_relation(self, square_cone, hexagon_cone):
        for cone in (square_cone, hexagon_cone):
            all_faces = set(faces(cone))
            for f in all_faces:
                for sub in faces(cone.fan.cone(f)):
                    assert sub in all_faces


def fm_faces(rays, indices) -> tuple[frozenset[int], ...]:
    """The subset definition of the faces, by one Fourier-Motzkin test per
    subset F: some covector vanishes on F and is >= 1 on the other rays."""
    idx = sorted(indices)
    out = []
    for r in range(len(idx) + 1):
        for sub in itertools.combinations(idx, r):
            rows = [(rays[i], 0) for i in sub] + [(tuple(-c for c in rays[i]), 0) for i in sub]
            rows += [(rays[j], 1) for j in idx if j not in sub]
            if rational_feasible(rows, len(rays[0])):
                out.append(frozenset(sub))
    return tuple(out)


def kernel_dual_generators(rays, indices) -> list[tuple[int, ...]]:
    """The dual generators as integer kernels of the facets' rays, each
    facet a face of rank n - 1, signed to be >= 0 on the cone."""
    n = len(rays[0])
    gens = set()
    for f in fm_faces(rays, indices):
        fr = [rays[i] for i in sorted(f)]
        if int_rank(fr) != n - 1:
            continue
        (w,) = integer_kernel(fr) if fr else [tuple(int(k == 0) for k in range(n))]
        sign = 1 if all(sum(a * b for a, b in zip(w, rays[i])) >= 0 for i in indices) else -1
        gens.add(tuple(sign * a for a in w))
    return sorted(gens)


@st.composite
def cone_ray_sets(draw):
    """Rank 2-4, 1-7 nonzero rays with entries in [-2, 2], some lying in a
    hyperplane, with duplicate, parallel and opposite copies appended now
    and then; the cone takes a nonempty subset of them."""
    n = draw(st.integers(2, 4))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any).map(tuple)
    rays = draw(st.lists(vec, min_size=1, max_size=7))
    if draw(st.booleans()):  # last coordinate equal to the first: rank < n
        rays = [v[:-1] + (v[0],) for v in rays]
    for scale in draw(st.lists(st.sampled_from((1, 2, -1)), max_size=2)):
        v = draw(st.sampled_from(rays))
        if len(rays) < 7:
            rays.append(tuple(scale * x for x in v))
    indices = draw(st.sets(st.integers(0, len(rays) - 1), min_size=1))
    return tuple(rays), frozenset(indices)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cone_ray_sets())
@example((((1, 0), (-1, 0), (0, 1)), frozenset({0, 1, 2})))  # half-plane
@example((((1, 0), (-1, 0), (0, 1), (0, -1)), frozenset({0, 1, 2, 3})))  # whole plane
@example((((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)), frozenset({0, 1, 2, 3})))  # a line
@example((((1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0)), frozenset({0, 1, 2, 3})))  # rank 2 in 3D
@example((((1, 1), (1, 1), (1, 0)), frozenset({0, 1, 2})))  # duplicate
@example((((1, 0), (2, 0), (0, 1)), frozenset({0, 1, 2})))  # parallel
@example((((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1)), frozenset(range(5))))  # interior ray
def test_faces_match_fourier_motzkin(case):
    rays, indices = case
    cone = Cone(Fan(rays, (indices,)), indices)
    assert faces(cone) == fm_faces(rays, indices)
    if cone.dim == len(rays[0]):
        assert dual_cone_generators(cone) == kernel_dual_generators(rays, indices)


def test_facet_record_cache_is_bounded():
    assert _facet_record.cache_info().maxsize == 256


def fm_is_vertex(points, i) -> bool:
    """Some u has <u, v> >= <u, w> + 1 for every other point w."""
    v = points[i]
    rows = [(tuple(a - b for a, b in zip(v, w)), 1) for j, w in enumerate(points) if j != i]
    return rational_feasible(rows, len(v))


def fm_edge_graph(points) -> set[frozenset[int]]:
    """Pairs {i, j} with a covector equal on both and >= 1 above every other point."""
    edges = set()
    for i, j in itertools.combinations(range(len(points)), 2):
        a, b = points[i], points[j]
        rows = [(tuple(y - x for x, y in zip(a, b)), 0), (tuple(x - y for x, y in zip(a, b)), 0)]
        rows += [(tuple(x - y for x, y in zip(a, w)), 1) for k, w in enumerate(points) if k not in (i, j)]
        if rational_feasible(rows, len(a)):
            edges.add(frozenset({i, j}))
    return edges


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(2, 3).flatmap(
        lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple), min_size=1, max_size=7)
    )
)
@example([(0, 0), (1, 1), (2, 2), (0, 0)])  # collinear, with a duplicate
@example([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])  # a square pyramid
def test_vertices_and_edges_match_fourier_motzkin(points):
    assert [_is_vertex(points, i) for i in range(len(points))] == [
        fm_is_vertex(points, i) for i in range(len(points))
    ]
    assert {f for f in _lifted_faces(points) if len(f) == 2} == fm_edge_graph(points)


def greedy_independent(vectors):
    """Indices of the vectors that raise the rank of the ones chosen before
    them, one ``int_rank`` per vector."""
    chosen, out = [], []
    for i, v in enumerate(vectors):
        if int_rank([*chosen, v]) > len(chosen):
            chosen.append(v)
            out.append(i)
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple), max_size=7)
    )
)
@example([(0, 0), (1, 2), (2, 4), (0, 1)])  # a zero vector and a multiple
def test_independent_is_the_greedy_rank_scan(vectors):
    assert _independent(vectors) == greedy_independent(vectors)


def solve_q_gorenstein(rays):
    """The certificate from the rational solution of <u, v> = 1 on every ray."""
    sol = rational_solve(rays, [1] * len(rays))
    if sol is None:
        return None
    denom = math.lcm(*(x.denominator for x in sol))
    w = [int(x * denom) for x in sol]
    c = content(w)
    return tuple(x // c for x in w), denom // c


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cone_ray_sets())
def test_level_covector_matches_rational_solve(case):
    rays, indices = case
    cone = Cone(Fan(rays, (indices,)), indices)
    if cone.dim != len(rays[0]):
        return
    cert = q_gorenstein(cone)
    assert (cert and (cert.covector, cert.index)) == solve_q_gorenstein(cone.ray_vectors)


def solve_hull_face_fan(fan) -> bool:
    """Every ray a vertex of the ray hull, and the rational solution of
    <u, v> = 1 on each maximal cone < 1 on every other ray."""
    if not all(fm_is_vertex(fan.rays, i) for i in range(fan.num_rays)):
        return False
    for idx in fan.max_cones:
        sol = rational_solve([fan.rays[i] for i in sorted(idx)], [1] * len(idx))
        if sol is None or any(
            sum(a * b for a, b in zip(sol, w)) >= 1 for k, w in enumerate(fan.rays) if k not in idx
        ):
            return False
    return True


def smooth_by_smith(cone) -> bool:
    """The Smith-form definition: the rays are independent and every
    invariant factor of the ray matrix is 1."""
    if not cone.indices:
        return True
    if not is_simplicial(cone):
        return False
    snf = smith_normal_form(cone.ray_vectors)
    return all(f == 1 for f in snf.invariant_factors if f != 0) and snf.rank == len(cone.indices)


@st.composite
def ray_sets(draw):
    """Rank 2-5; 0 to n + 1 nonzero rays, not necessarily primitive; with a
    dependent ray appended now and then."""
    n = draw(st.integers(2, 5))
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any).map(tuple)
    rays = draw(st.lists(vec, max_size=n + 1))
    if len(rays) >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        extra = tuple(a * x + b * y for x, y in zip(rays[0], rays[1]))
        if any(extra):
            rays.append(extra)
    return n, rays


class TestSmoothSimplicial:
    @given(ray_sets())
    def test_minors_match_smith_form(self, case):
        n, rays = case
        fan = Fan(tuple(rays) or ((1,) * n,), (frozenset(range(len(rays))),))
        cone = fan.cone(range(len(rays)))
        assert is_smooth(cone) == smooth_by_smith(cone)

    def test_minors_match_smith_form_by_hand(self):
        cases = [
            ([], True),
            ([(2, 0, 0)], False),  # not primitive
            ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], False),  # dependent
            ([(1, 0, 0, 0), (1, 2, 0, 0)], False),
            ([(1, 2, 3, 4, 5), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)], True),
        ]
        for rays, smooth in cases:
            fan = Fan(tuple(rays) or ((1, 0),), (frozenset(range(len(rays))),))
            cone = fan.cone(range(len(rays)))
            assert is_smooth(cone) == smooth == smooth_by_smith(cone), rays

    def test_basic(self):
        assert is_smooth(affine_cone([(1, 0), (0, 1)]))
        a1 = affine_cone([(1, 0), (1, 2)])
        assert is_simplicial(a1) and not is_smooth(a1)

    def test_square_not_simplicial(self, square_cone):
        assert not is_simplicial(square_cone)

    def test_smooth_implies_simplicial(self, square_cone, hexagon_cone, third_cone):
        for cone in (square_cone, hexagon_cone, third_cone):
            for f in faces(cone):
                sub = cone.fan.cone(f)
                if is_smooth(sub):
                    assert is_simplicial(sub)


class TestCodims:
    def test_third_cone(self, third_cone):
        assert singular_codim(third_cone) == 3
        assert simplicial_codim(third_cone) == inf

    def test_a1(self, a1_cone):
        assert singular_codim(a1_cone) == 2

    def test_p2(self, p2_fan):
        assert singular_codim(p2_fan) == inf
        assert simplicial_codim(p2_fan) == inf

    def test_square(self, square_cone):
        assert singular_codim(square_cone) == 3
        assert simplicial_codim(square_cone) == 3


@st.composite
def small_fans(draw):
    """Rank 2 or 3, up to six distinct rays, one to four cones."""
    n = draw(st.integers(2, 3))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any).map(tuple)
    rays = draw(st.lists(vec, min_size=1, max_size=6, unique=True))
    cone = st.frozensets(st.integers(0, len(rays) - 1), min_size=1, max_size=n + 1)
    return Fan(tuple(rays), tuple(draw(st.lists(cone, min_size=1, max_size=4))))


class TestSingularCodim:
    @given(small_fans())
    def test_equals_all_faces_minimum(self, fan):
        cones = [fan.cone(f) for idx in fan.max_cones for f in faces(fan.cone(idx))]
        for codim, good in ((singular_codim, smooth_by_smith), (simplicial_codim, is_simplicial)):
            assert codim(fan) == min((c.dim for c in cones if not good(c)), default=inf)
            for idx in fan.max_cones:
                cone = fan.cone(idx)
                dims = [fan.cone(f).dim for f in faces(cone) if not good(fan.cone(f))]
                assert codim(cone) == min(dims, default=inf)


@st.composite
def record_fans(draw):
    """Rank 2-4, up to seven distinct rays with entries in [-2, 2], some
    lying in a hyperplane, and one to four cones on them, taken as they are:
    smooth, singular, non-simplicial and lower-dimensional cones all occur."""
    n = draw(st.integers(2, 4))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any).map(tuple)
    rays = draw(st.lists(vec, min_size=1, max_size=7, unique=True))
    if draw(st.booleans()):  # last coordinate equal to the first: rank < n
        rays = list(dict.fromkeys(v[:-1] + (v[0],) for v in rays))
    cone = st.frozensets(st.integers(0, len(rays) - 1), min_size=1, max_size=n + 2)
    return Fan(tuple(rays), tuple(draw(st.lists(cone, min_size=1, max_size=4))))


def tried_faces(cone: Cone) -> list[tuple]:
    """The rays of the faces that ``t1._non_rigid_face`` computes, in its
    order, with every face taken to be rigid."""
    tried = []

    def span(vectors):
        tried.append(tuple(vectors))
        return None, vectors

    with (
        mock.patch.object(t1, "_saturated_span", span),
        mock.patch.object(t1, "affine_cone", lambda vectors: vectors),
        mock.patch.object(t1, "t1_affine", lambda cone: SimpleNamespace(total=0)),
    ):
        assert t1._non_rigid_face.__wrapped__(cone) is None
    return tried


def assert_record_reads_match_face_walk(fan: Fan, simplicial_first: bool) -> None:
    """The singular and non-simplicial faces read off the facet records
    against one test per face: both codimensions of the fan and of each
    maximal cone, its smooth subfan, and the faces that the non-rigid-face
    walk computes, in order."""
    for _ in range(2):  # the record's fields filled, then read back
        pairs = [(singular_codim, is_smooth), (simplicial_codim, is_simplicial)]
        for codim, good in pairs[::-1] if simplicial_first else pairs:
            assert codim(fan) == least_dim_without(fan, good)
            for idx in fan.max_cones:
                assert codim(fan.cone(idx)) == least_dim_without(fan.cone(idx), good)
        for idx in fan.max_cones:
            cone = fan.cone(idx)
            assert smooth_subfan(cone) == smooth_faces_fan(cone)
            expected = [tuple(fan.rays[i] for i in sorted(f)) for f in singular_faces_by_dim(cone)]
            assert tried_faces(cone) == expected


class TestRecordedSingularFaces:
    @settings(max_examples=200)
    @given(record_fans(), st.booleans())
    @example(Fan(((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)), (frozenset({0, 1, 2}),)), False)  # smooth
    @example(Fan(tuple(CUBE_RAYS), tuple(map(frozenset, CUBE_CONES))), True)  # non-simplicial, complete
    @example(Fan(((1, 0, 0, 0), (1, 2, 0, 0), (0, 0, 1, 0)), (frozenset({0, 1, 2}),)), False)  # lower-dim
    @example(  # the cone over a cube: singular edges, non-simplicial facets
        Fan(tuple((*v, 1) for v in CUBE_RAYS), (frozenset(range(8)),)),
        True,
    )
    def test_match_the_face_walk(self, fan, simplicial_first):
        _facet_record.cache_clear()
        assert_record_reads_match_face_walk(fan, simplicial_first)

    @pytest.mark.parametrize("path", FAN_FILES, ids=lambda p: p.stem)
    def test_match_the_face_walk_on_shipped_fans(self, path):
        fan, _ = load_fan(str(path))
        for simplicial_first in (False, True):
            _facet_record.cache_clear()
            assert_record_reads_match_face_walk(fan, simplicial_first)

    def test_smooth_and_simplicial_cones_build_no_record(self):
        _facet_record.cache_clear()
        smooth = affine_cone([(1, 0, 0), (1, 1, 0), (0, 0, 1)])
        simplicial = affine_cone([(1, 0, 1), (0, 1, 1), (-1, -1, 1)])
        assert singular_codim(smooth) == simplicial_codim(smooth) == inf
        assert smooth_subfan(smooth).max_cones == (smooth.indices,)
        assert simplicial_codim(simplicial) == inf
        assert _facet_record.cache_info().currsize == 0
        assert singular_codim(simplicial) == 3
        assert _facet_record.cache_info().currsize == 1


class TestClassGroup:
    def test_p2(self, p2_fan):
        cox = class_group(p2_fan)
        assert cox.free_rank == 1
        assert cox.torsion == ()
        row = cox.grading_matrix[0]
        assert row in ((1, 1, 1), (-1, -1, -1))

    def test_square(self, square_cone):
        cox = class_group(square_cone.fan)
        assert cox.free_rank == 1
        assert cox.torsion == ()
        assert cox.grading_matrix[0] in ((1, -1, 1, -1), (-1, 1, -1, 1))

    def test_a1_torsion(self, a1_cone):
        cox = class_group(a1_cone.fan)
        assert cox.free_rank == 0
        assert cox.torsion == (2,)

    def test_annihilates_row_lattice(self, square_cone, hexagon_cone, p2_fan):
        for fan in (square_cone.fan, hexagon_cone.fan, p2_fan):
            cox = class_group(fan)
            n = cox.ambient_rank
            for u in itertools.product(range(-2, 3), repeat=n):
                p = [sum(u[k] * v[k] for k in range(n)) for v in fan.rays]
                for row in cox.grading_matrix:
                    assert sum(a * b for a, b in zip(row, p)) == 0

    def test_torus_factor_rejected(self):
        fan = validate_fan([(1, 0), (-1, 0)], [(0,), (1,)])
        with pytest.raises(TorusFactorError):
            class_group(fan)


class TestIrrelevantIdeal:
    def test_p2(self, p2_fan):
        b = irrelevant_ideal(p2_fan)
        assert set(b.generators) == {frozenset({0}), frozenset({1}), frozenset({2})}

    def test_square_proper_faces(self, square_cone):
        fan = proper_faces_fan(square_cone)
        b = irrelevant_ideal(fan)
        assert set(b.generators) == {
            frozenset({2, 3}),
            frozenset({0, 3}),
            frozenset({0, 1}),
            frozenset({1, 2}),
        }

    def test_a1_proper_faces(self, a1_cone):
        fan = proper_faces_fan(a1_cone)
        b = irrelevant_ideal(fan)
        assert set(b.generators) == {frozenset({0}), frozenset({1})}


class TestQGorenstein:
    def test_square(self, square_cone):
        cert = q_gorenstein(square_cone)
        assert cert is not None
        assert (cert.covector, cert.index) == ((0, 0, 1), 1)
        assert gorenstein(square_cone)

    def test_third(self, third_cone):
        cert = q_gorenstein(third_cone)
        assert (cert.covector, cert.index) == ((0, 0, 1), 1)

    def test_2d(self):
        cone = affine_cone([(1, 0), (1, 3)])
        cert = q_gorenstein(cone)
        assert (cert.covector, cert.index) == ((1, 0), 1)

    def test_not_qgorenstein(self):
        cone = affine_cone([(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 2)])
        assert q_gorenstein(cone) is None


class TestCompleteFano:
    def test_p2(self, p2_fan):
        assert is_complete(p2_fan)
        assert is_fano(p2_fan)

    def test_proper_faces_not_complete(self, square_cone):
        assert not is_complete(proper_faces_fan(square_cone))

    def test_f2_complete_not_fano(self, f2_fan):
        assert is_complete(f2_fan)
        assert not is_fano(f2_fan)

    def test_p4(self, p4_fan):
        assert is_complete(p4_fan)
        assert is_fano(p4_fan)

    def test_cube_face_fan(self):
        assert is_complete(validate_fan(CUBE_RAYS, CUBE_CONES))
        assert not is_complete(validate_fan(CUBE_RAYS, CUBE_CONES[1:]))


def random_complete_plane_fan(rng: random.Random) -> Fan:
    """Four to seven primitive rays, every angular gap below a half turn,
    angularly adjacent rays spanning the maximal cones."""
    while True:
        rays = sorted(
            {tuple(x // math.gcd(*v) for x in v) for v in
             ((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(4, 7))) if any(v)},
            key=lambda v: math.atan2(v[1], v[0]),
        )
        m = len(rays)
        pairs = [(k, (k + 1) % m) for k in range(m)]
        if m >= 3 and all(
            rays[a][0] * rays[b][1] - rays[a][1] * rays[b][0] > 0 for a, b in pairs
        ):
            return validate_fan(rays, pairs)


def test_adjugate_probe_matches_cone_contains():
    fans = [load_fan(str(FANS / f"{name}.json"))[0] for name in COMPLETE_FANS]
    rng = random.Random(1616)
    fans += [random_complete_plane_fan(rng) for _ in range(30)]
    fans.append(validate_fan(CUBE_RAYS, CUBE_CONES))  # six non-simplicial cones
    checked = nonsimplicial = 0
    for fan in fans:
        n = fan.ambient_rank
        assert is_complete(fan), fan.name
        assert _is_hull_face_fan(fan) == solve_hull_face_fan(fan), fan.name
        for idx in fan.max_cones:
            gens = [fan.rays[i] for i in sorted(idx)]
            assert int_rank(gens) == n
            nonsimplicial += len(gens) > n
            probe = _cone_probe(fan.cone(idx))
            for signs in itertools.product((-1, 1), repeat=n):
                assert probe(signs) == cone_contains(gens, signs), (fan.name, sorted(idx), signs)
                checked += 1
    assert checked > 900 and nonsimplicial == 6


class TestWps:
    def test_well_formed(self):
        # normalizing leaves exactly the well-formed systems as they are
        for weights in ((1, 1, 2, 3), (1, 1, 2, 2)):
            assert wps_normalize(WeightSystem(weights)).weights == weights
        assert wps_normalize(WeightSystem((1, 2, 2, 2))).weights != (1, 2, 2, 2)

    def test_normalize(self):
        assert wps_normalize(WeightSystem((1, 2, 2, 2))).weights == (1, 1, 1, 1)
        assert wps_normalize(WeightSystem((1, 1, 2, 3))).weights == (1, 1, 2, 3)

    def test_rigidity_condition(self):
        assert wps_shared_factor(WeightSystem((1, 1, 2, 3))) is None
        assert wps_shared_factor(WeightSystem((1, 1, 2, 2))) == ((2, 3), 2)
        assert wps_shared_factor(WeightSystem((1, 1, 1, 1, 1))) is None

    def test_singular_ideal(self):
        j = wps_singular_ideal(WeightSystem((1, 1, 2, 3)))
        assert set(j.generators) == {
            frozenset({0}),
            frozenset({1}),
            frozenset({2, 3}),
        }
        assert height(j) == 3
        assert wps_singular_ideal(WeightSystem((1, 1, 1))).is_unit

    def test_condition_matches_codim(self):
        for n in (2, 3):
            for w in itertools.product(range(1, 5), repeat=n + 1):
                q = WeightSystem(w)
                cond = wps_shared_factor(q) is None
                codim = height(wps_singular_ideal(q))
                assert cond == (codim >= 3), (w, cond, codim)


class TestGraphs:
    def test_square_gamma(self, square_cone):
        fan = proper_faces_fan(square_cone)
        g = graph_gamma(fan)
        assert g.edges == frozenset(
            frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (0, 3)]
        )

    def test_third_gamma_complete(self, third_cone):
        fan = proper_faces_fan(third_cone)
        g = graph_gamma(fan)
        assert g.edges == frozenset(
            frozenset(e) for e in [(0, 1), (1, 2), (0, 2)]
        )

    def test_single_ray(self):
        fan = validate_fan([(1, 0)], [(0,)])
        g = graph_gamma(fan)
        assert g.vertices == frozenset({0}) and not g.edges

    def test_gamma_f_square(self, square_cone):
        g = graph_gamma_f(square_cone)
        assert g.edges == frozenset(
            frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (0, 3)]
        )

    def test_gamma_f_subgraph_of_gamma(self, square_cone, hexagon_cone, third_cone):
        for cone in (square_cone, hexagon_cone, third_cone):
            gf = graph_gamma_f(cone)
            g = graph_gamma(proper_faces_fan(cone))
            assert gf.vertices == g.vertices
            assert gf.edges <= g.edges

    def test_components(self, square_cone):
        g = graph_gamma_f(square_cone)
        assert g.is_connected()
        sub = g.induced({0, 2})
        assert len(sub.connected_components()) == 2


def test_smooth_subfan_of_a1(a1_cone):
    fan = smooth_subfan(a1_cone)
    assert set(fan.max_cones) == {frozenset({0}), frozenset({1})}
