import itertools
import random
from array import array

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toric_oracles import clique_complex, codim2_ideal, proper_faces_fan
from torrigid import localcoh
from torrigid.ideals import SquarefreeMonomialIdeal
from torrigid.localcoh import (
    DegenerateIdealError,
    GradedPiece,
    SimplicialComplex,
    _degree,
    _pattern,
    _records,
    _restriction,
    cech_piece,
    h2_via_graph,
    local_coh_piece,
    mult_map,
    negative,
)
from torrigid.toric import graph_gamma, validate_fan


def ideal(m, *gens):
    return SquarefreeMonomialIdeal(m, tuple(frozenset(g) for g in gens))


XY = ideal(2, {0}, {1})


def square_b(square_cone):
    return proper_faces_fan(square_cone)


@pytest.fixture
def square_ideal(square_cone):
    from torrigid.toric import irrelevant_ideal

    return irrelevant_ideal(proper_faces_fan(square_cone))


def t_complex(b, pattern):
    """The complex of a sign pattern, read off the ideal's record of it."""
    return _pattern(b, frozenset(pattern)).complex


class TestTComplex:
    def test_two_variables_full_pattern(self):
        k = t_complex(XY, {0, 1})
        assert set(k.facets) == {frozenset({0}), frozenset({1})}

    def test_two_variables_half_pattern(self):
        k = t_complex(XY, {0})
        assert k.facets == (frozenset({1}),)

    def test_empty_pattern_is_void(self):
        assert t_complex(XY, set()).is_void

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateIdealError):
            t_complex(SquarefreeMonomialIdeal(2, ()), {0})
        with pytest.raises(DegenerateIdealError):
            t_complex(SquarefreeMonomialIdeal(2, (frozenset(),)), {0})


class TestReducedCohomology:
    def test_four_cycle(self):
        cycle = SimplicialComplex(
            (0, 1, 2, 3),
            tuple(frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (0, 3)]),
        )
        assert localcoh._cohomology_dims(cycle) == {-1: 0, 0: 0, 1: 1}

    def test_two_points(self):
        two = SimplicialComplex((0, 1), (frozenset({0}), frozenset({1})))
        assert localcoh._cohomology_dims(two) == {-1: 0, 0: 1}

    def test_full_simplex(self):
        full = SimplicialComplex((0, 1, 2), (frozenset({0, 1, 2}),))
        assert localcoh._cohomology_dims(full) == {-1: 0, 0: 0, 1: 0, 2: 0}

    def test_void_and_irrelevant(self):
        void = SimplicialComplex((0, 1), ())
        assert localcoh._cohomology_dims(void) == {}
        irrelevant = SimplicialComplex((0, 1), (frozenset(),))
        assert localcoh._cohomology_dims(irrelevant) == {-1: 1}


class TestLocalCohPiece:
    def test_plane_top(self):
        assert local_coh_piece(XY, 2, (-1, -1)).dimension == 1
        assert local_coh_piece(XY, 2, (-1, 0)).dimension == 0

    def test_one_variable_strand(self):
        b = ideal(1, {0})
        assert local_coh_piece(b, 1, (-1,)).dimension == 1
        assert local_coh_piece(b, 1, (0,)).dimension == 0

    def test_square_cone_top(self, square_ideal):
        piece = local_coh_piece(square_ideal, 3, (-1, -1, -1, -1))
        assert piece.dimension == 1
        # the pattern complex is a 4-cycle on the generators
        assert all(len(f) == 2 for f in piece.complex.facets)
        assert len(piece.complex.facets) == 4

    def test_chamber_invariance(self, square_ideal):
        rng = random.Random(5)
        for _ in range(20):
            signs = [rng.choice([True, False]) for _ in range(4)]
            p1 = tuple(-rng.randint(1, 3) if s else rng.randint(0, 3) for s in signs)
            p2 = tuple(-rng.randint(1, 3) if s else rng.randint(0, 3) for s in signs)
            for i in range(5):
                assert (
                    local_coh_piece(square_ideal, i, p1).dimension
                    == local_coh_piece(square_ideal, i, p2).dimension
                )


class TestMultMap:
    def test_iso_when_not_minus_one(self, square_ideal):
        mm = mult_map(square_ideal, 3, (-2, -1, -1, -1), 0)
        assert mm.source_dimension == mm.target_dimension == 1
        assert mm.is_bijective()

    def test_zero_target(self, square_ideal):
        mm = mult_map(square_ideal, 3, (-1, -1, -1, -1), 0)
        assert mm.source_dimension == 1
        assert mm.target_dimension == 0

    def test_plane(self):
        mm = mult_map(XY, 2, (-1, -1), 0)
        assert mm.target_dimension == 0

    def test_functoriality_commutes(self, square_ideal):
        p = (-2, -2, -1, -1)
        # multiply by x0 then x1, and by x1 then x0
        a1 = mult_map(square_ideal, 3, p, 0)
        a2 = mult_map(square_ideal, 3, (-1, -2, -1, -1), 1)
        b1 = mult_map(square_ideal, 3, p, 1)
        b2 = mult_map(square_ideal, 3, (-2, -1, -1, -1), 0)

        def compose(second, first):
            rows = len(second.matrix)
            cols = first.source_dimension
            return [
                [
                    sum(
                        second.matrix[r][k] * first.matrix[k][c]
                        for k in range(first.target_dimension)
                    )
                    for c in range(cols)
                ]
                for r in range(rows)
            ]

        assert compose(a2, a1) == compose(b2, b1)


@st.composite
def monomial_paths(draw):
    """A squarefree ideal on 3-5 variables, an index i in {2, 3}, a start
    degree in [-2, 1]^m and an exponent in [0, 2]^m.  Most degrees carry no
    cohomology, so the start is drawn among nonzero pieces and the exponent
    among those that reach a nonzero piece in another sign pattern, where
    such degrees exist."""
    m = draw(st.integers(3, 5))
    k = draw(st.integers(1, m - 1))
    # supports of one size form an antichain: no generator is dropped
    support = st.frozensets(st.integers(0, m - 1), min_size=k, max_size=k)
    b = SquarefreeMonomialIdeal(m, tuple(draw(st.lists(support, min_size=2, max_size=6, unique=True))))
    i = draw(st.sampled_from((2, 3)))

    def nonzero(p):
        return local_coh_piece(b, i, p).dimension > 0

    starts = list(itertools.product(range(-2, 2), repeat=m))
    start = draw(st.sampled_from([p for p in starts if nonzero(p)] or starts))
    exponents = list(itertools.product(range(3), repeat=m))
    ends = [tuple(x + y for x, y in zip(start, e)) for e in exponents]
    moving = [
        e for e, end in zip(exponents, ends) if nonzero(end) and negative(end) != negative(start)
    ]
    return b, i, start, draw(st.sampled_from(moving or exponents))


def stepwise_product(b, i, start, exponent):
    """Oracle: compose mult_map one variable step at a time, in increasing
    variable order, keeping the target x source shape through zero pieces."""
    sdim = local_coh_piece(b, i, start).dimension
    cur = [[int(r == c) for c in range(sdim)] for r in range(sdim)]
    p = list(start)
    for k, e in enumerate(exponent):
        for _ in range(e):
            mm = mult_map(b, i, p, k)
            cur = [
                [
                    sum(mm.matrix[r][t] * cur[t][c] for t in range(mm.source_dimension))
                    for c in range(sdim)
                ]
                for r in range(mm.target_dimension)
            ]
            p[k] += 1
    return cur


# from (-1, -1, -1, -1), x0 * x3 passes through the zero piece at
# (0, -1, -1, -1) between two nonzero ones: a 1 x 1 zero matrix
ZERO_PATH = ideal(4, {0, 1}, {0, 2}, {1, 2, 3})


class TestPatternPairMaps:
    @settings(max_examples=200)
    @given(monomial_paths())
    @example((ZERO_PATH, 2, (-1, -1, -1, -1), (1, 0, 0, 1)))
    @example((ZERO_PATH, 2, (-1, -1, -1, -1), (2, 0, 0, 2)))
    @example((ideal(3, {0}, {1}, {2}), 3, (-2, -1, -1), (0, 0, 0)))
    def test_matches_stepwise_product(self, case):
        b, i, start, exponent = case
        end = [s + e for s, e in zip(start, exponent)]
        matrix = _restriction(i - 2, _pattern(b, negative(start)), _pattern(b, negative(end)))
        assert [list(row) for row in matrix] == stepwise_product(b, i, start, exponent)


def _faces(b, pattern, q):
    """q-faces of the sign-pattern complex, built here from the definition:
    generator index sets of size q + 1 that some variable of the pattern
    divides none of."""
    gens = b.generators
    if q < -1:
        return []
    return [
        frozenset(c)
        for c in itertools.combinations(range(len(gens)), q + 1)
        if any(all(v not in gens[j] for j in c) for v in pattern)
    ]


def _coboundary_matrix(b, pattern, q):
    """Matrix of C^q -> C^{q+1}, rows indexed by the (q+1)-faces."""
    lower = _faces(b, pattern, q)
    upper = _faces(b, pattern, q + 1)
    entries = [
        (-1) ** sorted(g).index(next(iter(g - f))) if f < g else 0 for g in upper for f in lower
    ]
    return lower, sympy.Matrix(len(upper), len(lower), entries)


@st.composite
def squarefree_ideals(draw):
    """Proper squarefree ideals on 3-5 variables, up to five generators."""
    m = draw(st.integers(3, 5))
    support = st.frozensets(st.integers(0, m - 1), min_size=1, max_size=m)
    return SquarefreeMonomialIdeal(m, tuple(draw(st.lists(support, min_size=1, max_size=5))))


# at q = 0 the restriction from pattern {0, 1, 3, 4} to {0, 1} is 1 x 1 and
# zero although both pieces are nonzero; such rank-deficient maps are rare
# among random ideals
RANK_DEFICIENT = ideal(5, {0, 1, 2, 4}, {0, 3}, {1, 2, 3})


class TestRestrictionOracle:
    """The rank of H^q(T_src) -> H^q(T_tgt), with no basis: the restricted
    cocycles of T_src span, modulo the coboundaries of T_tgt, the image."""

    @staticmethod
    def oracle_rank(b, q, src, tgt):
        src_faces, delta = _coboundary_matrix(b, src, q)
        tgt_faces = _faces(b, tgt, q)
        _, prev = _coboundary_matrix(b, tgt, q - 1)
        restricted = [[z[src_faces.index(f)] for f in tgt_faces] for z in delta.nullspace()]
        stacked = restricted + prev.T.tolist()
        return sympy.Matrix(len(stacked), len(tgt_faces), sum(stacked, [])).rank() - prev.rank()

    @settings(max_examples=100)
    @given(squarefree_ideals())
    @example(RANK_DEFICIENT)
    def test_rank_matches_oracle(self, b):
        m = b.num_vars
        patterns = [frozenset(c) for r in range(m + 1) for c in itertools.combinations(range(m), r)]
        for q in range(-1, 3):
            dims = {s: cech_piece(b, q + 2, [-(k in s) for k in range(m)]) for s in patterns}
            for src in patterns:
                for tgt in patterns:
                    if not tgt <= src:
                        continue
                    matrix = _restriction(q, _pattern(b, src), _pattern(b, tgt))
                    assert len(matrix) == dims[tgt] and all(len(row) == dims[src] for row in matrix)
                    if dims[src] and dims[tgt]:
                        rank = sympy.Matrix(matrix).rank()
                        assert rank == self.oracle_rank(b, q, src, tgt), (q, src, tgt)

    def test_rank_deficient_case(self):
        src, tgt = frozenset({0, 1, 3, 4}), frozenset({0, 1})
        assert [len(row) for row in _restriction(0, _pattern(RANK_DEFICIENT, src), _pattern(RANK_DEFICIENT, tgt))] == [1]
        assert self.oracle_rank(RANK_DEFICIENT, 0, src, tgt) == 0


class TestPatternCache:
    @pytest.mark.parametrize(
        "b", [ideal(2), ideal(2, set())], ids=["zero", "unit"]
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda b: local_coh_piece(b, 2, (-1, -1)),
            lambda b: cech_piece(b, 2, (-1, -1)),
            lambda b: mult_map(b, 2, (-1, -1), 0),
            lambda b: t_complex(b, {0}),
        ],
        ids=["local_coh_piece", "cech_piece", "mult_map", "t_complex"],
    )
    def test_degenerate_raises_on_every_call(self, b, call):
        for _ in range(2):
            with pytest.raises(DegenerateIdealError):
                call(b)

    def test_degenerate_precedes_degree_errors(self):
        with pytest.raises(DegenerateIdealError):
            local_coh_piece(ideal(2), -1, (0,))

    def test_ideal_hash_follows_minimal_form(self):
        messy = ideal(3, {1, 2}, {0, 1, 2}, {0}, {2, 1})
        minimal = ideal(3, {0}, {1, 2})
        assert messy == minimal
        assert hash(messy) == hash(minimal)
        assert messy.generators == minimal.generators
        assert {messy: 1}[minimal] == 1


class TestCechOracle:
    def test_plane(self):
        assert cech_piece(XY, 2, (-1, -1)) == 1
        assert cech_piece(XY, 1, (0, 0)) == 0

    def test_square(self, square_ideal):
        assert cech_piece(square_ideal, 3, (-1, -1, -1, -1)) == 1

    def test_matches_t_complex_on_small_corpus(self):
        rng = random.Random(2024)
        for _ in range(15):
            m = rng.randint(2, 4)
            gens = set()
            for _ in range(rng.randint(1, 4)):
                size = rng.randint(1, m)
                gens.add(frozenset(rng.sample(range(m), size)))
            b = SquarefreeMonomialIdeal(m, tuple(gens))
            if b.is_unit:
                continue
            for p in itertools.product((-1, 0), repeat=m):
                for i in range(m + 2):
                    assert (
                        local_coh_piece(b, i, p).dimension == cech_piece(b, i, p)
                    ), (b, i, p)


class TestGraphFormulas:
    def test_codim2_square(self, square_cone):
        fan = proper_faces_fan(square_cone)
        b2 = codim2_ideal(fan)
        assert set(b2.generators) == {
            frozenset({2, 3}),
            frozenset({0, 3}),
            frozenset({0, 1}),
            frozenset({1, 2}),
        }

    def test_codim2_complete_graph(self, third_cone):
        fan = proper_faces_fan(third_cone)
        assert codim2_ideal(fan).is_unit

    def test_codim2_path(self):
        fan = validate_fan([(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])
        b2 = codim2_ideal(fan)
        assert set(b2.generators) == {frozenset({2}), frozenset({0})}

    def test_alexander_dual_square(self, square_cone):
        # the codimension-two ideal is Alexander dual to the clique complex of
        # the ray graph (here the 4-cycle): each piece at negative set N is the
        # clique complex's reduced cohomology on N, in degree i - 2
        fan = proper_faces_fan(square_cone)
        b2 = codim2_ideal(fan)
        cycle = graph_gamma(fan)
        for r in range(1, 5):
            for negative_set in itertools.combinations(range(4), r):
                p = [-(k in negative_set) for k in range(4)]
                dims = localcoh._cohomology_dims(clique_complex(cycle.induced(negative_set)))
                for i in range(6):
                    assert local_coh_piece(b2, i, p).dimension == dims.get(i - 2, 0), (negative_set, i)
        assert local_coh_piece(b2, 3, (-1, -1, -1, -1)).dimension == 1  # the 4-cycle's H^1

    def test_h2_square(self, square_cone):
        fan = proper_faces_fan(square_cone)
        assert h2_via_graph(fan, (-1, 0, -1, 0)) == 1
        assert h2_via_graph(fan, (-1, -1, 0, 0)) == 0
        assert h2_via_graph(fan, (0, 0, 0, 0)) == 0

    def test_h2_matches_t_complex(self, square_cone, third_cone):
        from torrigid.toric import irrelevant_ideal

        for cone in (square_cone, third_cone):
            fan = proper_faces_fan(cone)
            b = irrelevant_ideal(fan)
            m = fan.num_rays
            for p in itertools.product((-2, -1, 0, 1), repeat=m):
                assert h2_via_graph(fan, p) == local_coh_piece(b, 2, p).dimension


def test_negative():
    assert negative((-1, 0, -2, 3)) == frozenset({0, 2})


@st.composite
def ideal_and_degree(draw):
    m = draw(st.integers(1, 5))
    gens = draw(st.lists(st.frozensets(st.integers(0, m - 1), min_size=1), min_size=1, max_size=4))
    p = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    return SquarefreeMonomialIdeal(m, tuple(gens)), p


@given(ideal_and_degree(), st.integers(0, 6), st.data())
@settings(max_examples=200)
def test_list_degree_same_as_tuple(case, i, data):
    b, p = case
    expected = frozenset(k for k, x in enumerate(p) if x <= -1)
    assert negative(tuple(p)) == negative(p) == expected
    piece, same = local_coh_piece(b, i, p), local_coh_piece(b, i, tuple(p))
    assert type(piece) is GradedPiece
    assert piece.complex == same.complex == t_complex(b, expected)
    assert piece.dimension == same.dimension == cech_piece(b, i, p) == cech_piece(b, i, tuple(p))
    assert repr(piece) == f"GradedPiece(dim={piece.dimension})"
    j = data.draw(st.integers(0, b.num_vars - 1))
    assert mult_map(b, i, p, j) == mult_map(b, i, tuple(p), j)


def test_graded_piece_has_no_dict():
    piece = local_coh_piece(XY, 2, [-1, -1])
    assert (piece.complex, piece.dimension) == (t_complex(XY, {0, 1}), 1)
    with pytest.raises(AttributeError):
        piece.extra = 0


def test_graded_piece_is_immutable():
    # pieces are shared between lookups: a mutation must fail and leave the
    # cached piece as it was
    for i, dim in ((2, 1), (5, 0)):
        piece = local_coh_piece(XY, i, (-1, -1))
        for name, value in (("dimension", dim + 7), ("complex", t_complex(XY, {0}))):
            with pytest.raises(AttributeError):
                setattr(piece, name, value)
        with pytest.raises(AttributeError):
            del piece.dimension
        again = local_coh_piece(XY, i, [-1, -1])
        assert (again.complex, again.dimension) == (t_complex(XY, {0, 1}), dim)
        assert (piece.complex, piece.dimension) == (again.complex, again.dimension)
    assert GradedPiece.__slots__ == ("complex", "dimension")


def _value(x):
    return (x.complex, x.dimension) if isinstance(x, GradedPiece) else x


@pytest.mark.parametrize(
    "call",
    [local_coh_piece, cech_piece, lambda b, i, p: mult_map(b, i, p, 0)],
    ids=["local_coh_piece", "cech_piece", "mult_map"],
)
def test_degree_checks_fire_on_every_call(call):
    # the degree is checked when it is looked up, on a cache miss; a bad
    # call must raise every time, also when the same degree tuple is cached
    # for another ideal whose variable count matches its length
    b2, b3 = XY, ideal(3, {0}, {1, 2})
    p = (-1, 0, 1)
    call(b3, 2, p)
    for _ in range(3):
        with pytest.raises(ValueError, match="length 3, expected 2"):
            call(b2, 2, p)
        with pytest.raises(ValueError, match="length 2, expected 3"):
            call(b3, 2, p[:2])
        with pytest.raises(ValueError, match="cohomological index"):
            call(b3, -1, p)
    # a degenerate ideal takes precedence over both errors
    for degenerate in (ideal(3), ideal(3, set())):
        for i, q in ((2, p), (-1, p), (2, p[:2]), (-1, p[:2])) * 2:
            with pytest.raises(DegenerateIdealError):
                call(degenerate, i, q)
    for i in range(4):
        assert _value(call(b3, i, list(p))) == _value(call(b3, i, p))


def test_one_lookup_per_degree_and_pattern(monkeypatch, cold_localcoh):
    # a sweep that asks for every piece of a degree in turn takes the degree's
    # sign mask once and hits the one-degree memo after that, builds each
    # sign pattern's record once, in the ideal's one table, through
    # _pattern, takes the negative coordinates only to build one, and
    # computes each Cech strand once
    b = ideal(4, {0, 1}, {1, 2, 3}, {0, 3})
    strands, misses, built, lookups, patterns = [], [], [], [], []
    cech_strand, degree = localcoh._cech_strand, localcoh._degree
    record, sign_pattern = localcoh._SignPattern, localcoh.negative
    pattern_record = localcoh._pattern

    def counted(b, pattern):
        strands.append(pattern)
        return cech_strand(b, pattern)

    def missed(b, p):
        misses.append(p)
        return degree(b, p)

    def building(b, pattern):
        built.append(pattern)
        return record(b, pattern)

    def counting(p):
        lookups.append(p)
        return sign_pattern(p)

    def through_pattern(b, pattern):
        patterns.append(pattern)
        return pattern_record(b, pattern)

    monkeypatch.setattr(localcoh, "_cech_strand", counted)
    monkeypatch.setattr(localcoh, "_pattern", through_pattern)
    monkeypatch.setattr(localcoh, "_degree", missed)
    monkeypatch.setattr(localcoh, "_SignPattern", building)
    monkeypatch.setattr(localcoh, "negative", counting)
    degrees = list(itertools.product(range(-2, 3), repeat=4))
    for p in degrees:
        for i in range(5):
            assert local_coh_piece(b, i, p).dimension == cech_piece(b, i, p)
    assert misses == degrees  # one per degree, not one per piece
    assert not hasattr(_degree, "cache_info")
    assert len(built) == len(set(built)) == 2**4
    assert [sign_pattern(p) for p in lookups] == built  # only to build
    assert patterns == built  # each miss that builds calls _pattern once
    assert _records.cache_info().misses == 1
    assert len(_records(b)) == 2**4
    assert len(strands) == len(set(strands)) == 2**4


@st.composite
def memo_walks(draw):
    """A pool of ideals on the same variables, among them an equal but
    distinct copy, and a sequence of steps: a degree from a small set and the
    pool indices that ask for it in turn, each with a call, a variable and
    the type the degree comes as (tuple, list or array)."""
    m = draw(st.integers(1, 4))
    gens = st.lists(st.frozensets(st.integers(0, m - 1), min_size=1), min_size=1, max_size=4)
    first = SquarefreeMonomialIdeal(m, tuple(draw(gens)))
    pool = [first, SquarefreeMonomialIdeal(m, first.generators)]
    pool += [SquarefreeMonomialIdeal(m, tuple(draw(gens))) for _ in range(draw(st.integers(1, 2)))]
    degrees = draw(st.lists(st.tuples(*[st.integers(-2, 1)] * m), min_size=1, max_size=3))
    call = st.tuples(
        st.integers(0, len(pool) - 1),
        st.sampled_from(["local_coh_piece", "cech_piece", "mult_map"]),
        st.integers(0, m - 1),
        st.sampled_from(["tuple", "list", "array"]),
    )
    steps = draw(
        st.lists(st.tuples(st.sampled_from(degrees), st.lists(call, min_size=1, max_size=4)), max_size=12)
    )
    return pool, steps


@given(memo_walks())
@settings(max_examples=150)
@example(
    (
        [ideal(2, {0}, {1}), ideal(2, {0}, {1}), ideal(2, {0, 1})],
        [((-1, -1), [(0, "local_coh_piece", 0, "tuple"), (2, "local_coh_piece", 0, "tuple"),
                     (1, "cech_piece", 0, "list"), (0, "mult_map", 1, "list")]),
         ((0, 0), [(0, "local_coh_piece", 0, "list"), (0, "cech_piece", 0, "array")]),
         ((-1, 0), [(0, "local_coh_piece", 0, "array"), (0, "local_coh_piece", 0, "tuple")])],
    )
)
def test_degree_memo_never_returns_a_stale_record(case):
    # the memo of _degree keeps one (ideal, degree, record); whatever the
    # order of calls, ideals and degree types, every answer must be the one
    # computed afresh from the degree's sign pattern, at every index, also
    # past the last piece
    pool, steps = case
    assert pool[0] == pool[1] and pool[0] is not pool[1]
    m = pool[0].num_vars
    # one list and one array, rewritten for every degree of their type
    buffers = {"list": [0] * m, "array": array("b", [0] * m)}
    for degree, calls in steps:
        for k, name, j, kind in calls:
            b = pool[k]
            if kind == "tuple":
                p = degree
            else:
                p = buffers[kind]
                p[:] = array("b", degree) if kind == "array" else list(degree)
            kompl = t_complex(b, negative(degree))
            dims = localcoh._cohomology_dims(kompl)
            for i in range(m + 4):
                if name == "local_coh_piece":
                    piece = local_coh_piece(b, i, p)
                    assert (piece.complex, piece.dimension) == (kompl, dims.get(i - 2, 0))
                elif name == "cech_piece":
                    assert cech_piece(b, i, p) == localcoh._cech_strand(b, negative(degree)).get(i, 0)
                else:
                    step = mult_map(b, i, p, j)
                    target = [x + (c == j) for c, x in enumerate(degree)]
                    target_dims = localcoh._cohomology_dims(t_complex(b, negative(target)))
                    assert step.source_dimension == dims.get(i - 2, 0)
                    assert step.target_dimension == target_dims.get(i - 2, 0)


@given(st.integers(1, 5).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(st.frozensets(st.integers(0, m - 1), min_size=1), min_size=1, max_size=5),
    )
))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_sign_pattern_pieces_by_index(case):
    # a record holds the piece of H^i at pieces[i], of dimension the reduced
    # cohomology in cochain degree i - 2; every index past the end is the
    # record's one shared zero piece
    m, gens = case
    b = SquarefreeMonomialIdeal(m, tuple(gens))
    for r in range(m + 1):
        for pattern in map(frozenset, itertools.combinations(range(m), r)):
            record = _pattern(b, pattern)
            pieces, dims = record.pieces, record.dims
            assert type(pieces) is tuple
            for i, piece in enumerate(pieces):
                assert (piece.complex, piece.dimension) == (record.complex, dims.get(i - 2, 0))
            assert max(dims, default=-2) + 2 == len(pieces) - 1
            assert (record.zero.complex, record.zero.dimension) == (record.complex, 0)
            p = tuple(-1 if k in pattern else 0 for k in range(m))
            for i in range(len(pieces), len(pieces) + 3):
                assert local_coh_piece(b, i, p) is record.zero


@given(st.integers(1, 5).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(st.frozensets(st.integers(0, m - 1), min_size=1), min_size=1, max_size=5),
        st.lists(st.tuples(*[st.integers(-3, 2)] * m), min_size=1, max_size=6),
    )
))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_one_record_per_ideal_value_and_pattern(case):
    # an ideal value has one record per sign pattern: the degree route of
    # local_coh_piece, the pattern route of _pattern and the chamber walks'
    # read by mask all give the same record, for an equal but distinct copy
    # of the ideal too, whatever type the degree comes as
    m, gens, degrees = case
    b = SquarefreeMonomialIdeal(m, tuple(gens))
    twin = SquarefreeMonomialIdeal(m, b.generators)
    assert twin == b and twin is not b
    for degree in degrees:
        pattern = negative(degree)
        mask = sum(1 << k for k in pattern)
        for c in (b, twin):
            for p in (degree, list(degree), array("b", degree)):
                kompl = local_coh_piece(c, 0, p).complex
                record = _pattern(c, negative(p))
                assert record.pattern == pattern
                assert kompl is record.complex
                assert localcoh._all_records(c)[mask] is record
            assert local_coh_piece(b, 0, degree).complex is kompl


def test_module_caches_are_the_record_tables_and_cohomology_dims():
    # every other piece of per-pattern data lives in the pattern's record
    caches = {name for name, value in vars(localcoh).items() if hasattr(value, "cache_info")}
    assert caches == {"_records", "_cohomology_dims"}
    assert not hasattr(localcoh._basis, "cache_info")
    assert not hasattr(localcoh._restriction, "cache_info")


def test_restriction_through_an_equal_ideal_is_the_same_object():
    b = ideal(4, {0, 1}, {1, 2, 3}, {0, 3})
    twin = SquarefreeMonomialIdeal(4, b.generators)
    assert twin == b and twin is not b
    src, tgt = frozenset({0, 1, 2, 3}), frozenset({0, 2})
    matrix = _restriction(0, _pattern(b, src), _pattern(b, tgt))
    assert matrix and _restriction(0, _pattern(twin, src), _pattern(twin, tgt)) is matrix
    assert mult_map(twin, 2, (-1, -1, -1, -1), 1).matrix is _restriction(0, _pattern(b, src), _pattern(b, src - {1}))
