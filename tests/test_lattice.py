import itertools
import random
from fractions import Fraction
from math import ceil, floor, gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torrigid import lattice
from torrigid.lattice import (
    AffineSystem,
    BoundExceeded,
    Infeasible,
    NonPointedConeError,
    UnboundedPolyhedronError,
    Witness,
    cone_contains,
    cone_is_pointed,
    hilbert_basis,
    int_det,
    int_rank,
    integer_feasible,
    integer_kernel,
    lattice_points,
    primitive,
    rational_feasible,
    rational_rank,
    smith_normal_form,
    solve_diophantine,
    variable_bounds,
)

SQUARE_CONE_RAYS = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]


def minors_gcd(m, k):
    """gcd of all k x k minors; d_1 * ... * d_k equals this for the SNF."""
    nr, nc = len(m), len(m[0])
    g = 0
    for rows in itertools.combinations(range(nr), k):
        for cols in itertools.combinations(range(nc), k):
            sub = [[m[i][j] for j in cols] for i in rows]
            g = gcd(g, int_det(sub))
    return g


def invariant_factors_oracle(m):
    """Invariant factors from the quotients of successive minor gcds."""
    factors = []
    prev = 1
    for k in range(1, min(len(m), len(m[0])) + 1):
        g = minors_gcd(m, k)
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    while len(factors) < min(len(m), len(m[0])):
        factors.append(0)
    return factors


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def check_decomposition(m, snf):
    assert abs(int_det(snf.u)) == 1
    assert abs(int_det(snf.v)) == 1
    assert mat_mul(mat_mul(snf.u, m), snf.v) == [list(r) for r in snf.d]
    nr, nc = len(snf.d), len(snf.d[0])
    for i in range(nr):
        for j in range(nc):
            if i != j:
                assert snf.d[i][j] == 0
    factors = snf.invariant_factors
    for a, b in zip(factors, factors[1:]):
        assert a >= 0 and b >= 0
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0


class TestSmithNormalForm:
    def test_identity(self):
        snf = smith_normal_form([[1, 0], [0, 1]])
        assert snf.d == ((1, 0), (0, 1))
        assert snf.invariant_factors == (1, 1)

    def test_diag_2_3(self):
        m = [[2, 0], [0, 3]]
        snf = smith_normal_form(m)
        assert snf.invariant_factors == (1, 6)
        check_decomposition(m, snf)

    def test_square_cone_ray_matrix(self):
        m = [list(v) for v in SQUARE_CONE_RAYS]
        assert invariant_factors_oracle(m) == [1, 1, 1]
        snf = smith_normal_form(m)
        assert snf.invariant_factors == (1, 1, 1)
        check_decomposition(m, snf)
        # cokernel of Z^3 -> Z^4 is free of rank 4 - 3 = 1
        assert snf.rank == 3

    def test_random_matrices(self):
        rng = random.Random(20240517)
        for _ in range(60):
            nr = rng.randint(1, 5)
            nc = rng.randint(1, 5)
            m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
            snf = smith_normal_form(m)
            check_decomposition(m, snf)
            assert list(snf.invariant_factors) == invariant_factors_oracle(m)

    def test_solve_rejects_long_rhs(self):
        with pytest.raises(ValueError, match="length 3, expected 2"):
            smith_normal_form([[1, 0], [0, 1]]).solve([3, 4, 99])

    def test_solve_rejects_short_rhs(self):
        with pytest.raises(ValueError, match="length 1, expected 2"):
            solve_diophantine([[1, 0], [0, 1]], [3])


class TestIntegerKernel:
    def test_rank_one_relation(self):
        assert integer_kernel([[1, 1]]) == [(1, -1)]

    def test_square_cone_relation(self):
        # columns are the square cone rays; kernel is the single relation
        m = [[v[j] for v in SQUARE_CONE_RAYS] for j in range(3)]
        assert integer_kernel(m) == [(1, -1, 1, -1)]

    def test_injective(self):
        assert integer_kernel([[1, 0], [0, 1]]) == []

    def test_kernel_contains_brute_force_solutions(self):
        rng = random.Random(7)
        for _ in range(25):
            nr = rng.randint(1, 3)
            nc = rng.randint(1, 4)
            m = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
            basis = integer_kernel(m)
            for vec in basis:
                assert all(
                    sum(m[i][j] * vec[j] for j in range(nc)) == 0 for i in range(nr)
                )
            for cand in itertools.product(range(-3, 4), repeat=nc):
                if not any(cand):
                    continue
                if all(sum(m[i][j] * cand[j] for j in range(nc)) == 0 for i in range(nr)):
                    if not basis:
                        pytest.fail(f"kernel vector {cand} missed for {m}")
                    sol = solve_diophantine(
                        [[b[i] for b in basis] for i in range(nc)], cand
                    )
                    assert sol is not None, f"{cand} outside kernel lattice of {m}"


class TestIntegerFeasible:
    def test_free_coordinate(self):
        sys = AffineSystem(num_vars=2, equalities=(((1, 0), -1),))
        assert integer_feasible(sys, 4) == Witness((-1, 0))

    def test_parity(self):
        sys = AffineSystem(num_vars=1, equalities=(((2,), 1),))
        assert integer_feasible(sys, 4) == Infeasible()

    def test_square_cone_pattern(self):
        # <u, v1> = -1 and <u, vj> <= -1 for the other three rays
        v1, v2, v3, v4 = SQUARE_CONE_RAYS
        sys = AffineSystem(
            num_vars=3,
            equalities=((v1, -1),),
            inequalities=tuple(
                (tuple(-c for c in v), 1) for v in (v2, v3, v4)
            ),
        )
        res = integer_feasible(sys, 2)
        assert res == Witness((0, 0, -1))
        values = tuple(sum(a * b for a, b in zip(res.point, v)) for v in SQUARE_CONE_RAYS)
        assert values == (-1, -1, -1, -1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            AffineSystem(num_vars=2, equalities=(((1, 0, 0), 0),))

    def test_bound_exceeded_is_explicit(self):
        # feasible over Q, unbounded, but no integer point: 2u1 = 1 + 4u2
        sys = AffineSystem(num_vars=2, equalities=(((2, -4), 1),))
        assert integer_feasible(sys, 3) == Infeasible()
        # genuinely unbounded with solutions far out
        sys2 = AffineSystem(num_vars=1, inequalities=(((1,), 10),))
        assert integer_feasible(sys2, 3) == BoundExceeded(3)
        assert integer_feasible(sys2, 50) == Witness((10,))

    def test_witness_reevaluates(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(1, 3)
            sys = AffineSystem(
                num_vars=n,
                equalities=tuple(
                    (tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-2, 2))
                    for _ in range(rng.randint(0, 1))
                ),
                inequalities=tuple(
                    (tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-2, 2))
                    for _ in range(rng.randint(0, 3))
                ),
            )
            res = integer_feasible(sys, 3)
            if isinstance(res, Witness):
                assert sys.satisfied_by(res.point)
            elif isinstance(res, Infeasible):
                for cand in itertools.product(range(-3, 4), repeat=n):
                    assert not sys.satisfied_by(cand), (sys, cand)


class TestHilbertBasis:
    def test_first_quadrant(self):
        assert hilbert_basis([(1, 0), (0, 1)]) == [(0, 1), (1, 0)]

    def test_dual_square_cone(self):
        gens = [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)]
        assert hilbert_basis(gens) == sorted(gens)

    def test_single_ray(self):
        assert hilbert_basis([(1,)]) == [(1,)]

    def test_non_pointed_rejected(self):
        with pytest.raises(NonPointedConeError):
            hilbert_basis([(1, 0), (-1, 0)])

    def test_generates_and_irreducible(self):
        cones = [
            [(1, 0), (1, 2)],
            [(1, 0), (1, 3)],
            [(2, 1), (1, 2)],
            [(1, 0, 0), (0, 1, 0), (1, 1, 2)],
        ]
        for gens in cones:
            basis = hilbert_basis(gens)
            for h in basis:
                for c in basis:
                    if c == h:
                        continue
                    diff = tuple(a - b for a, b in zip(h, c))
                    assert not (any(diff) and cone_contains(gens, diff)), (
                        f"{h} reducible by {c}"
                    )
            n = len(gens[0])
            for x in itertools.product(range(-4, 5), repeat=n):
                if not cone_contains(gens, x):
                    continue
                coeff_sys = AffineSystem(
                    num_vars=len(basis),
                    equalities=tuple(
                        (tuple(h[j] for h in basis), x[j]) for j in range(n)
                    ),
                    inequalities=tuple(
                        (tuple(1 if i == k else 0 for i in range(len(basis))), 0)
                        for k in range(len(basis))
                    ),
                )
                assert lattice_points(coeff_sys), f"{x} not generated for {gens}"

    def test_ragged_generators_rejected(self):
        for gens in ([(1, 0, 0), (0, 1)], [(0, 1), (1, 0, 0)]):
            with pytest.raises(ValueError, match="ragged"):
                hilbert_basis(gens)

    def test_index_42_dual(self):
        # dual of the cone (-3,3,-1),(-2,0,-3),(-1,-3,2); the zonotope scan
        # did not finish on it
        gens = [(-9, -7, 6), (-9, 7, 6), (-3, -7, -12)]
        basis = hilbert_basis(gens)
        assert len(basis) == 25
        for h, c in itertools.permutations(basis, 2):
            assert not cone_contains(gens, tuple(a - b for a, b in zip(h, c))), (h, c)
        in_cone = {}
        generated = {(0, 0, 0): True}

        def is_generated(x):
            if x not in generated:
                generated[x] = False
                for h in basis:
                    y = tuple(a - b for a, b in zip(x, h))
                    if y not in in_cone:
                        in_cone[y] = cone_contains(gens, y)
                    if in_cone[y] and is_generated(y):
                        generated[x] = True
                        break
            return generated[x]

        for x in itertools.product(range(-6, 7), repeat=3):
            if cone_contains(gens, x):
                assert is_generated(x), x

    def test_fourier_motzkin_only_for_pointedness(self, monkeypatch):
        # one elimination per ambient coordinate, all in cone_is_pointed
        calls = []
        original = lattice._fm_eliminate

        def counting(rows, var):
            calls.append(var)
            return original(rows, var)

        monkeypatch.setattr(lattice, "_fm_eliminate", counting)
        hexagon_dual = [(-1, 0, 1), (-1, 1, 1), (0, -1, 1), (0, 1, 1), (1, -1, 1), (1, 0, 1)]
        assert len(hilbert_basis(hexagon_dual)) == 7
        assert calls == [0, 1, 2]
        calls.clear()
        assert hilbert_basis([(1, 0), (2, 5)]) == [(1, 0), (1, 1), (1, 2), (2, 5)]
        assert calls == [0, 1]


def zonotope_hilbert_basis(generators):
    """Hilbert basis of a pointed cone by brute force, for checking hilbert_basis.

    Every lattice point of the bounding box of the zonotope spanned by the
    primitive generators is tested for membership in the cone and in the
    zonotope by Fourier-Motzkin elimination; these points generate the monoid
    (Gordan's lemma).  A candidate is dropped when subtracting another
    candidate leaves a point of the cone.
    """
    gens = sorted({primitive(g) for g in generators if any(g)})
    if not gens:
        return []
    n, k = len(gens[0]), len(gens)

    def in_zonotope(x):
        rows = []
        for j in range(n):
            a = tuple(g[j] for g in gens)
            rows.append((a, x[j]))
            rows.append((tuple(-c for c in a), -x[j]))
        for i in range(k):
            e = tuple(1 if j == i else 0 for j in range(k))
            rows.append((e, 0))
            rows.append((tuple(-c for c in e), -1))
        return rational_feasible(rows, k)

    box = [
        range(sum(min(0, g[j]) for g in gens), sum(max(0, g[j]) for g in gens) + 1)
        for j in range(n)
    ]
    candidates = set(gens)
    for x in itertools.product(*box):
        if any(x) and x not in candidates and cone_contains(gens, x) and in_zonotope(x):
            candidates.add(x)
    return sorted(
        h
        for h in candidates
        if not any(
            c != h and cone_contains(gens, tuple(a - b for a, b in zip(h, c)))
            for c in candidates
        )
    )


@st.composite
def small_cones(draw):
    """2-5 generators in Z^2 or Z^3 with coordinates in [-3, 3]; two
    generators in Z^3 give a rank-deficient set."""
    n = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(2, 5))
    return [tuple(draw(st.integers(-3, 3)) for _ in range(n)) for _ in range(k)]


@settings(max_examples=150)
@given(small_cones())
# rank-deficient: (1,0,1) is half the sum of the generators, a lattice point
# of their span that they do not reach with integer coefficients
@example([(1, 1, 1), (1, -1, 1)])
@example([(2, 0, 0), (0, 3, 3)])
def test_hilbert_basis_matches_zonotope_scan(gens):
    if not cone_is_pointed(gens):
        with pytest.raises(NonPointedConeError):
            hilbert_basis(gens)
        return
    assert hilbert_basis(gens) == zonotope_hilbert_basis(gens)


class TestConeInputLengths:
    def test_point_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            cone_contains([(1, 0)], (1, 0, 5))

    def test_ragged_pointedness_rejected(self):
        # read as rows of length 2, (-1, 0, 5) lost its last coordinate
        with pytest.raises(ValueError, match="ragged"):
            cone_is_pointed([(1, 0), (-1, 0, 5)])


class TestLatticePoints:
    def test_segment(self):
        sys = AffineSystem(
            num_vars=2,
            equalities=(((1, 1), 2),),
            inequalities=(((1, 0), 0), ((0, 1), 0)),
        )
        assert lattice_points(sys) == [(0, 2), (1, 1), (2, 0)]

    def test_degree_five_simplex(self):
        n = 5
        sys = AffineSystem(
            num_vars=n,
            equalities=((tuple([1] * n), 5),),
            inequalities=tuple(
                (tuple(1 if i == k else 0 for i in range(n)), 0) for k in range(n)
            ),
        )
        pts = lattice_points(sys)
        assert len(pts) == 126  # C(9, 4)
        assert pts == sorted(pts)

    def test_empty_polytope(self):
        sys = AffineSystem(
            num_vars=2,
            equalities=(((1, 1), -1),),
            inequalities=(((1, 0), 0), ((0, 1), 0)),
        )
        assert lattice_points(sys) == []

    def test_unbounded_rejected(self):
        sys = AffineSystem(num_vars=2, inequalities=(((1, 0), 0), ((0, 1), 0)))
        with pytest.raises(UnboundedPolyhedronError):
            lattice_points(sys)


def test_unbounded_with_integer_free_bounded_coordinate():
    # x1 is confined to [-8/5, -3/2], which holds no integer; x0 and x2 are not
    sys = AffineSystem(3, (), (((2, 1, 2), -2), ((-2, -3, -2), 5), ((-3, 1, -3), -1)))
    assert integer_feasible(sys, 2) == Infeasible()
    with pytest.raises(UnboundedPolyhedronError):
        lattice_points(sys)


def test_unbounded_without_integer_points():
    # 2x - 4y = 1 as two inequalities: a rational line without integer points
    sys = AffineSystem(2, (), (((2, -4), 1), ((-2, 4), -1)))
    assert integer_feasible(sys, 3) == BoundExceeded(3)
    with pytest.raises(UnboundedPolyhedronError):
        lattice_points(sys)


def shell_scan(system, search_bound):
    """The shell scan that integer_feasible used before the shared descent,
    kept as an oracle for it: (answer, points).

    The free coordinates t of u = origin + B*t get their integer ranges from
    the Fourier-Motzkin bounds, cut to [-search_bound, search_bound] on an
    unbounded side.  ``points`` lists every solution u in those ranges by the
    shells |t|_inf = 0, 1, 2, ... up to the search radius, each shell scanned
    over the whole clipped box in lexicographic order; ``answer`` is what
    integer_feasible returns.
    """
    n = system.num_vars
    if system.equalities:
        sol = solve_diophantine(
            [a for a, _ in system.equalities], [c for _, c in system.equalities]
        )
        if sol is None:
            return Infeasible(), []
        origin, basis = sol
    else:
        origin, basis = (0,) * n, [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if not basis:
        return (Witness(origin), [origin]) if system.satisfied_by(origin) else (Infeasible(), [])

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    rows = [
        (tuple(dot(a, b) for b in basis), c - dot(a, origin)) for a, c in system.inequalities
    ]
    bounds = variable_bounds(rows, len(basis))
    if bounds is None:
        return Infeasible(), []
    ranges = []
    for lo, hi in bounds:
        ilo = ceil(lo) if lo is not None else -search_bound
        ihi = floor(hi) if hi is not None else search_bound
        if ilo > ihi:
            if lo is not None and hi is not None:
                return Infeasible(), []
            return BoundExceeded(search_bound), []
        ranges.append((ilo, ihi))
    bounded = all(lo is not None and hi is not None for lo, hi in bounds)
    radius_cap = max(max(abs(lo), abs(hi)) for lo, hi in ranges) if bounded else search_bound
    points = []
    for radius in range(radius_cap + 1):
        box = [range(max(lo, -radius), min(hi, radius) + 1) for lo, hi in ranges]
        for t in itertools.product(*box):
            if max(map(abs, t)) == radius and all(dot(a, t) >= c for a, c in rows):
                points.append(
                    tuple(o + sum(b[i] * x for b, x in zip(basis, t)) for i, o in enumerate(origin))
                )
    if points:
        return Witness(points[0]), points
    return (Infeasible() if bounded else BoundExceeded(search_bound)), []


@st.composite
def affine_systems(draw):
    """1-4 variables, coefficients in [-3, 3], 0-2 equalities, 0-5 inequalities."""
    n = draw(st.integers(1, 4))
    row = st.tuples(st.tuples(*[st.integers(-3, 3)] * n), st.integers(-6, 6))
    return AffineSystem(
        n,
        tuple(draw(st.lists(row, max_size=2))),
        tuple(draw(st.lists(row, max_size=5))),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(affine_systems(), st.integers(1, 4))
def test_descent_matches_shell_scan(system, search_bound):
    answer, points = shell_scan(system, search_bound)
    assert integer_feasible(system, search_bound) == answer
    rows = [(a, c) for a, c in system.equalities]
    rows += [(tuple(-x for x in a), -c) for a, c in system.equalities]
    rows += list(system.inequalities)
    bounds = variable_bounds(rows, system.num_vars)
    if bounds is not None and any(lo is None or hi is None for lo, hi in bounds):
        with pytest.raises(UnboundedPolyhedronError):
            lattice_points(system)
    else:  # bounded, so the scan covered every solution
        assert lattice_points(system) == sorted(points)


def test_int_rank_matches_fraction_elimination():
    from torrigid.lattice import rref

    rng = random.Random(11)
    for _ in range(40):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        _, pivots = rref([[Fraction(x) for x in row] for row in m])
        assert int_rank(m) == len(pivots)
    # sparse matrices with zero leading columns exercise the rescaling path
    for _ in range(200):
        nr = rng.randint(2, 5)
        nc = rng.randint(2, 5)
        m = [
            [rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(nc)]
            for _ in range(nr)
        ]
        _, pivots = rref([[Fraction(x) for x in row] for row in m])
        assert int_rank(m) == len(pivots), m
    assert int_rank([(0, 0, 1, 0), (0, 0, 2, 1), (-2, -1, -3, -1)]) == 3


def test_int_rank_rejects_non_integers():
    # Bareiss divisions floor a Fraction: this matrix has rank 2, not 1
    with pytest.raises(TypeError):
        int_rank([[Fraction(1, 2), 1], [1, 3]])
    with pytest.raises(TypeError):
        int_rank([[1, 0], [0, Fraction(2)]])
    with pytest.raises(TypeError):
        int_rank([[1.0]])


@st.composite
def integer_matrices(draw):
    """Empty, wide, tall, sparse and rank-deficient integer matrices."""
    nr = draw(st.integers(0, 8))
    nc = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(("dense", "sparse", "product")))
    if kind != "product":
        if kind == "dense":
            entry = st.integers(-(10**4), 10**4)
        else:  # mostly zeros: pivot columns with zero entries below the pivot
            entry = st.sampled_from((0, 0, 0, 0, -3, -2, -1, 1, 2, 3))
        return [[draw(entry) for _ in range(nc)] for _ in range(nr)]
    # a product through an inner dimension k has rank at most k
    k = draw(st.integers(0, 3))
    b = [[draw(st.integers(-50, 50)) for _ in range(k)] for _ in range(nr)]
    c = [[draw(st.integers(-50, 50)) for _ in range(nc)] for _ in range(k)]
    return [[sum(b[i][t] * c[t][j] for t in range(k)) for j in range(nc)] for i in range(nr)]


@st.composite
def modular_path_matrices(draw):
    """Matrices with min(rows, cols) > 4 and entries up to 10^4, which the
    gate sends to the modular rank: full rank, products through a smaller
    inner dimension (rank-deficient), square, wide and tall."""
    k = draw(st.integers(5, 7))
    nr, nc = draw(st.sampled_from(((k, k), (k, k + 4), (k + 4, k))))
    if draw(st.booleans()):
        entry = st.integers(-(10**4), 10**4)
        return [[draw(entry) for _ in range(nc)] for _ in range(nr)]
    inner = draw(st.integers(1, k - 1))
    b = [[draw(st.integers(-100, 100)) for _ in range(inner)] for _ in range(nr)]
    c = [[draw(st.integers(-100, 100)) for _ in range(nc)] for _ in range(inner)]
    return [[sum(b[i][t] * c[t][j] for t in range(inner)) for j in range(nc)] for i in range(nr)]


def sympy_rank(m):
    nr = len(m)
    nc = len(m[0]) if nr else 0
    return sympy.Matrix(nr, nc, [x for row in m for x in row]).rank()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(integer_matrices(), modular_path_matrices()))
# a row with a zero in the first pivot column must still be rescaled
@example([[0, 0, 1, 0], [0, 0, 2, 1], [-2, -1, -3, -1]])
def test_int_rank_matches_sympy(m):
    assert int_rank(m) == sympy_rank(m)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from((0, 0, 0, -7, -2, -1, 1, 3, 10**6)), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_int_det_matches_sympy(m):
    # mostly zeros, so that pivots need row swaps and many matrices are singular
    assert int_det(m) == (sympy.Matrix(m).det() if m else 1)


def _counting_bareiss(monkeypatch):
    calls = []
    bareiss = lattice._bareiss_rank

    def counting(a):
        calls.append(a)
        return bareiss(a)

    monkeypatch.setattr(lattice, "_bareiss_rank", counting)
    return calls


def test_int_rank_modular_certificate_skips_bareiss(monkeypatch):
    calls = _counting_bareiss(monkeypatch)
    rng = random.Random(13)
    for nr, nc in ((6, 6), (6, 40), (40, 6)):
        m = [[rng.randint(-(10**4), 10**4) for _ in range(nc)] for _ in range(nr)]
        assert int_rank(m) == 6 == sympy_rank(m)
    assert calls == []
    # small entries stay on Bareiss, whatever the shape
    assert int_rank([[int(i == j) for j in range(8)] for i in range(8)]) == 8
    assert len(calls) == 1


@pytest.mark.parametrize(
    "m, rank",
    [
        # rank 5 over Q, 0 modulo p
        ([[lattice._P * int(i == j) for j in range(5)] for i in range(5)], 5),
        # rank 6 over Q, 5 modulo p: the last row is the first plus p e_6
        (
            [[10**4 * (i + 1) ** j for j in range(6)] for i in range(5)]
            + [[10**4 + lattice._P * (j == 5) for j in range(6)]],
            6,
        ),
        # rank-deficient over Q: the modular rank cannot decide either
        ([[10**4 * (i + j) for j in range(7)] for i in range(5)], 2),
    ],
    ids=["diag_p", "rows_agree_mod_p", "rank_deficient"],
)
def test_int_rank_falls_back_to_bareiss(monkeypatch, m, rank):
    calls = _counting_bareiss(monkeypatch)
    assert int_rank(m) == rank == sympy_rank(m)
    assert len(calls) == 1


@st.composite
def fraction_matrices(draw):
    """Fraction matrices with nontrivial denominators, some rank-deficient."""
    nr = draw(st.integers(0, 7))
    nc = draw(st.integers(1, 7))
    entry = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    m = [[draw(entry) for _ in range(nc)] for _ in range(nr)]
    if nr > 1 and draw(st.booleans()):  # a combination of two rows
        m.append([x / 3 - 2 * y for x, y in zip(m[0], m[1])])
    return m


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fraction_matrices())
def test_rational_rank_matches_sympy(m):
    assert rational_rank(m) == sympy_rank(m)
