"""Exact integer and rational linear algebra on small dense matrices.

Everything here works over arbitrary-precision integers or exact rationals
(``fractions.Fraction``); there is no floating point anywhere.  Matrices are
plain sequences of row sequences.  All functions are pure and deterministic,
with lexicographic tie-breaking wherever an order has to be chosen.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[int, ...]


class NonPointedConeError(ValueError):
    """The generators span a cone containing a line."""


class UnboundedPolyhedronError(ValueError):
    """Enumeration was requested for a polyhedron with unbounded directions."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def content(v: Iterable[int]) -> int:
    g = 0
    for a in v:
        g = gcd(g, a)
    return g


def primitive(v: Sequence[int]) -> Vec:
    """Divide an integer vector by its content (zero vector is returned as is)."""
    g = content(v)
    if g == 0:
        return tuple(v)
    return tuple(a // g for a in v)


def normalize_sign(v: Sequence[int]) -> Vec:
    """Flip the sign so the first nonzero entry is positive."""
    for a in v:
        if a > 0:
            return tuple(v)
        if a < 0:
            return tuple(-x for x in v)
    return tuple(v)


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular U, V and diagonal D with U * M * V = D.

    The diagonal entries are nonnegative and each divides the next.
    """

    u: tuple[Vec, ...]
    d: tuple[Vec, ...]
    v: tuple[Vec, ...]

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(
            self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0))
        )

    @property
    def rank(self) -> int:
        return sum(1 for f in self.invariant_factors if f != 0)

    def solve(self, rhs: Sequence[int]) -> tuple[Vec, list[Vec]] | None:
        """Integer solutions of M*x = rhs as (particular, kernel basis), or None.

        With U*M*V = D the system becomes D*y = U*rhs and x = V*y, so one
        decomposition answers any number of right-hand sides.
        """
        nr = len(self.u)
        nc = len(self.v)
        if len(rhs) != nr:
            raise ValueError(f"right-hand side has length {len(rhs)}, expected {nr}")
        w = [sum(self.u[i][k] * rhs[k] for k in range(nr)) for i in range(nr)]
        y = [0] * nc
        for i in range(nr):
            d = self.d[i][i] if i < min(nr, nc) else 0
            if d == 0:
                if w[i] != 0:
                    return None
            else:
                if w[i] % d != 0:
                    return None
                y[i] = w[i] // d
        particular = tuple(sum(self.v[i][j] * y[j] for j in range(nc)) for i in range(nc))
        basis = [tuple(self.v[i][j] for i in range(nc)) for j in range(self.rank, nc)]
        return particular, basis


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Smith normal form of an integer matrix, with transformation matrices.

    Pivots are chosen as the entry of least absolute value (row-major ties),
    so the result is deterministic for a fixed input.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    a = [list(row) for row in m]
    for row in a:
        if len(row) != nc:
            raise ValueError("ragged matrix")
    u = _identity(nr)
    v = _identity(nc)

    def row_op(i: int, k: int, coeffs: tuple[int, int, int, int]) -> None:
        # rows (i, k) <- (p*row_i + q*row_k, r*row_i + s*row_k), ps - qr = +-1
        p, q, r, s = coeffs
        for mat in (a, u):
            ri, rk = mat[i], mat[k]
            for j in range(len(ri)):
                ri[j], rk[j] = p * ri[j] + q * rk[j], r * ri[j] + s * rk[j]

    def col_op(j: int, k: int, coeffs: tuple[int, int, int, int]) -> None:
        p, q, r, s = coeffs
        for mat in (a, v):
            for row in mat:
                row[j], row[k] = p * row[j] + q * row[k], r * row[j] + s * row[k]

    t = 0
    while t < min(nr, nc):
        # locate the smallest nonzero entry of the trailing block
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_op(t, pi, (0, 1, 1, 0))
        if pj != t:
            col_op(t, pj, (0, 1, 1, 0))
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                b = a[i][t]
                if b == 0:
                    continue
                d = a[t][t]
                if b % d == 0:
                    row_op(t, i, (1, 0, -(b // d), 1))
                else:
                    g, x, y = xgcd(d, b)
                    row_op(t, i, (x, y, -(b // g), d // g))
                    dirty = True
            for j in range(t + 1, nc):
                b = a[t][j]
                if b == 0:
                    continue
                d = a[t][t]
                if b % d == 0:
                    col_op(t, j, (1, 0, -(b // d), 1))
                    dirty = True  # column ops can reintroduce entries in column t
                else:
                    g, x, y = xgcd(d, b)
                    col_op(t, j, (x, y, -(b // g), d // g))
                    dirty = True
        # enforce divisibility: pivot must divide the trailing block
        d = a[t][t]
        fixed = True
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % d != 0:
                    row_op(t, i, (1, 1, 0, 1))  # absorb row i, then restart clearing
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1

    for i in range(min(nr, nc)):
        if a[i][i] < 0:
            for mat in (a, u):
                mat[i][:] = [-x for x in mat[i]]

    return SmithDecomposition(
        u=tuple(tuple(r) for r in u),
        d=tuple(tuple(r) for r in a),
        v=tuple(tuple(r) for r in v),
    )


def int_det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: the last pivot, signed by the row swaps."""
    rank, det = _bareiss_rank([list(row) for row in m])
    return det if rank == len(m) else 0


# A Mersenne prime: products of two residues stay within a few machine words.
_P = (1 << 61) - 1


def int_rank(m: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix.

    A k x k minor that is nonzero modulo the prime P = 2^61 - 1 is a nonzero
    integer, so the rank modulo P is at most the rank over Q, which is at
    most k = min(rows, cols).  When the rank modulo P is k it is the exact
    rank.  That certificate is tried only where fraction-free elimination
    would outgrow a machine word: k > 4 and the Hadamard-style bound
    k * (bitlen(max |entry|) + bitlen(k) // 2) on the bit length of the
    minors exceeds 62.  Every other matrix, and every matrix the modular
    rank cannot decide (rank-deficient ones among them), is ranked by
    fraction-free (Bareiss) elimination.

    Entries must be ``int``: the exact Bareiss divisions floor anything
    else, so a ``Fraction`` entry raises TypeError instead of giving a wrong
    rank.
    """
    a = [list(row) for row in m]
    entries = itertools.chain.from_iterable
    if not all(map(isinstance, entries(a), itertools.repeat(int))):
        raise TypeError("int_rank needs integer entries")
    k = min(len(a), len(a[0])) if a else 0
    if (
        k > 4
        and k * (max(map(abs, entries(a))).bit_length() + k.bit_length() // 2) > 62
        and _full_rank_mod_p(a, k)
    ):
        return k
    return _bareiss_rank(a)[0]


def _full_rank_mod_p(a: list[list[int]], k: int) -> bool:
    """Whether the rank of ``a`` modulo P is k = min(rows, cols), by Gaussian
    elimination modulo P on the k rows of ``a`` or of its transpose; ``a``
    itself is not modified."""
    rows = [[x % _P for x in row] for row in (a if len(a) == k else zip(*a))]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, k) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, _P)
        tail = rows[rank][col + 1 :]
        for row in rows[rank + 1 :]:
            f = row[col] * inv % _P
            if f:
                row[col + 1 :] = [(x - f * y) % _P for x, y in zip(row[col + 1 :], tail)]
        rank += 1
        if rank == k:
            return True
    return False


def _bareiss_rank(a: list[list[int]]) -> tuple[int, int]:
    """(rank, last pivot signed by the row swaps) by fraction-free (Bareiss)
    elimination, in place; on a square matrix of full rank the second entry
    is the determinant.

    Every row below the pivot is updated, including rows with a zero entry
    in the pivot column; the rescaling keeps later divisions exact."""
    nr = len(a)
    nc = len(a[0]) if nr else 0
    rank = 0
    prev = sign = 1
    for col in range(nc):
        piv = None
        for i in range(rank, nr):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        for i in range(rank + 1, nr):
            for j in range(col + 1, nc):
                a[i][j] = (a[i][j] * a[rank][col] - a[i][col] * a[rank][j]) // prev
            a[i][col] = 0
        prev = a[rank][col]
        rank += 1
        if rank == nr:
            break
    return rank, sign * prev


def _integer_rows(rows: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    """Each row of ``int`` or ``Fraction`` entries times the lcm of its
    denominators, as a list of ints; row spaces, ranks and kernels are
    unchanged."""
    scaled = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        scaled.append([x.numerator * (d // x.denominator) for x in row])
    return scaled


def rational_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over Q of a matrix of ``int`` or ``Fraction`` entries: the rows
    are scaled to integers (``_integer_rows``), which keeps the rank, and
    ranked by ``int_rank``."""
    return int_rank(_integer_rows(rows))


def integer_kernel(m: Sequence[Sequence[int]]) -> list[Vec]:
    """Lattice basis of { a : M*a = 0 }, sign-normalized and sorted."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    if nc == 0:
        return []
    snf = smith_normal_form(m)
    rank = snf.rank
    basis = [normalize_sign(tuple(snf.v[i][j] for i in range(nc))) for j in range(rank, nc)]
    return sorted(basis)


def solve_diophantine(
    a: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[Vec, list[Vec]] | None:
    """Integer solutions of A*x = rhs as (particular, kernel basis), or None."""
    return smith_normal_form(a).solve(rhs)


def _saturated_span(vectors: Sequence[Vec]) -> tuple[list[Vec], list[Vec]] | None:
    """A lattice basis of span(vectors) ∩ Z^n and the vectors in coordinates
    of that basis; None when the vectors span Q^n.  The basis is the integer
    kernel of the integer kernel of the vectors, so it is saturated."""
    normals = integer_kernel(vectors)
    if not normals:
        return None
    basis = integer_kernel(normals)
    columns = [list(column) for column in zip(*basis)]
    return basis, [solve_diophantine(columns, v)[0] for v in vectors]


# ---------------------------------------------------------------------------
# Rational elimination (reduced row echelon form and friends)


def _gauss_jordan(a: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place;
    returns the pivot columns.

    For each pivot p at (r, c) every other row a_i with f = a_i[c] != 0
    becomes (p * a_i - f * a_r) / g, with g its content, so no row grows
    beyond what its entries need.  The span is unchanged, the first
    len(pivots) rows are nonzero with a_k[pivots[k]] their only nonzero
    entry in a pivot column, and the other rows are zero."""
    nr = len(a)
    nc = len(a[0]) if nr else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        ar = a[r]
        p = ar[c]
        for i in range(nr):
            f = a[i][c]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(a[i], ar)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return pivots


def rref(
    rows: Sequence[Sequence[Fraction | int]],
) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (nonzero rows, pivot columns).

    The rows are scaled to integers (``_integer_rows``) and reduced by
    fraction-free Gauss-Jordan elimination (``_gauss_jordan``), which keeps
    their span.  The reduced row echelon form of a span is unique, so
    dividing each pivot row by its pivot gives the same rows as elimination
    in ``Fraction`` arithmetic.  Those divisions are the only ``Fraction``s
    built: one per entry of the returned rows.  The input rows are not
    modified.
    """
    a = _integer_rows(rows)
    pivots = _gauss_jordan(a)
    return [[Fraction(x, a[k][c]) for x in a[k]] for k, c in enumerate(pivots)], pivots


def rational_kernel(rows: Sequence[Sequence[Fraction | int]], num_cols: int) -> list[list[Fraction]]:
    """Basis of the rational nullspace of the given matrix."""
    red, pivots = rref(rows) if rows else ([], [])
    free = [c for c in range(num_cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * num_cols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -red[r][f]
        basis.append(vec)
    return basis


def rational_solve(
    rows: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]
) -> list[Fraction] | None:
    """One rational solution of A*x = rhs, or None if inconsistent."""
    nc = len(rows[0]) if rows else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if nc in pivots:
        return None
    sol = [Fraction(0)] * nc
    for r, c in enumerate(pivots):
        sol[c] = red[r][nc]
    return sol


# ---------------------------------------------------------------------------
# Affine systems over the integers and Fourier-Motzkin elimination


@dataclass(frozen=True)
class AffineSystem:
    """Integer constraints on u in Z^num_vars.

    ``equalities`` are pairs (a, c) meaning <a, u> = c and ``inequalities``
    mean <a, u> >= c.
    """

    num_vars: int
    equalities: tuple[tuple[Vec, int], ...] = ()
    inequalities: tuple[tuple[Vec, int], ...] = ()

    def __post_init__(self) -> None:
        for a, _ in itertools.chain(self.equalities, self.inequalities):
            if len(a) != self.num_vars:
                raise ValueError(
                    f"constraint row has length {len(a)}, expected {self.num_vars}"
                )

    def satisfied_by(self, u: Sequence[int]) -> bool:
        if len(u) != self.num_vars:
            return False
        for a, c in self.equalities:
            if sum(x * y for x, y in zip(a, u)) != c:
                return False
        for a, c in self.inequalities:
            if sum(x * y for x, y in zip(a, u)) < c:
                return False
        return True


@dataclass(frozen=True)
class Witness:
    point: Vec


@dataclass(frozen=True)
class Infeasible:
    pass


@dataclass(frozen=True)
class BoundExceeded:
    search_bound: int


FeasibilityResult = Witness | Infeasible | BoundExceeded

_Row = tuple[Vec, int]  # <a, x> >= c


def _normalize_row(coeffs: Sequence[int], c: int) -> _Row:
    g = gcd(content(coeffs), c)
    if g > 1:
        coeffs = [x // g for x in coeffs]
        c //= g
    return tuple(coeffs), c


class _FMContradiction(Exception):
    pass


def _fm_eliminate(rows: list[_Row], var: int) -> list[_Row]:
    """Eliminate one variable from a weak inequality system.

    Raises _FMContradiction if a constraint 0 >= positive appears.
    """
    pos: list[_Row] = []
    neg: list[_Row] = []
    out: set[_Row] = set()
    for a, c in rows:
        if a[var] > 0:
            pos.append((a, c))
        elif a[var] < 0:
            neg.append((a, c))
        else:
            if all(x == 0 for x in a):
                if c > 0:
                    raise _FMContradiction
            else:
                out.add(_normalize_row(a, c))
    for (ap, cp) in pos:
        for (an, cn) in neg:
            mp, mn = -an[var], ap[var]
            a = tuple(mp * x + mn * y for x, y in zip(ap, an))
            c = mp * cp + mn * cn
            if all(x == 0 for x in a):
                if c > 0:
                    raise _FMContradiction
                continue
            out.add(_normalize_row(a, c))
    return sorted(out)


def _as_rows(system: AffineSystem) -> list[_Row]:
    rows: list[_Row] = []
    for a, c in system.equalities:
        rows.append((tuple(a), c))
        rows.append((tuple(-x for x in a), -c))
    for a, c in system.inequalities:
        rows.append((tuple(a), c))
    return rows


def rational_feasible(rows: list[_Row], num_vars: int) -> bool:
    """Exact feasibility of a weak inequality system over the rationals."""
    cur = list(rows)
    try:
        for var in range(num_vars):
            cur = _fm_eliminate(cur, var)
    except _FMContradiction:
        return False
    return True


def variable_bounds(
    rows: list[_Row], num_vars: int
) -> list[tuple[Fraction | None, Fraction | None]] | None:
    """Per-variable rational bounds of the solution set.

    Returns a (lower, upper) pair per variable with None for an unbounded
    side, or None if the system is infeasible over the rationals.
    """
    bounds: list[tuple[Fraction | None, Fraction | None]] = []
    for var in range(num_vars):
        cur = list(rows)
        try:
            for other in range(num_vars):
                if other != var:
                    cur = _fm_eliminate(cur, other)
        except _FMContradiction:
            return None
        lo: Fraction | None = None
        hi: Fraction | None = None
        for a, c in cur:
            coef = a[var]
            if coef > 0:
                val = Fraction(c, coef)
                lo = val if lo is None else max(lo, val)
            elif coef < 0:
                val = Fraction(c, coef)
                hi = val if hi is None else min(hi, val)
            elif c > 0:
                return None
        bounds.append((lo, hi))
    return bounds


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _fm_chain(rows: list[_Row], num_vars: int) -> list[list[_Row]]:
    """Entry k constrains x_0..x_k only: the projection of ``rows`` onto those
    coordinates, by Fourier-Motzkin elimination of x_{num_vars-1}, ...,
    x_{k+1}.  The last entry is ``rows`` itself.  Raises _FMContradiction
    when the rows have no rational solution."""
    chain = [rows]
    for var in range(num_vars - 1, -1, -1):
        chain.append(_fm_eliminate(chain[-1], var))
    return chain[-2::-1]  # eliminating x_0 as well only checks feasibility


def _descend(chain: list[list[_Row]], radius: int | None = None) -> list[Vec]:
    """The integer points over a chain from ``_fm_chain`` in lexicographic
    order, within |x_i| <= ``radius`` when it is given.

    Coordinate k runs over the integers that entry k allows once x_0..x_{k-1}
    are fixed, so every point found satisfies the last entry.  Without
    ``radius``, entry k must bound x_k on both sides for every k."""
    n = len(chain)
    # each row split into its coefficients on x_0..x_{k-1}, on x_k, and c
    levels = [[(a[:k], a[k], c) for a, c in rows] for k, rows in enumerate(chain)]
    point = [0] * n
    out: list[Vec] = []

    def level(k: int) -> None:
        lo, hi = (None, None) if radius is None else (-radius, radius)
        for prefix, coef, c in levels[k]:
            resid = c - sum(x * y for x, y in zip(prefix, point))
            if coef > 0:
                b = -(-resid // coef)
                lo = b if lo is None else max(lo, b)
            elif coef < 0:
                b = resid // coef
                hi = b if hi is None else min(hi, b)
            elif resid > 0:
                return
        for value in range(lo, hi + 1):
            point[k] = value
            if k == n - 1:
                out.append(tuple(point))
            else:
                level(k + 1)

    level(0)
    return out


def integer_feasible(system: AffineSystem, search_bound: int) -> FeasibilityResult:
    """Decide whether the system has an integer solution.

    Equalities are absorbed by a lattice parametrization u = origin + B*t,
    leaving inequalities in the free coordinates t.  Fourier-Motzkin bounds
    give each t_i an integer range, cut to [-search_bound, search_bound] on
    an unbounded side.  The answer is exact (Witness or Infeasible) when
    every t_i is bounded, or when one bounded on both sides has an empty
    range.  Otherwise only |t|_inf <= ``search_bound`` is searched, and an
    empty search, or an empty cut range, gives BoundExceeded.

    The witness is the image of the least t in the order (max |t_i|, then t
    lexicographic).  It is found by descending one Fourier-Motzkin chain
    over the boxes |t|_inf <= 0, 1, 3, 7, ..., capped at the search radius:
    the first box that holds a point also holds the least one.
    """
    if search_bound < 1:
        raise ValueError("search_bound must be >= 1")
    n = system.num_vars
    if system.equalities:
        eq_mat = [list(a) for a, _ in system.equalities]
        eq_rhs = [c for _, c in system.equalities]
        sol = solve_diophantine(eq_mat, eq_rhs)
        if sol is None:
            return Infeasible()
        origin, basis = sol
    else:
        origin, basis = tuple([0] * n), [tuple(row) for row in _identity(n)]

    k = len(basis)
    if k == 0:
        return Witness(origin) if system.satisfied_by(origin) else Infeasible()

    rows: list[_Row] = []
    for a, c in system.inequalities:
        coeffs = tuple(
            sum(a[i] * basis[j][i] for i in range(n)) for j in range(k)
        )
        rows.append(_normalize_row(coeffs, c - sum(x * y for x, y in zip(a, origin))))

    bounds = variable_bounds(rows, k)
    if bounds is None:
        return Infeasible()

    bounded = all(lo is not None and hi is not None for lo, hi in bounds)
    radius_cap = 0 if bounded else search_bound
    for lo, hi in bounds:
        ilo = _ceil(lo) if lo is not None else -search_bound
        ihi = _floor(hi) if hi is not None else search_bound
        if ilo > ihi:
            if lo is not None and hi is not None:
                return Infeasible()
            return BoundExceeded(search_bound)
        if bounded:
            radius_cap = max(radius_cap, -ilo, ihi)

    chain = _fm_chain(rows, k)
    radius = 0
    while not (points := _descend(chain, radius)):
        if radius == radius_cap:
            return Infeasible() if bounded else BoundExceeded(search_bound)
        radius = min(2 * radius + 1, radius_cap)
    t = min(points, key=lambda p: (max(map(abs, p)), p))
    u = tuple(o + sum(b[i] * x for b, x in zip(basis, t)) for i, o in enumerate(origin))
    assert system.satisfied_by(u)
    return Witness(u)


def lattice_points(system: AffineSystem) -> list[Vec]:
    """All integer solutions of a bounded system, in lexicographic order.

    One Fourier-Motzkin chain is descended coordinate by coordinate, so the
    answer is exact.  Raises UnboundedPolyhedronError when the rational
    solution set is nonempty and unbounded, whether or not it holds an
    integer point; an infeasible system yields the empty list.
    """
    n = system.num_vars
    rows = _as_rows(system)
    if n == 0:
        return [] if any(c > 0 for _, c in rows) else [()]
    try:
        chain = _fm_chain(rows, n)
    except _FMContradiction:
        return []
    # Entry k is the projection onto x_0..x_k, so x_k is bounded above (below)
    # over a prefix exactly when entry k has a row with a negative (positive)
    # coefficient on it, whatever the prefix: a nonempty polyhedron is bounded
    # iff every entry has both.
    if not all({a[k] > 0 for a, _ in entry if a[k]} == {True, False} for k, entry in enumerate(chain)):
        raise UnboundedPolyhedronError("polyhedron has an unbounded direction")
    return _descend(chain)


# ---------------------------------------------------------------------------
# Cones


def _common_length(generators: Sequence[Sequence[int]]) -> int:
    """Length shared by all generators; ValueError if the lengths differ."""
    lengths = {len(g) for g in generators}
    if len(lengths) > 1:
        raise ValueError("ragged generators")
    return lengths.pop() if lengths else 0


def cone_contains(generators: Sequence[Vec], x: Sequence[int]) -> bool:
    """Is x a nonnegative rational combination of the generators?"""
    k = len(generators)
    if k == 0:
        return all(a == 0 for a in x)
    n = _common_length(generators)
    if len(x) != n:
        raise ValueError(f"point has length {len(x)}, generators have length {n}")
    rows: list[_Row] = []
    for j in range(n):
        a = tuple(g[j] for g in generators)
        rows.append((a, x[j]))
        rows.append((tuple(-c for c in a), -x[j]))
    for i in range(k):
        e = tuple(1 if j == i else 0 for j in range(k))
        rows.append((e, 0))
    return rational_feasible(rows, k)


def cone_is_pointed(generators: Sequence[Vec]) -> bool:
    """A cone is pointed iff some covector is strictly positive on all generators."""
    n = _common_length(generators)
    gens = [g for g in generators if any(g)]
    if not gens:
        return True
    rows = [(tuple(g), 1) for g in gens]
    return rational_feasible(rows, n)


def _adjugate(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """adj(M), so that adj(M) * M = det(M) * I."""
    n = len(m)
    return [
        [
            (-1) ** (i + j)
            * int_det([[m[r][c] for c in range(n) if c != i] for r in range(n) if r != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def hilbert_basis(generators: Sequence[Sequence[int]]) -> list[Vec]:
    """Minimal generating set of the monoid of lattice points of a pointed cone.

    Candidates come from the simplicial subcones.  For every set S of n
    primitive generators with d = |det S| != 0, the lattice points of the
    half-open parallelepiped { S * lam : 0 <= lam < 1 } are S * mu / d, where
    mu runs over the subgroup of (Z/d)^n generated by the columns of
    adj(S) mod d; a closure over sums lists it.  This is complete: by
    Caratheodory an irreducible element h lies in some simplicial subcone,
    h = S * lam with lam >= 0, and h - S * floor(lam) is again in the
    monoid, so h is a generator or a parallelepiped point of S.

    The facets are the adjugate rows that are >= 0 on every generator, so
    membership in the cone is a few dot products.  Candidates are sorted by
    the sum of the facet normals, which is positive on the cone minus 0, and
    h is kept unless h - c lies in the cone for some c kept before it: an
    element that splits has an irreducible summand of smaller height.
    Generators of lower rank are first written in a lattice basis of their
    saturated span and the result is mapped back.

    The cost is one closure per nonsingular n-subset, so the number of
    candidates is at most the sum of |det S| over those subsets.  The only
    Fourier-Motzkin elimination left is the pointedness check.
    """
    ambient = _common_length(generators)
    gens = sorted({primitive(g) for g in generators if any(g)})
    if not gens:
        return []
    if not cone_is_pointed(gens):
        raise NonPointedConeError("cone contains a line; Hilbert basis undefined")
    span = _saturated_span(gens)
    if span is not None:
        span, gens = span
    n = len(gens[0])

    facets: set[Vec] = set()
    candidates = set(gens)
    zero = (0,) * n
    for sub in itertools.combinations(gens, n):
        mat = [[g[i] for g in sub] for i in range(n)]  # the generators as columns
        d = int_det(mat)
        if d == 0:
            continue
        adj = [[a if d > 0 else -a for a in row] for row in _adjugate(mat)]
        d = abs(d)
        for row in adj:
            if all(sum(a * b for a, b in zip(row, g)) >= 0 for g in gens):
                facets.add(primitive(row))
        # the closure of 0 under adding the columns of adj mod d
        steps = [tuple(row[j] % d for row in adj) for j in range(n)]
        seen = {zero}
        todo = [zero]
        while todo:
            mu = todo.pop()
            for step in steps:
                nxt = tuple((a + b) % d for a, b in zip(mu, step))
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        seen.discard(zero)
        candidates.update(
            tuple(sum(g[i] * c for g, c in zip(sub, mu)) // d for i in range(n)) for mu in seen
        )

    # h - c lies in the cone iff every facet is at least as high on h as on c
    heights = {x: tuple(sum(a * b for a, b in zip(f, x)) for f in facets) for x in candidates}
    basis: list[Vec] = []
    for h in sorted(candidates, key=lambda x: (sum(heights[x]), x)):
        if not any(all(a >= b for a, b in zip(heights[h], heights[c])) for c in basis):
            basis.append(h)
    if span is not None:
        basis = [
            tuple(sum(c * b[i] for c, b in zip(h, span)) for i in range(ambient)) for h in basis
        ]
    return sorted(basis)
