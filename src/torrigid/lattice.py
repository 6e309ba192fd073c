"""Exact integer and rational linear algebra on small dense matrices.

Everything here works over arbitrary-precision integers or exact rationals
(``fractions.Fraction``); there is no floating point anywhere.  Matrices are
plain sequences of row sequences.  All functions are pure and deterministic,
with lexicographic tie-breaking wherever an order has to be chosen.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import ge, mul
from typing import Iterable, Sequence

from ._record import frozen

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


@frozen
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


# The largest prime below 2^30: a residue is one 30-bit digit of a CPython
# int, and a product of two residues at most two.
_P = (1 << 30) - 35


def int_rank(m: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix.

    A k x k minor that is nonzero modulo the prime P = 2^30 - 35 is a nonzero
    integer, so the rank modulo P is at most the rank over Q, which is at
    most k = min(rows, cols).  When the rank modulo P is k it is the exact
    rank; a scan of the vectors along the longer side finds such a minor
    (``_full_rank_mod_p``).  That certificate is tried only where
    fraction-free elimination would outgrow a machine word: k > 4 and the
    Hadamard-style bound k * (bitlen(max |entry|) + bitlen(k) // 2) on the
    bit length of the minors exceeds 62.  Every other matrix, and every
    matrix the scan cannot certify (rank-deficient ones among them), is
    ranked by fraction-free (Bareiss) elimination, on a copy of the rows.

    Entries must be ``int``: the exact Bareiss divisions floor anything
    else, so a ``Fraction`` entry raises TypeError instead of giving a wrong
    rank.
    """
    entries = itertools.chain.from_iterable
    if not all(map(isinstance, entries(m), itertools.repeat(int))):
        raise TypeError("int_rank needs integer entries")
    k = min(len(m), len(m[0])) if m else 0
    if k > 4:
        # the bound exceeds 62 exactly when some entry has more bits than this
        bits = 62 // k - k.bit_length() // 2
        large = bits < 0 or any(map(ge, map(abs, entries(m)), itertools.repeat(1 << bits)))
        if large and _full_rank_mod_p(m, k):
            return k
    return _bareiss_rank([list(row) for row in m])[0]


def _full_rank_mod_p(a: Sequence[Sequence[int]], k: int) -> bool:
    """Whether the rank of ``a`` modulo P is k = min(rows, cols), by a
    left-looking scan that stops at the k-th pivot; ``a`` is not modified.

    The n >= k vectors along the longer side of ``a`` (its rows when it is
    tall, its columns when it is wide) have k entries each.  They are
    visited in the order 0, s, 2s, ... modulo n, for the least stride
    s > n / k coprime to n, so every vector is visited once before the scan
    gives up, and the first k visited are spread over the whole matrix
    rather than side by side (adjacent columns of a Jacobian are often
    dependent).  Each vector is reduced modulo P against the pivot vectors
    found so far, in the order they were found; a nonzero remainder is the
    next pivot vector.  The scan returns False once fewer vectors are left
    than pivots missing.

    Each visited vector is packed into one int of k slots of
    w = 2 * bitlen(P) + bitlen(k) + 1 bits, its entries first reduced
    modulo P, and so is each pivot vector, so that a reduction by a pivot
    with factor f is one ``packed += (P - f) * pivot``.  A slot starts below
    P and gains at most (P - 1)^2 at each of at most k - 1 reductions, so it
    stays nonnegative and below P + (k - 1)(P - 1)^2 < 2^w and never carries
    into the next slot; the slots are unpacked and reduced once per vector,
    after its last reduction."""
    n = max(len(a), len(a[0]))
    tall = len(a) == n
    stride = next(s for s in itertools.count(n // k + 1) if gcd(s, n) == 1)
    w = 2 * _P.bit_length() + k.bit_length() + 1
    mask = (1 << w) - 1
    shifts = range(0, k * w, w)
    # (shift of the leading slot, the packed vector scaled to lead with 1)
    pivots: list[tuple[int, int]] = []
    j = 0
    for left in range(n, 0, -1):
        if left < k - len(pivots):
            return False
        v = a[j] if tall else [row[j] for row in a]
        j = (j + stride) % n
        packed = sum([x % _P << s for x, s in zip(v, shifts)])
        for s, pivot in pivots:
            f = (packed >> s & mask) % _P
            if f:
                packed += (_P - f) * pivot
        v = [(packed >> s & mask) % _P for s in shifts]
        pos = next((i for i, x in enumerate(v) if x), None)
        if pos is not None:
            inv = pow(v[pos], -1, _P)
            pivots.append((pos * w, sum([x * inv % _P << s for x, s in zip(v, shifts)])))
            if len(pivots) == k:
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
    kernel of the integer kernel of the vectors, so it is saturated.  One
    decomposition of the basis columns solves for every vector."""
    normals = integer_kernel(vectors)
    if not normals:
        return None
    basis = integer_kernel(normals)
    snf = smith_normal_form([list(column) for column in zip(*basis)])
    return basis, [snf.solve(v)[0] for v in vectors]


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


@frozen
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


@frozen
class Witness:
    point: Vec


@frozen
class Infeasible:
    pass


@frozen
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


def _substitute(rows: list[_Row], equality: _Row, var: int, equal: bool) -> list[_Row]:
    """``rows`` with x_var eliminated through the equality <e, x> = d, which
    involves it: each row scaled by |e_var|, so that an inequality keeps its
    direction, plus the multiple of the equality that clears x_var.  The
    rows are inequalities, or equalities when ``equal``; an equality is
    signed so that its first nonzero coefficient is positive, so parallel
    ones meet in one row.  Raises _FMContradiction if a row becomes
    0 >= positive (0 = nonzero)."""
    e, d = equality
    s = abs(e[var])
    sign = 1 if e[var] > 0 else -1
    out: set[_Row] = set()
    for a, c in rows:
        t = sign * a[var]
        a = tuple(s * x - t * y for x, y in zip(a, e))
        c = s * c - t * d
        lead = next((x for x in a if x), 0)
        if not lead:
            if c > 0 or equal and c:
                raise _FMContradiction
            continue
        if equal and lead < 0:
            a, c = tuple(-x for x in a), -c
        out.add(_normalize_row(a, c))
    return sorted(out)


def rational_feasible(rows: list[_Row], num_vars: int) -> bool:
    """Exact feasibility of a weak inequality system over the rationals."""
    try:
        _fm_chain(rows, num_vars)
    except _FMContradiction:
        return False
    return True


def variable_bounds(
    rows: list[_Row], num_vars: int
) -> list[tuple[Fraction | None, Fraction | None]] | None:
    """Per-variable rational bounds of the solution set.

    Returns a (lower, upper) pair per variable with None for an unbounded
    side, or None if the system is infeasible over the rationals.  The
    bounds of x_var are read off the first entry of the ``_fm_chain`` of the
    rows with x_var moved to the front: their exact projection onto it.
    """
    bounds: list[tuple[Fraction | None, Fraction | None]] = []
    for var in range(num_vars):
        front = [((a[var], *a[:var], *a[var + 1 :]), c) for a, c in rows]
        try:
            projection = _fm_chain(front, num_vars)[0]
        except _FMContradiction:
            return None
        lo: Fraction | None = None
        hi: Fraction | None = None
        for a, c in projection:
            coef = a[0]
            if coef > 0:
                val = Fraction(c, coef)
                lo = val if lo is None else max(lo, val)
            elif coef < 0:
                val = Fraction(c, coef)
                hi = val if hi is None else min(hi, val)
        bounds.append((lo, hi))
    return bounds


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _fm_chain(
    rows: list[_Row], num_vars: int, equalities: Sequence[_Row] = ()
) -> list[list[_Row]]:
    """Entry k constrains x_0..x_k only: the projection of the system onto
    those coordinates, as inequality rows, by elimination of x_{num_vars-1},
    ..., x_{k+1}.  The last entry is ``rows`` with each of ``equalities``
    (<a, x> = c) as two opposite rows.  A variable that an equality involves
    is eliminated by substituting that equality into the other rows and
    equalities, which is exact because it fixes the variable once the rest
    are fixed; Fourier-Motzkin pairing is used only when no equality
    involves the variable, so pinned coordinates do not multiply the rows.
    Raises _FMContradiction when the system has no rational solution."""
    eqs = list(equalities)

    def entry() -> list[_Row]:
        return rows + [r for a, c in eqs for r in ((a, c), (tuple(-x for x in a), -c))]

    chain = [entry()]
    for var in range(num_vars - 1, -1, -1):
        pivot = next((eq for eq in eqs if eq[0][var]), None)
        if pivot is None:
            rows = _fm_eliminate(rows, var)
        else:
            eqs.remove(pivot)
            rows = _substitute(rows, pivot, var, False)
            eqs = _substitute(eqs, pivot, var, True)
        chain.append(entry())
    # an equality left over is 0 = c: every variable it involved was pivoted away
    if any(c for _, c in eqs):
        raise _FMContradiction
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


@lru_cache(maxsize=64)
def _parametrization(equalities: tuple[_Row, ...]) -> tuple[Vec, tuple[Vec, ...]] | None:
    """(origin, basis) with {u : <a, u> = c for (a, c) in equalities} =
    origin + Z-span(basis), or None when there is no integer solution."""
    sol = solve_diophantine([a for a, _ in equalities], [c for _, c in equalities])
    if sol is None:
        return None
    origin, basis = sol
    return origin, tuple(basis)


def _bounded(chain: list[list[_Row]]) -> bool:
    """Whether the nonempty polyhedron of a chain from ``_fm_chain`` is
    bounded.  Entry k is the projection onto x_0..x_k, so x_k is bounded
    above (below) over a prefix exactly when entry k has a row with a
    negative (positive) coefficient on it, whatever the prefix."""
    return all({a[k] > 0 for a, _ in entry if a[k]} == {True, False} for k, entry in enumerate(chain))


def _extent(chain: list[list[_Row]]) -> int:
    """A radius r with |x_k| <= r at every integer point over a bounded
    chain from ``_fm_chain``: entry k bounds x_k over the integer box that
    the entries before it give x_0..x_{k-1}."""
    box: list[tuple[int, int]] = []
    for k, rows in enumerate(chain):
        lo = hi = None
        for a, c in rows:
            coef = a[k]
            if coef:
                # c - <a[:k], x> over the box is least where <a[:k], x> is largest
                resid = c - sum(x * (h if x > 0 else l) for x, (l, h) in zip(a, box))
                if coef > 0:
                    b = -(-resid // coef)
                    lo = b if lo is None else max(lo, b)
                else:
                    b = resid // coef
                    hi = b if hi is None else min(hi, b)
        box.append((lo, hi))
    return max(0, *(max(-lo, hi) for lo, hi in box))


def integer_feasible(system: AffineSystem, search_bound: int) -> FeasibilityResult:
    """Decide whether the system has an integer solution.

    Equalities are absorbed by a lattice parametrization u = origin + B*t,
    leaving inequalities in the free coordinates t; the parametrizations of
    the last 64 equality sets are cached.  One Fourier-Motzkin chain over t
    decides rational feasibility and boundedness.  A bounded system is
    decided exactly, whatever ``search_bound``: its chain is searched up to
    a radius that holds every solution.  Only on an unbounded system do
    per-variable Fourier-Motzkin bounds give each t_i an integer range, cut
    to [-search_bound, search_bound] on an unbounded side; the answer is
    Infeasible when one bounded on both sides has an empty range, and
    otherwise only |t|_inf <= ``search_bound`` is searched, so an empty
    search, or an empty cut range, gives BoundExceeded.

    The witness is the image of the least t in the order (max |t_i|, then t
    lexicographic).  It is found by descending the chain over the boxes
    |t|_inf <= 0, 1, 3, 7, ..., capped at the search radius (the bounded
    system's radius, or ``search_bound``): the first box that holds a point
    also holds the least one.
    """
    if search_bound < 1:
        raise ValueError("search_bound must be >= 1")
    n = system.num_vars
    if system.equalities:
        sol = _parametrization(tuple((tuple(a), c) for a, c in system.equalities))
        if sol is None:
            return Infeasible()
        origin, basis = sol
    else:
        origin, basis = tuple([0] * n), tuple(tuple(row) for row in _identity(n))

    k = len(basis)
    if k == 0:
        return Witness(origin) if system.satisfied_by(origin) else Infeasible()

    rows = [
        _normalize_row(tuple(sum(map(mul, a, b)) for b in basis), c - sum(map(mul, a, origin)))
        for a, c in system.inequalities
    ]
    try:
        chain = _fm_chain(rows, k)
    except _FMContradiction:
        return Infeasible()

    if _bounded(chain):
        radius_cap, exhausted = _extent(chain), Infeasible()
    else:
        for lo, hi in variable_bounds(rows, k):
            ilo = _ceil(lo) if lo is not None else -search_bound
            ihi = _floor(hi) if hi is not None else search_bound
            if ilo > ihi:
                if lo is not None and hi is not None:
                    return Infeasible()
                return BoundExceeded(search_bound)
        radius_cap, exhausted = search_bound, BoundExceeded(search_bound)
    radius = 0
    while not (points := _descend(chain, radius)):
        if radius == radius_cap:
            return exhausted
        radius = min(2 * radius + 1, radius_cap)
    t = min(points, key=lambda p: (max(map(abs, p)), p))
    u = tuple(o + sum(b[i] * x for b, x in zip(basis, t)) for i, o in enumerate(origin))
    assert system.satisfied_by(u)
    return Witness(u)


def lattice_points(system: AffineSystem) -> list[Vec]:
    """All integer solutions of a bounded system, in lexicographic order.

    One elimination chain (``_fm_chain``, which substitutes the equalities
    and pairs inequalities by Fourier-Motzkin only for the variables no
    equality involves) is descended coordinate by coordinate, so the answer
    is exact.  Raises UnboundedPolyhedronError when the rational solution
    set is nonempty and unbounded, whether or not it holds an integer point;
    an infeasible system yields the empty list.
    """
    n = system.num_vars
    rows = list(system.inequalities)
    if n == 0:
        infeasible = any(c > 0 for _, c in rows) or any(c for _, c in system.equalities)
        return [] if infeasible else [()]
    try:
        chain = _fm_chain(rows, n, system.equalities)
    except _FMContradiction:
        return []
    if not _bounded(chain):
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

    Generators of lower rank are first written in a lattice basis of their
    saturated span and the result is mapped back, so the cone is
    full-dimensional.  The facets are the adjugate rows that are >= 0 on
    every generator, so membership in the cone is a few dot products, and
    the cone is pointed exactly when the facet normals have full rank.
    Candidates are sorted by the sum of the facet normals, which is positive
    on the cone minus 0, and h is kept unless h - c lies in the cone for
    some c kept before it: an element that splits has an irreducible summand
    of smaller height.

    The cost is one closure per nonsingular n-subset, so the number of
    candidates is at most the sum of |det S| over those subsets.  No
    Fourier-Motzkin elimination is involved.
    """
    ambient = _common_length(generators)
    gens = sorted({primitive(g) for g in generators if any(g)})
    if not gens:
        return []
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
    if int_rank(list(facets)) < n:
        raise NonPointedConeError("cone contains a line; Hilbert basis undefined")

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
