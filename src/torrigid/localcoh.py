"""Fine-graded local cohomology of a polynomial ring at a squarefree ideal.

The graded piece at a multidegree p only depends on which coordinates of p
are negative; it is the reduced cohomology of a simplicial complex attached
to that sign pattern, shifted down by two.  Multiplication by a variable is
induced by an inclusion of these complexes.  An independent oracle computes
the same dimensions from the fine strand of a Cech complex on the ideal
generators, with no simplicial conventions involved; the two must always
agree, and the test suite enforces that on randomized inputs.

Every piece is looked up the same way: ``_degree`` reads the record of the
degree's sign pattern off the ideal's one table of records (``_records``),
keyed by the packed sign mask of the pattern N, the sum of 2^k over k in N,
and remembers the last (ideal, degree) it was asked in ``_last``.  The record
holds the complex, its cohomology dimensions, its pieces by
local-cohomology index and, once the oracle has asked for it, the Cech
strand.  ``_pattern`` and ``_all_records`` read the same table by pattern,
so every pattern of an ideal value has one record.  The record also keeps
its cohomology bases by cochain degree (``_basis``) and its restriction maps
by cochain degree and target pattern (``_restriction``).  A sweep that asks for
every piece of one degree in turn computes its mask once:
``local_coh_piece`` and ``cech_piece`` test ``_last`` themselves, on the
degree as passed and before any conversion, so every other lookup of the
degree is two identity tests and an index check when the caller passes the
same tuple again, and a tuple comparison on top when it passes an equal
tuple, with no further call.  The memo keeps the tuple its miss made, so a
degree that is not a tuple (a list, an ``array``) always takes the miss
path.  The chamber walks of ``t1``, which revisit many
degrees, look up no degree here: they read their records off the table by
mask.

All cohomology is over the exact rationals.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import NoReturn, Sequence

from ._record import frozen
from .ideals import SquarefreeMonomialIdeal
from .lattice import int_rank, rational_kernel, rational_rank, rref
from .toric import Fan, graph_gamma


class DegenerateIdealError(ValueError):
    """Local cohomology at the zero or unit ideal is not supported."""


def _check_proper(b: SquarefreeMonomialIdeal) -> None:
    if b.is_zero:
        raise DegenerateIdealError("zero ideal")
    if b.is_unit:
        raise DegenerateIdealError("unit ideal")


def _reject_index(b: SquarefreeMonomialIdeal) -> NoReturn:
    _check_proper(b)  # a degenerate ideal takes precedence
    raise ValueError("cohomological index must be >= 0")


def negative(p: Sequence[int]) -> frozenset[int]:
    """Indices where the multidegree is negative."""
    return frozenset([i for i, x in enumerate(p) if x <= -1])


# the last (ideal, degree, record) that _degree returned, and the ideal's
# table of records
_last: tuple = (None, None, None, None)


def _degree(b: SquarefreeMonomialIdeal, p: tuple[int, ...]) -> _SignPattern:
    """The record of a degree's sign pattern, remembered in ``_last``: the
    miss path of the one-slot memo that ``local_coh_piece`` and
    ``cech_piece`` test themselves (the same ideal object, and the stored
    degree tuple itself or a tuple equal to it).  ``p`` is the tuple that
    the caller made of the degree; it is stored, never the caller's object.
    The record is read off the ideal's table by the degree's sign mask,
    built with a running bit (one add per coordinate), and a missing one is
    built by ``_pattern``; the table comes from ``_last`` when the ideal is
    the same object, else from ``_records``, so an equal ideal that is
    another object gets the same record.  ``negative`` runs only when the
    record is built.  The degree is checked here; a bad degree or a
    degenerate ideal is never remembered, so it raises on every call."""
    global _last
    if len(p) != b.num_vars:
        _check_proper(b)  # a degenerate ideal takes precedence
        raise ValueError(f"degree has length {len(p)}, expected {b.num_vars}")
    table = _last[3] if _last[0] is b else _records(b)
    mask = 0
    bit = 1
    for x in p:
        if x <= -1:  # as in negative
            mask |= bit
        bit += bit
    record = table.get(mask) or _pattern(b, negative(p))
    _last = (b, p, record, table)
    return record


# ---------------------------------------------------------------------------
# Simplicial complexes


@frozen
class SimplicialComplex:
    """Finite simplicial complex given by its facets.

    ``facets == ()`` is the void complex (no faces at all) while
    ``facets == (frozenset(),)`` is the complex whose only face is empty;
    the two have different reduced cohomology and are kept distinct.
    """

    vertices: tuple[int, ...]
    facets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        vset = set(self.vertices)
        for f in self.facets:
            if not f <= vset:
                raise ValueError("facet outside the vertex set")
        maximal = tuple(
            sorted(
                (f for f in set(self.facets) if not any(f < g for g in self.facets)),
                key=lambda s: (len(s), sorted(s)),
            )
        )
        object.__setattr__(self, "facets", maximal)

    @property
    def is_void(self) -> bool:
        return not self.facets

    def faces_of_dim(self, q: int) -> list[frozenset[int]]:
        """All q-dimensional faces (q + 1 vertices), sorted; q = -1 gives the
        empty face when the complex is nonvoid."""
        if self.is_void or q < -1:
            return []
        out = {
            frozenset(c)
            for f in self.facets
            for c in itertools.combinations(sorted(f), q + 1)
        }
        return sorted(out, key=sorted)

    def dim(self) -> int:
        if self.is_void:
            return -2  # below even the empty face
        return max(len(f) for f in self.facets) - 1


@lru_cache(maxsize=None)
def _records(b: SquarefreeMonomialIdeal) -> dict[int, _SignPattern]:
    """The ideal's table of sign-pattern records, the pattern N at its mask,
    the sum of 2^k over k in N; ``_pattern``, ``_all_records`` and
    ``_degree`` read it, and only ``_pattern`` adds a record, when its mask
    is missing.  Keyed by the ideal's value.  A degenerate ideal raises
    here, on every call, because exceptions are not cached."""
    _check_proper(b)
    return {}


def _pattern(b: SquarefreeMonomialIdeal, pattern: frozenset[int]) -> _SignPattern:
    """The record of a sign pattern: everything a graded piece depends on,
    read off the ideal's table (``_records``) by the pattern's mask."""
    table = _records(b)
    mask = sum(1 << k for k in pattern)
    record = table.get(mask)
    if record is None:
        record = table[mask] = _SignPattern(b, pattern)
    return record


def _all_records(b: SquarefreeMonomialIdeal) -> list[_SignPattern]:
    """The record of every sign pattern of the ideal's degrees, the pattern N
    at its mask, the sum of 2^k over k in N: read off the ideal's table,
    where ``_pattern`` builds only the missing ones."""
    table = _records(b)
    n = b.num_vars
    return [
        table.get(mask) or _pattern(b, frozenset(k for k in range(n) if mask >> k & 1))
        for mask in range(1 << n)
    ]


def _coboundary(kompl: SimplicialComplex, q: int) -> tuple[list[frozenset[int]], list[list[int]]]:
    """The q-faces and the matrix of the coboundary map C^q -> C^{q+1}
    (rows indexed by (q+1)-faces)."""
    lower = kompl.faces_of_dim(q)
    index = {f: k for k, f in enumerate(lower)}
    rows = []
    for g in kompl.faces_of_dim(q + 1):
        row = [0] * len(lower)
        ordered = sorted(g)
        for pos, v in enumerate(ordered):
            f = g - {v}
            row[index[f]] = (-1) ** pos
        rows.append(row)
    return lower, rows


@lru_cache(maxsize=None)
def _cohomology_dims(kompl: SimplicialComplex) -> dict:
    """Reduced cohomology dimensions, indexed by cochain degree."""
    if kompl.is_void:
        return {}
    top = kompl.dim()
    ranks = {}
    counts = {}
    for q in range(-1, top + 1):
        lower, rows = _coboundary(kompl, q)
        counts[q] = len(lower)
        ranks[q] = int_rank(rows) if rows else 0
    dims = {}
    for q in range(-1, top + 1):
        dims[q] = counts[q] - ranks[q] - ranks.get(q - 1, 0)
    return dims


def _reduce(
    v: Sequence[Fraction], rows: Sequence[Sequence[Fraction]], pivots: Sequence[int]
) -> list[Fraction]:
    """v minus the combination of the reduced row echelon rows that clears
    their pivot columns: the canonical representative of v modulo their
    span, zero exactly when v lies in it."""
    v = list(v)
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            v = [x - f * y for x, y in zip(v, row)]
    return v


def _basis(record: _SignPattern, q: int):
    """Canonical basis of H^q of the complex of a sign pattern, kept in the
    pattern's record.

    Returns (q-faces, reps, bnd, bnd_pivots, rep_pivots).  ``bnd`` is the
    reduced row echelon form of the coboundaries inside C^q, with pivot
    columns ``bnd_pivots``.  ``reps`` is the reduced row echelon form of the
    cocycles, each first reduced modulo the coboundaries, with pivot columns
    ``rep_pivots``: one cocycle per class, and every rep vanishes on the
    coboundary pivots.  So a cocycle reduced modulo ``bnd`` is a combination
    of the reps whose coefficients are its entries at ``rep_pivots``.
    """
    found = record.bases.get(q)
    if found is not None:
        return found
    kompl = record.complex
    lower, rows = _coboundary(kompl, q)
    # rows of the (q-1)-coboundary matrix are indexed by q-faces, so its
    # columns are the coboundary vectors inside C^q
    bnd, bnd_pivots = rref(list(zip(*_coboundary(kompl, q - 1)[1])))
    reps, rep_pivots = rref(
        [_reduce(z, bnd, bnd_pivots) for z in rational_kernel(rows, len(lower))]
    )
    assert len(reps) == record.dims.get(q, 0)
    found = record.bases[q] = (lower, reps, bnd, bnd_pivots, rep_pivots)
    return found


class GradedPiece:
    """A finite-dimensional piece of a graded module.  Pieces are shared
    between lookups, so they are immutable."""

    __slots__ = ("complex", "dimension")

    def __init__(self, kompl: SimplicialComplex, dimension: int) -> None:
        object.__setattr__(self, "complex", kompl)
        object.__setattr__(self, "dimension", dimension)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"GradedPiece is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"GradedPiece is immutable: cannot delete {name!r}")

    def __repr__(self) -> str:
        return f"GradedPiece(dim={self.dimension})"


class _SignPattern:
    """The record of a sign pattern of an ideal: the complex, its reduced
    cohomology dimensions by cochain degree, its pieces of local cohomology
    by index i (cochain degree i - 2), and the Cech strand dimensions, None
    until ``cech_piece`` first asks for them.  ``pieces`` ends at the top
    cochain degree; every zero piece, and the piece at every index past the
    end, is ``zero``.  ``bases`` holds the cohomology bases of ``_basis`` by
    cochain degree, and ``maps`` the matrices of ``_restriction`` from this
    pattern by (cochain degree, target pattern)."""

    __slots__ = ("pattern", "complex", "dims", "pieces", "zero", "strand", "bases", "maps")

    def __init__(self, b: SquarefreeMonomialIdeal, pattern: frozenset[int]) -> None:
        facets = [
            frozenset(j for j, g in enumerate(b.generators) if var not in g)
            for var in sorted(pattern)
        ]
        kompl = SimplicialComplex(tuple(range(len(b.generators))), tuple(facets))
        self.pattern = pattern
        self.complex = kompl
        self.dims = dims = _cohomology_dims(kompl)
        self.zero = zero = GradedPiece(kompl, 0)
        self.pieces = tuple(
            GradedPiece(kompl, dims[q]) if dims.get(q) else zero
            for q in range(-2, max(dims, default=-2) + 1)
        )
        self.strand: dict | None = None
        self.bases: dict = {}
        self.maps: dict = {}


def local_coh_piece(
    b: SquarefreeMonomialIdeal, i: int, p: Sequence[int]
) -> GradedPiece:
    """The degree-p piece of the i-th local cohomology of the polynomial ring
    supported at the ideal: reduced cohomology of the sign-pattern complex in
    degree i - 2."""
    last = _last
    if last[0] is b and (last[1] is p or type(p) is tuple and last[1] == p) and i >= 0:
        record = last[2]
    else:
        if i < 0:
            _reject_index(b)
        record = _degree(b, tuple(p))
    pieces = record.pieces
    return pieces[i] if i < len(pieces) else record.zero


@frozen
class MultMap:
    """Multiplication by one variable between two graded pieces, as a matrix
    in the canonical cocycle bases (target dimension x source dimension)."""

    source_dimension: int
    target_dimension: int
    matrix: tuple[tuple[Fraction, ...], ...]

    def is_bijective(self) -> bool:
        if self.source_dimension != self.target_dimension:
            return False
        if self.source_dimension == 0:
            return True
        return rational_rank(self.matrix) == self.source_dimension


def _restriction(q: int, src: _SignPattern, tgt: _SignPattern) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of the restriction map H^q(T_src) -> H^q(T_tgt), for a target
    pattern inside the source pattern, in the canonical bases of ``_basis``
    (target dimension x source dimension).  It is kept in the source record,
    keyed by q and the target pattern.

    A source rep restricted to the target faces is a target cocycle.  Reduced
    modulo the target coboundaries it is a combination of the target reps,
    and its coordinates are its entries at their pivot columns: no system is
    solved.

    Multiplying by a monomial from degree p to p + a is this map for the
    patterns of p and p + a: restrictions compose, so the matrix depends on
    the two patterns only, not on the path or the degrees."""
    key = (q, tgt.pattern)
    found = src.maps.get(key)
    if found is not None:
        return found
    sdim = src.dims.get(q, 0)
    tdim = tgt.dims.get(q, 0)
    if sdim == 0 or tdim == 0:
        found = tuple(tuple(Fraction(0) for _ in range(sdim)) for _ in range(tdim))
    else:
        src_faces, src_reps, *_ = _basis(src, q)
        tgt_faces, tgt_reps, tgt_bnd, bnd_pivots, rep_pivots = _basis(tgt, q)
        src_index = {f: k for k, f in enumerate(src_faces)}
        cols = []
        for z in src_reps:
            v = _reduce([z[src_index[f]] for f in tgt_faces], tgt_bnd, bnd_pivots)
            assert not any(_reduce(v, tgt_reps, rep_pivots)), "restriction must stay a cocycle class"
            cols.append([v[c] for c in rep_pivots])
        found = tuple(zip(*cols))
    src.maps[key] = found
    return found


def mult_map(b: SquarefreeMonomialIdeal, i: int, p: Sequence[int], j: int) -> MultMap:
    """The map multiplication-by-x_j from the piece at p to the piece at
    p + e_j.  When p_j != -1 the sign pattern does not move and the map is a
    bijection."""
    if not 0 <= j < b.num_vars:
        _check_proper(b)  # a degenerate ideal takes precedence
        raise ValueError("variable index out of range")
    if i < 0:
        _reject_index(b)
    q = tuple(p)
    src = _degree(b, q)
    tgt = _pattern(b, src.pattern - {j}) if q[j] == -1 else src
    matrix = _restriction(i - 2, src, tgt)
    return MultMap(
        source_dimension=src.dims.get(i - 2, 0),
        target_dimension=len(matrix),
        matrix=matrix,
    )


# ---------------------------------------------------------------------------
# The Cech oracle


def _cech_strand(b: SquarefreeMonomialIdeal, pattern: frozenset[int]) -> dict:
    """Cohomology dimensions of the fine strand of the Cech complex on the
    generators, for the sign pattern of negative coordinates.

    Generators, subsets of generators and the pattern are bitmasks.  A
    subset's support is the support of the subset without its lowest
    generator, joined with that generator's, and the subset is alive when
    its support covers the pattern; a superset of an alive subset is alive,
    so every coboundary lands on alive subsets."""
    gens = [sum(1 << v for v in g) for g in b.generators]
    need = sum(1 << v for v in pattern)
    s = len(gens)
    alive: list[list[int]] = [[] for _ in range(s + 1)]
    union = [0]
    for key in range(1 << s):
        if key:
            low = key & -key
            union.append(union[key ^ low] | gens[low.bit_length() - 1])
        if not need & ~union[key]:
            alive[key.bit_count()].append(key)
    bits = [1 << j for j in range(s)]
    ranks = [0] * (s + 1)  # ranks[t]: rank of the map C^t -> C^(t+1)
    for t in range(s):
        src = alive[t]
        tgt = alive[t + 1]
        if not src or not tgt:
            continue
        tgt_index = {key: idx for idx, key in enumerate(tgt)}
        rows = []
        for key in src:
            row = [0] * len(tgt)
            for bit in bits:
                if not key & bit:
                    # the sign counts the members of key below the new one
                    row[tgt_index[key | bit]] = -1 if (key & (bit - 1)).bit_count() & 1 else 1
            rows.append(row)
        ranks[t] = int_rank(rows)
    return {t: len(alive[t]) - ranks[t] - (ranks[t - 1] if t else 0) for t in range(s + 1)}


def cech_piece(b: SquarefreeMonomialIdeal, i: int, p: Sequence[int]) -> int:
    """Dimension of the degree-p strand of local cohomology computed from the
    Cech complex on the generators; independent of the simplicial route and
    must agree with it everywhere.  The strand is kept in the pattern's
    record but computed here, on first use, from the generators alone."""
    last = _last
    if last[0] is b and (last[1] is p or type(p) is tuple and last[1] == p) and i >= 0:
        record = last[2]
    else:
        if i < 0:
            _reject_index(b)
        record = _degree(b, tuple(p))
    strand = record.strand
    if strand is None:
        strand = record.strand = _cech_strand(b, record.pattern)
    return strand.get(i, 0)


# ---------------------------------------------------------------------------
# Graph shortcuts for the second cohomology


def h2_via_graph(fan: Fan, p: Sequence[int]) -> int:
    """Components of the induced ray graph on the negative coordinates,
    minus one; agrees with the full second local cohomology computation."""
    if len(p) != fan.num_rays:
        raise ValueError(f"degree has length {len(p)}, expected {fan.num_rays}")
    sub = graph_gamma(fan).induced(negative(p))
    if not sub.vertices:
        return 0
    return len(sub.connected_components()) - 1
