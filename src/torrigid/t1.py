"""First-order deformations of affine toric varieties and hypersurfaces.

The tangent space of an affine toric variety splits into a derivation part,
valued in second local cohomology of the total coordinate ring, and a part
indexed by the cokernel of the Euler derivations, valued in third local
cohomology.  Both split by characters u in M into kernels of block systems
of multiplication maps, and the system of u depends on u only through the
sign chamber of p(u) = (<u, v_k>)_k.  So both parts are counted chamber by
chamber: each kernel is ranked once per sign signature, and only a chamber
with a nonzero kernel has its characters counted.  A kernel is zero when
every source piece of its system is, and a source's sign pattern is read
off the chamber's, so only the chambers whose pattern can carry a source
are walked: H^3_B nonzero at p for the third-cohomology part, H^2_B
nonzero at p or at some p + e_j for the derivation part.

Near the orbit of a proper face tau, the variety is the one of tau, taken in
the lattice its rays span, times a torus, so T^1 is finite exactly when every
proper face is rigid.  That is decided first, face by face from the lowest
dimension (``_non_rigid_face``).  A non-rigid face makes T^1 ``infinite``;
otherwise no unbounded chamber with a nonzero kernel holds a character, and
the bounded chambers give the exact, ``guaranteed`` dimension.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import itemgetter, mul, sub
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from ._record import frozen
from .lattice import (
    AffineSystem,
    UnboundedPolyhedronError,
    Vec,
    _gauss_jordan,
    _saturated_span,
    hilbert_basis,
    int_det,
    int_rank,
    lattice_points,
    rref,
)
from .localcoh import _all_records, _restriction
from .rigidity import (
    Hypothesis,
    Verdict,
    der_vanishing_gamma,
)
from .toric import (
    Cone,
    Fan,
    _facet_record,
    _is_hull_face_fan,
    _is_vertex,
    _singular_faces,
    affine_cone,
    class_group,
    gorenstein,
    irrelevant_ideal,
    is_complete,
    is_simplicial,
    is_smooth,
    q_gorenstein,
    singular_codim,
    smooth_subfan,
)


class UnsupportedModeError(ValueError):
    """The input lies outside the territory where a formula is available."""


class Completeness(Enum):
    """A dimension is exact or infinite."""

    GUARANTEED = "guaranteed"
    INFINITE = "infinite"


@frozen
class DegreeContribution:
    fine_degree: Vec
    dimension: int


@frozen
class T1Report:
    """Both parts of T^1 when it is finite; otherwise (mode ``non_rigid_face``)
    no part, and the first non-rigid proper face with its T^1."""

    mode: str  # simplicial | codim_ge_3 | non_rigid_face
    der_dimension: int | None = None
    homq_dimension: int | None = None
    contributions: tuple[DegreeContribution, ...] = ()
    hypotheses: tuple[Hypothesis, ...] = ()
    witness_face: tuple[frozenset[int], int] | None = None

    @property
    def total(self) -> int | None:
        if self.witness_face is not None:
            return None
        return self.der_dimension + self.homq_dimension

    @property
    def completeness(self) -> Completeness:
        return Completeness.GUARANTEED if self.witness_face is None else Completeness.INFINITE


def _require_full_dim(cone: Cone) -> None:
    n = cone.fan.ambient_rank
    if cone.dim != n:
        raise ValueError("cone must be full-dimensional")


def _require_own_rays(cone: Cone) -> None:
    # the irrelevant ideal and the class group have one variable per ray of
    # the fan, the degrees p(u) one coordinate per ray of the cone
    if len(cone.indices) != cone.fan.num_rays:
        raise ValueError("cone must use every ray of its fan")


def _fine_degree(rays: Sequence[Vec], u: Sequence[int]) -> Vec:
    return tuple(sum(a * b for a, b in zip(u, v)) for v in rays)


def _units(m: int) -> list[Vec]:
    return [tuple(int(k == j) for k in range(m)) for j in range(m)]


def _scaled(c: int, matrix) -> list[list]:
    """c times a matrix of ``Fraction``s, in ``int``s when it is integral."""
    if all(x.denominator == 1 for row in matrix for x in row):
        return [[c * x.numerator for x in row] for row in matrix]
    return [[c * x for x in row] for row in matrix]


def _kernels(i: int, records, coef):
    """The kernel of a chamber by its sign signature, for one computation:
    the kernel dimension of the block matrix whose block (t, s) is
    coef[t][s] times multiplication from the piece of H^i_B at source
    degree s to the piece at target degree t; the block is zero where
    coef[t][s] is 0.

    A multiplication map depends on its two degrees only through their sign
    patterns, so for fixed coefficients the kernel depends only on the sign
    signature of the chamber (``_chamber_characters``), one int: with m
    coordinates and the degrees numbered sources first, the m bits from
    t*m up are the sign pattern of degree t.  There are len(coef[0])
    sources and len(coef) targets, and m is read off ``records``, the
    records of all 2^m patterns (``localcoh._all_records``).  Each
    signature is ranked once, the targets only once some source piece is
    nonzero.  The ranks live as long as the returned function."""
    m = len(records).bit_length() - 1
    sources = len(coef[0])
    full = (1 << m) - 1
    kernels: dict = {}

    def rank(signature: int) -> int:
        src = [records[signature >> (s * m) & full] for s in range(sources)]
        dims = [s.dims.get(i - 2, 0) for s in src]
        if not any(dims):
            return 0
        rows: list[list] = []
        for t in range(len(coef)):
            record = records[signature >> ((sources + t) * m) & full]
            tdim = record.dims.get(i - 2, 0)
            if not tdim:
                continue
            blocks = [
                _scaled(coef[t][s], _restriction(i - 2, src[s], record))
                if coef[t][s] and dims[s]
                else [[0] * dims[s]] * tdim
                for s in range(sources)
            ]
            rows.extend([x for blk in blocks for x in blk[rr]] for rr in range(tdim))
        return sum(dims) - len(rref(rows)[1])

    def kernel(signature: int) -> int:
        found = kernels.get(signature)
        if found is None:
            found = kernels[signature] = rank(signature)
        return found

    return kernel


def _intervals(shifts: Sequence[int]) -> list[tuple[int, int | None, int | None]]:
    """The intervals (key, lo, hi) of x, None an open end and key a point of
    the interval, on which the sign of x + s is constant for s = 0 and every
    shift: x >= 0, [-s_(i+1), -s_i - 1] and x <= -s_r - 1, where s_0 = 0 and
    0 < s_1 < ... < s_r are the distinct positive shifts."""
    ends = [0, *sorted({s for s in shifts if s > 0})]
    return [(0, 0, None), *((-a - 1, -b, -a - 1) for a, b in zip(ends, ends[1:])),
            (-ends[-1] - 1, None, -ends[-1] - 1)]


def _chamber_characters(
    rays: Sequence[Vec], degrees: Sequence[Vec], patterns, kernel, gale: bool = False
) -> tuple[int, list[tuple[Vec, int]]]:
    """The sum of the kernels of all characters u, and the pairs (u, kernel)
    with a nonzero kernel in lexicographic order.

    A chamber is a product over k of ``_intervals`` of the k-th coordinates
    of the degree shifts d_t added to x_k = <u, v_k>; its negative intervals
    are its sign pattern.  Only the chambers whose pattern is one of
    ``patterns``, the caller's list of the patterns that can carry a nonzero
    kernel, are walked.  ``kernel`` gets the sign signature of each, and
    only a chamber with a nonzero kernel has its characters counted.  With
    m coordinates, bit t*m + k of the signature is set when x_k + d_t[k] <=
    -1, a sign that is constant on each interval, so each interval carries
    its bits and a chamber's signature is the OR of its intervals'.  Each
    interval carries its rows too, a one-point interval an equality and the
    others their inequalities, so a chamber's system is their
    concatenation.  Unbounded
    chambers are skipped: the callers have found every proper face rigid,
    so T^1 is finite, while an unbounded chamber that held one character
    would hold infinitely many, all with its kernel.

    A chamber whose one-point intervals pin x_k = c_k, k in E, with |E| >= n
    (or any chamber with ``gale``) is decided by one ``_gauss_jordan`` of
    its equality rows [v_k | c_k]: the pivots among the first n columns
    give rank(V_E), and a pivot in column n means the equalities have no
    rational solution.  At rank n their one solution, if any, is u with
    u_c = a_r[n] / a_r[c] for the pivot row a_r of column c: the chamber
    is skipped unranked when there is no solution, u is not integral or
    p(u) leaves an interval, and otherwise ranked with no
    ``lattice_points``.  With ``gale`` the
    kernel lies in K_E (x) H, where dim K_E = |E| - rank(V_E)
    (``hom_q_h3``), so a chamber whose pinned rays are independent is
    skipped unranked."""
    n, m = len(rays[0]), len(rays)
    # the intervals of coordinate k as (signature bits, lo, hi, equalities,
    # inequalities)
    intervals = []
    for k, v in enumerate(rays):
        below = tuple(-c for c in v)
        shifts = [d[k] for d in degrees]
        ivs = []
        for key, lo, hi in _intervals(shifts):
            bits = sum(1 << (t * m + k) for t, s in enumerate(shifts) if key + s <= -1)
            if lo == hi:
                ivs.append((bits, lo, hi, ((v, lo),), ()))
            else:
                rows = () if lo is None else ((v, lo),)
                ivs.append((bits, lo, hi, (), rows if hi is None else (*rows, (below, -hi))))
        intervals.append(ivs)

    concat = itertools.chain.from_iterable
    found: list[tuple[Vec, int]] = []
    for pattern in patterns:
        # the first interval is x_k >= 0, the others negative
        choices = [ivs[1:] if k in pattern else ivs[:1] for k, ivs in enumerate(intervals)]
        for chamber in itertools.product(*choices):
            eqs = tuple(concat([iv[3] for iv in chamber]))
            points = None
            if gale or len(eqs) >= n:
                a = [[*v, c] for v, c in eqs]
                pivots = _gauss_jordan(a)
                rank = len(pivots) - (n in pivots)
                if gale and rank == len(eqs):
                    continue
                if rank == n:
                    # the one character that the pinned coordinates allow
                    if n in pivots or any(r[n] % r[c] for c, r in zip(pivots, a)):
                        continue
                    u = tuple([r[n] // r[c] for c, r in zip(pivots, a)])
                    if any(
                        (lo is not None and x < lo) or (hi is not None and x > hi)
                        for x, (_, lo, hi, *_) in zip(_fine_degree(rays, u), chamber)
                    ):
                        continue
                    points = [u]
            # the intervals' bits are disjoint, so their sum is their OR
            ker = kernel(sum([iv[0] for iv in chamber]))
            if not ker:
                continue
            if points is None:
                rows = tuple(concat([iv[4] for iv in chamber]))
                try:
                    points = lattice_points(AffineSystem(n, eqs, rows))
                except UnboundedPolyhedronError:
                    continue
            found += [(u, ker) for u in points]
    return sum(ker for _, ker in found), sorted(found)


@lru_cache(maxsize=1)
def _non_rigid_face(cone: Cone) -> tuple[frozenset[int], int] | None:
    """The first proper face of the cone, by dimension, whose affine toric
    variety has T^1 != 0, with that T^1; None when every proper face is rigid.

    Near the orbit of a face tau the variety is U_tau' x (C^*)^(n - dim tau),
    where tau' is tau in a lattice basis of its saturated span, so T^1 is
    finite exactly when every proper face is rigid.  Smooth faces are rigid
    and skipped; each other face is computed by ``t1_affine`` as tau', by
    dimension and then in ``faces`` order.  Every face below the one
    returned was found rigid, so its T^1 is finite.  ``t1_affine`` and the
    parts it calls ask in turn for the same cone, so the answer for the
    last cone is cached."""
    rays = cone.fan.rays
    singular = [s for s in _singular_faces(cone) if s[0] != cone.indices]
    for face, _ in sorted(singular, key=itemgetter(1)):
        _, coordinates = _saturated_span([rays[i] for i in sorted(face)])
        total = t1_affine(affine_cone(coordinates)).total
        if total:
            return face, total
    return None


def _infinite_message(witness: tuple[frozenset[int], int]) -> str:
    face, total = witness
    rays = [i + 1 for i in sorted(face)]
    return f"T^1 is infinite: the face on rays {rays} has T^1 of dimension {total}"


# ---------------------------------------------------------------------------
# The part valued in third local cohomology


def hom_q_h3(cone: Cone) -> tuple[int, tuple[DegreeContribution, ...]]:
    """Dimension of the degree-zero maps from the Euler cokernel into third
    local cohomology, summed over contributing fine degrees.

    The system of a character u maps the pieces at p = p(u) to those at
    p + e_j, so it is fixed by the sign chamber of p for its degree shifts,
    the sources 0 (one per Euler component) and then the targets e_j.  A
    cone with a non-rigid proper face is refused: its T^1 is infinite, and
    this part is not known to be.

    A target with p_j != -1 has the sign pattern N of p, so its blocks are
    the a_ij times the identity of H^3_B at N, and the kernel lies in
    K_E (x) H^3_B at N, K_E the c with sum_i c_i a_ij = 0 for j not in
    E = {k : p_k = -1}.  By Gale duality dim K_E = |E| - rank(v_k : k in E)
    in any rank, so a chamber with independent rays at E is not ranked.
    No three-dimensional cone shows which target p + e_j goes with a_ij:
    there H^3_B is a line at all-negative p and zero elsewhere, so the
    kernel is all of K_E, and no three rays are coplanar.  The cone over a
    square pyramid shows it.

    A cone that leaves out a ray of its fan is refused (ValueError), as in
    ``der_part_exact``.
    """
    _require_full_dim(cone)
    _require_own_rays(cone)
    witness = _non_rigid_face(cone)
    if witness is not None:
        raise UnsupportedModeError(_infinite_message(witness))
    if singular_codim(cone) < 3:
        raise UnsupportedModeError("requires a singular locus of codimension >= 3")
    cox = class_group(cone.fan)
    r = cox.free_rank
    if r == 0:
        return 0, ()
    m = len(cone.indices)
    b = irrelevant_ideal(smooth_subfan(cone))
    rays = cone.ray_vectors

    # coef[j][i] = a_ij: the i-th Euler component maps to x_j with weight a_ij
    coef = list(zip(*cox.grading_matrix))
    every = _all_records(b)
    kernel = _kernels(3, every, coef)

    # the sources are the pieces at p itself: most patterns have none
    patterns = [s.pattern for s in every if s.dims.get(3 - 2)]
    degrees = [(0,) * m] * r + _units(m)
    total, found = _chamber_characters(rays, degrees, patterns, kernel, gale=True)
    return total, tuple(DegreeContribution(_fine_degree(rays, u), k) for u, k in found)


# ---------------------------------------------------------------------------
# The derivation part


def dual_cone_generators(cone: Cone) -> list[Vec]:
    """Extreme rays of the dual cone: the primitive inward facet normals."""
    _require_full_dim(cone)
    return sorted(_facet_record(cone.fan.rays, cone.indices).normals)


def der_part_exact(cone: Cone) -> tuple[int | None, Completeness]:
    """Degree-zero derivations into second local cohomology, computed as the
    kernel of the linearity conditions on the dual-monoid generators.

    The space splits by characters u in M, the graded pieces T^1(-R) of
    Altmann (JPAA 119, 1997).  The unknowns of degree u are the components
    of the images of the variables x_j in the fine degrees e_j + p(u), where
    p(u) = (<u, v_j>)_j; a Hilbert-basis element w of the dual cone imposes
    conditions that land in p(u + w).  Every condition of w landing in a
    fine degree t involves only unknowns with p(u) = t - p(w), and p is
    injective because the rays span, so the system is block-diagonal by u:
    one small system per character, whose kernel dimensions add up.  The
    system of u is fixed by the sign chamber of p(u) for its degree shifts,
    the sources e_j and then the targets beta = p(w), so the dimension is
    the sum over chambers of the kernel times the number of characters.

    A non-rigid proper face makes T^1 infinite.  On a simplicial cone this
    part is all of T^1, so it is infinite too and has no dimension; on any
    other cone it is refused.  So is a singular cone that leaves out a ray
    of its fan (ValueError): the fan's irrelevant ideal would have a
    variable that no coordinate of p(u) matches."""
    _require_full_dim(cone)
    if is_smooth(cone):
        # the smooth subfan is the whole cone: its irrelevant ideal is the
        # unit ideal and there is no second local cohomology
        return 0, Completeness.GUARANTEED
    _require_own_rays(cone)
    witness = _non_rigid_face(cone)
    if witness is not None:
        if is_simplicial(cone):
            return None, Completeness.INFINITE
        raise UnsupportedModeError(_infinite_message(witness))
    m = len(cone.indices)
    rays = cone.ray_vectors
    b = irrelevant_ideal(smooth_subfan(cone))

    hilbert = hilbert_basis(dual_cone_generators(cone))
    exponents = [_fine_degree(rays, w) for w in hilbert]
    for beta in exponents:
        assert all(x >= 0 for x in beta)

    # block (t, j): x_j's image in p(u) + e_j, times x^(beta_t - e_j), times beta_t[j]
    every = _all_records(b)
    kernel = _kernels(2, every, exponents)

    # the source p + e_j has the pattern N of p, or N - {j} when p_j = -1
    h2 = {s.pattern for s in every if s.dims.get(2 - 2)}
    patterns = [s.pattern for s in every if s.pattern in h2 or any(s.pattern - {j} in h2 for j in s.pattern)]
    return _chamber_characters(rays, _units(m) + exponents, patterns, kernel)[0], Completeness.GUARANTEED


def _der_part_vanishes(cone: Cone) -> bool:
    """Sufficient vanishing of the derivation part of a cone smooth in
    codimension 2: the Q-Gorenstein criterion, otherwise the connectivity
    test."""
    return (
        q_gorenstein(cone) is not None
        or der_vanishing_gamma(cone).verdict is Verdict.DER_PART_VANISHES
    )


# ---------------------------------------------------------------------------
# Assembly


def t1_affine(cone: Cone, bound: int | None = None) -> T1Report:
    """Tangent-space dimension of the affine toric variety of a cone.

    A cone with a non-rigid proper face has infinite T^1: the report names
    the first such face (``_non_rigid_face``) and computes no part.
    Otherwise simplicial cones use the derivation part alone, and the other
    cones, which are then smooth in codimension 2, add the third-cohomology
    part, the two contributions being additive.  ``bound`` is ignored; it is
    still accepted because ``perfbench/workloads.py`` passes it.
    """
    _require_full_dim(cone)
    simplicial = is_simplicial(cone)
    codim = singular_codim(cone)
    hyps = [
        Hypothesis(
            "simplicial",
            "satisfied" if simplicial else "failed",
            f"{len(cone.indices)} rays in rank {cone.fan.ambient_rank}",
        ),
        Hypothesis(
            "smooth_in_codim_2",
            "satisfied" if codim >= 3 else "failed",
            f"singular codimension {codim}",
        ),
    ]
    witness = _non_rigid_face(cone)
    if witness is not None:
        return T1Report(mode="non_rigid_face", hypotheses=tuple(hyps), witness_face=witness)

    if codim >= 3 and _der_part_vanishes(cone):
        der_dim = 0
    else:
        der_dim, _ = der_part_exact(cone)

    if simplicial:
        homq_dim, contributions, mode = 0, (), "simplicial"
    else:
        homq_dim, contributions = hom_q_h3(cone)
        mode = "codim_ge_3"
    return T1Report(
        mode=mode,
        der_dimension=der_dim,
        homq_dimension=homq_dim,
        contributions=contributions,
        hypotheses=tuple(hyps),
    )


# ---------------------------------------------------------------------------
# Polygon cones


@frozen
class PolygonReport:
    dimension: int
    vertex_count: int
    minor_condition: bool
    cross_check_total: int


def t1_polygon(vertices: Sequence[Sequence[int]]) -> PolygonReport:
    """Tangent dimension of the cone over a lattice polygon at height one.

    Requires every listed point to be a hull vertex and every edge cone of
    the lifted polygon to be smooth (so the singularity is isolated and
    Gorenstein); then the dimension is the vertex count minus three.  The
    result is cross-checked against the general affine computation and the
    grading matrix is audited for nowhere-vanishing maximal minors.
    """
    pts = [tuple(p) for p in vertices]
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate polygon vertices")
    if any(len(p) != 2 for p in pts):
        raise ValueError("polygon vertices must be two-dimensional")
    if len(pts) < 3:
        raise ValueError("need at least three vertices")
    for i in range(len(pts)):
        if not _is_vertex(pts, i):
            raise ValueError(f"{pts[i]} is not a vertex of the hull")
    m = len(pts)
    cone = affine_cone([(x, y, 1) for x, y in pts])
    if singular_codim(cone) < 3:
        raise UnsupportedModeError(
            "an edge cone is not smooth (an edge is not primitive); "
            "use the general affine computation"
        )
    cox = class_group(cone.fan)
    r = cox.free_rank
    minor_ok = True
    if r:
        for cols in itertools.combinations(range(m), r):
            sub = [[cox.grading_matrix[i][j] for j in cols] for i in range(r)]
            if int_det(sub) == 0:
                minor_ok = False
                break
    report = t1_affine(cone)
    if report.total != m - 3:
        raise RuntimeError("polygon formula disagrees with the affine computation")
    return PolygonReport(
        dimension=m - 3,
        vertex_count=m,
        minor_condition=minor_ok,
        cross_check_total=report.total,
    )


# ---------------------------------------------------------------------------
# Anticanonical hypersurfaces


@frozen
class CoxPolynomial:
    """Polynomial in the total coordinate ring, all terms of one degree."""

    terms: tuple[tuple[Fraction, Vec], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("polynomial must have at least one term")
        width = len(self.terms[0][1])
        for c, e in self.terms:
            if c == 0:
                raise ValueError("zero coefficient")
            if len(e) != width or (e and min(e) < 0):
                raise ValueError(f"bad exponent {e}")

    @property
    def num_vars(self) -> int:
        return len(self.terms[0][1])


def cox_polynomial(fan: Fan, terms) -> CoxPolynomial:
    """Build a polynomial, terms of equal exponents combined, and check all
    terms share one class degree.  Terms that cancel are dropped; a
    polynomial with no term left is zero and defines no hypersurface.  The
    given terms are checked as ``CoxPolynomial`` checks them, in the pass
    that combines them, so only the combined polynomial is built.

    Coefficients are added in their own exact arithmetic (a coefficient that
    is neither ``int`` nor ``Fraction`` is first converted by ``Fraction``),
    and each kept one becomes one ``Fraction``.  A term e has the class
    degree of the first kept term ref exactly when d = e - ref has class 0
    (``CoxData.class_of``): every grading row is 0 on d, and every torsion
    row is 0 on d modulo its invariant factor."""
    combined: dict[Vec, int | Fraction] = {}
    width = None
    for c, e in terms:
        e = tuple(e)
        width = len(e) if width is None else width
        if c == 0:
            raise ValueError("zero coefficient")
        if len(e) != width or (e and min(e) < 0):
            raise ValueError(f"bad exponent {e}")
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        combined[e] = combined.get(e, 0) + c
    if width is None:
        raise ValueError("polynomial must have at least one term")
    if width != fan.num_rays:
        raise ValueError(f"exponents have length {width}, fan has {fan.num_rays} rays")
    kept = tuple((Fraction(c), e) for e, c in combined.items() if c)
    if not kept:
        raise ValueError("polynomial is zero")
    poly = CoxPolynomial(kept)
    cox = class_group(fan)
    # (row, modulus): a grading row must vanish on d, a torsion row modulo
    # its factor
    rows = [(row, 0) for row in cox.grading_matrix]
    rows += zip(cox.torsion_rows, cox.torsion)
    ref = kept[0][1]
    for _, e in kept[1:]:
        d = tuple(map(sub, e, ref))
        for row, f in rows:
            x = sum(map(mul, row, d))
            if x % f if f else x:
                raise ValueError(f"terms {ref} and {e} have different class degrees")
    return poly


@frozen
class CyReport:
    dimension: int | None
    hypotheses: tuple[Hypothesis, ...]
    monomial_count: int | None = None
    jacobian_rank: int | None = None

    @property
    def hypotheses_ok(self) -> bool:
        return all(h.status == "satisfied" for h in self.hypotheses)


class _Anticanonical(NamedTuple):
    """The anticanonical monomials of a fan, and the slots of the Jacobian
    rows of any anticanonical polynomial on it.

    ``members`` is the set of the monomials.  Each monomial d is coded as
    one integer, the sum of d_j * weights[j], and ``index`` sends the codes
    of the sorted monomials to their columns.  ``slots`` holds (code(d), k)
    for each row x^(d - 1 + e_k) * df/dx_k, in the order of the rows.
    """

    members: frozenset[Vec]
    weights: tuple[int, ...]
    index: Mapping[int, int]
    slots: tuple[tuple[int, int], ...]


@lru_cache(maxsize=8)
def _cy_fan(
    rays: tuple[Vec, ...], max_cones: tuple[frozenset[int], ...]
) -> tuple[tuple[Hypothesis, ...], _Anticanonical | None]:
    """The hypotheses of ``cy_t1`` on the fan, and its anticanonical table
    when they all pass (None otherwise).  Keyed by the fan's rays and cones,
    so equal fans of different names share one entry."""
    fan = Fan(rays, max_cones)
    m, n = fan.num_rays, fan.ambient_rank
    complete = is_complete(fan)
    hyps = [
        Hypothesis(
            "dim_at_least_4",
            "satisfied" if n >= 4 else "failed",
            f"ambient rank {n}",
        ),
        Hypothesis(
            "complete", "satisfied" if complete else "failed", ""
        ),
        Hypothesis(
            "simplicial",
            "satisfied"
            if all(is_simplicial(fan.cone(c)) for c in max_cones)
            else "failed",
            "",
        ),
        Hypothesis(
            "fano", "satisfied" if complete and _is_hull_face_fan(fan) else "failed", ""
        ),
    ]
    if complete:
        gor = all(gorenstein(fan.cone(c)) for c in max_cones)
        hyps.append(
            Hypothesis(
                "gorenstein",
                "satisfied" if gor else "failed",
                "anticanonical class is Cartier" if gor else "some cone has index > 1",
            )
        )
        codim = singular_codim(fan)
        hyps.append(
            Hypothesis(
                "singular_codim_ge_4",
                "satisfied" if codim >= 4 else "failed",
                f"singular codimension {codim} (stand-in for the hypersurface cut)",
            )
        )
    if any(h.status != "satisfied" for h in hyps):
        return tuple(hyps), None

    target_system = AffineSystem(
        num_vars=n, inequalities=tuple((v, -1) for v in rays)
    )
    monomials = sorted(
        tuple(1 + sum(map(mul, u, v)) for v in rays) for u in lattice_points(target_system)
    )
    # code(e) = sum_j e_j base^j is injective on the vectors with entries in
    # [0, base), the anticanonical monomials among them, and additive
    base = 1 + max(map(max, monomials))
    weights = tuple(base**j for j in range(m))
    codes = [sum(map(mul, d, weights)) for d in monomials]
    # x^g * df/dx_k has anticanonical degree exactly when g = d - 1 + e_k for
    # a monomial d with d_j >= 1 for every j != k
    slots = []
    for d, code in zip(monomials, codes):
        zeros = [j for j, x in enumerate(d) if not x]
        if len(zeros) <= 1:
            slots.extend((code, k) for k in zeros or range(m))
    table = _Anticanonical(
        members=frozenset(monomials),
        weights=weights,
        index=MappingProxyType({c: k for k, c in enumerate(codes)}),
        slots=tuple(slots),
    )
    return tuple(hyps), table


def cy_t1(fan: Fan, poly: CoxPolynomial) -> CyReport:
    """Tangent dimension of an anticanonical hypersurface: the anticanonical
    graded piece of the quotient by the partial derivatives.

    The ambient fan must be simplicial, complete, Fano and Gorenstein, of
    dimension at least four, with singular locus of codimension at least
    four (the computable stand-in for the hypersurface meeting the singular
    locus in codimension three); the polynomial must have anticanonical
    degree.  Hypothesis failures produce a report without a dimension.
    The fan's hypotheses and its anticanonical monomials come from
    ``_cy_fan``, once per fan; the monomials are finitely many because the
    fan is complete, so no search window is involved.  Its rays span, so an
    exponent e >= 0 has the anticanonical class, torsion included, exactly
    when e - 1 lies in the image of M, that is, when x^e is one of those
    monomials.  The rows of the Jacobian system, the multiples
    x^g * df/dx_k of anticanonical degree, are read off the monomials, each
    coded as one integer in base 1 + its largest entry, so that an entry's
    column is one addition and one dict lookup.  Their rank is exact: the
    coefficients are cleared of denominators and the integer rows are
    ranked by ``int_rank``.
    """
    hyps, table = _cy_fan(fan.rays, fan.max_cones)
    m = fan.num_rays
    if table is None:
        cox = class_group(fan)
        anticanonical = cox.class_of((1,) * m)
    if poly.num_vars != m:
        raise ValueError("polynomial does not match the fan")
    if table is None:
        bad_exp = next((e for _, e in poly.terms if cox.class_of(e) != anticanonical), None)
    else:
        bad_exp = next((e for _, e in poly.terms if e not in table.members), None)
    hyps += (
        Hypothesis(
            "degree_anticanonical",
            "satisfied" if bad_exp is None else "failed",
            "" if bad_exp is None else f"offending exponent {bad_exp}",
        ),
    )
    if table is None or bad_exp is not None:
        return CyReport(dimension=None, hypotheses=hyps)

    # a nonzero multiple of f has the same Jacobian ideal
    scale = lcm(*(c.denominator for c, _ in poly.terms))
    terms = [(c.numerator * (scale // c.denominator), e) for c, e in poly.terms]
    # the term of c * x^e in x^(d - 1 + e_k) * df/dx_k lands at d - 1 + e,
    # whatever k is.  That is an anticanonical monomial, so its code
    # code(d) + code(e) - code(1, ..., 1) is in ``index``
    weights, index = table.weights, table.index
    ones = sum(weights)
    coded = [(c, e, sum(map(mul, e, weights)) - ones) for c, e in terms]
    derivatives = [[(c * e[k], offset) for c, e, offset in coded if e[k]] for k in range(m)]
    count = len(index)
    rows = []
    for code, k in table.slots:
        if derivatives[k]:
            row = [0] * count
            for c, offset in derivatives[k]:
                row[index[code + offset]] += c
            rows.append(row)
    rank = int_rank(rows)
    return CyReport(
        dimension=count - rank,
        hypotheses=hyps,
        monomial_count=count,
        jacobian_rank=rank,
    )
