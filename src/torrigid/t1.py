"""First-order deformations of affine toric varieties and hypersurfaces.

The tangent space of an affine toric variety splits into a derivation part,
valued in second local cohomology of the total coordinate ring, and a part
indexed by the cokernel of the Euler derivations, valued in third local
cohomology.  Both split by characters u in M into kernels of block systems
of multiplication maps, and the system of u depends on u only through the
sign chamber of p(u) = (<u, v_k>)_k.  So both parts are counted chamber by
chamber: each kernel is ranked once per sign signature, and only a chamber
with a nonzero kernel has its characters counted.

Near the orbit of a proper face tau, the variety is the one of tau, taken in
the lattice its rays span, times a torus, so T^1 is finite exactly when every
proper face is rigid.  That is decided first, face by face from the lowest
dimension (``_non_rigid_face``).  A non-rigid face makes T^1 ``infinite``;
otherwise no unbounded chamber with a nonzero kernel holds a character, and
the bounded chambers give the exact, ``guaranteed`` dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import add
from typing import Sequence

from .lattice import (
    AffineSystem,
    UnboundedPolyhedronError,
    Vec,
    _saturated_span,
    hilbert_basis,
    int_det,
    int_rank,
    lattice_points,
    rref,
)
from .localcoh import _degree, _restriction
from .rigidity import (
    Hypothesis,
    RigidityCertificate,
    Verdict,
    der_vanishing_gamma,
)
from .toric import (
    Cone,
    CoxData,
    Fan,
    _facet_record,
    _is_hull_face_fan,
    _is_vertex,
    affine_cone,
    class_group,
    faces,
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


@dataclass(frozen=True)
class DegreeContribution:
    fine_degree: Vec
    dimension: int


@dataclass(frozen=True)
class QPresentation:
    """Presentation of the Euler-derivation cokernel: the map sending the
    j-th generator to (a_1j x_j, ..., a_rj x_j)."""

    free_rank: int
    num_vars: int
    grading_matrix: tuple[Vec, ...]
    column_degrees: tuple[Vec, ...]

    def entry(self, i: int, j: int) -> str:
        a = self.grading_matrix[i][j]
        if a == 0:
            return "0"
        if a == 1:
            return f"x{j + 1}"
        if a == -1:
            return f"-x{j + 1}"
        return f"{a}*x{j + 1}"


def q_presentation(cox: CoxData) -> QPresentation:
    return QPresentation(
        free_rank=cox.free_rank,
        num_vars=cox.num_rays,
        grading_matrix=cox.grading_matrix,
        column_degrees=tuple(cox.column_degree(j) for j in range(cox.num_rays)),
    )


@dataclass(frozen=True)
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


def _fine_degree(rays: Sequence[Vec], u: Sequence[int]) -> Vec:
    return tuple(sum(a * b for a, b in zip(u, v)) for v in rays)


def _units(m: int) -> list[Vec]:
    return [tuple(int(k == j) for k in range(m)) for j in range(m)]


def _translate(p: Vec, shift: Vec) -> Vec:
    return tuple(map(add, p, shift))


def _record(b, p: Vec, records: dict):
    """The sign-pattern record of degree p, kept in ``records`` by degree:
    the chambers of one walk share many degrees, and ``_degree`` remembers
    only the last one."""
    found = records.get(p)
    if found is None:
        found = records[p] = _degree(b, p)
    return found


def _kernel_dim(
    b, i: int, key: Vec, source_shifts, target_shifts, coef, kernels: dict, records: dict
) -> int:
    """Kernel dimension of the block matrix whose block (t, s) is coef[t][s]
    times multiplication from the degree key + source_shifts[s] piece of
    H^i_B to the degree key + target_shifts[t] piece; the block is zero where
    coef[t][s] is 0.  The target degrees are formed only when some source
    piece is nonzero.

    A multiplication map depends on its two degrees only through their sign
    patterns, so for fixed coefficients the kernel depends only on the sign
    signature of the degrees: it is ranked once per signature and kept in
    ``kernels``, keyed by the sign-pattern records of the degrees (one record
    per pattern).  The records themselves are looked up through ``records``
    (``_record``).  The caller owns both dicts and drops them with the
    computation."""
    src = tuple(_record(b, _translate(key, d), records) for d in source_shifts)
    dims = [s.dims.get(i - 2, 0) for s in src]
    if not any(dims):
        return 0
    tgt = tuple(_record(b, _translate(key, d), records) for d in target_shifts)
    if (src, tgt) not in kernels:
        rows: list[list[Fraction]] = []
        for t, record in enumerate(tgt):
            tdim = record.dims.get(i - 2, 0)
            if not tdim:
                continue
            blocks = [
                [[coef[t][s] * x for x in row]
                 for row in _restriction(b, i - 2, src[s].pattern, record.pattern)]
                if coef[t][s] and dims[s]
                else [[0] * dims[s]] * tdim
                for s in range(len(src))
            ]
            rows.extend([x for blk in blocks for x in blk[rr]] for rr in range(tdim))
        kernels[src, tgt] = sum(dims) - len(rref(rows)[1])
    return kernels[src, tgt]


def _intervals(shifts: Sequence[int]) -> list[tuple[int, int | None, int | None]]:
    """The intervals (key, lo, hi) of x, None an open end and key a point of
    the interval, on which the sign of x + s is constant for s = 0 and every
    shift: x >= 0, [-s_(i+1), -s_i - 1] and x <= -s_r - 1, where s_0 = 0 and
    0 < s_1 < ... < s_r are the distinct positive shifts."""
    ends = [0, *sorted({s for s in shifts if s > 0})]
    return [(0, 0, None), *((-a - 1, -b, -a - 1) for a, b in zip(ends, ends[1:])),
            (-ends[-1] - 1, None, -ends[-1] - 1)]


def _chamber_characters(
    rays: Sequence[Vec], shifts: Sequence[Sequence[int]], kernel
) -> tuple[int, list[tuple[Vec, int]]]:
    """The sum of the kernels of all characters u, and the pairs (u, kernel)
    with a nonzero kernel in lexicographic order.

    A chamber is a product over k of ``_intervals`` of the shifts added to
    x_k = <u, v_k>.  ``kernel`` gets the key of each chamber, and only a
    chamber with a nonzero kernel has its characters counted.  Unbounded
    chambers are skipped: the callers have found every proper face rigid, so
    T^1 is finite, while an unbounded chamber that held one character would
    hold infinitely many, all with its kernel."""
    n = len(rays[0])
    found: list[tuple[Vec, int]] = []
    for chamber in itertools.product(*map(_intervals, shifts)):
        ker = kernel(tuple(key for key, _, _ in chamber))
        if not ker:
            continue
        rows = [(v, lo) for v, (_, lo, _) in zip(rays, chamber) if lo is not None]
        rows += [(tuple(-c for c in v), -hi) for v, (_, _, hi) in zip(rays, chamber) if hi is not None]
        try:
            found += [(u, ker) for u in lattice_points(AffineSystem(n, inequalities=tuple(rows)))]
        except UnboundedPolyhedronError:
            continue
    return sum(ker for _, ker in found), sorted(found)


def _non_rigid_face(cone: Cone) -> tuple[frozenset[int], int] | None:
    """The first proper face of the cone, by dimension, whose affine toric
    variety has T^1 != 0, with that T^1; None when every proper face is rigid.

    Near the orbit of a face tau the variety is U_tau' x (C^*)^(n - dim tau),
    where tau' is tau in a lattice basis of its saturated span, so T^1 is
    finite exactly when every proper face is rigid.  Smooth faces are rigid
    and skipped; each other face is computed by ``t1_affine`` as tau'.  Every
    face below the one returned was found rigid, so its T^1 is finite."""
    fan = cone.fan
    singular = [f for f in faces(cone) if f != cone.indices and not is_smooth(fan.cone(f))]
    for face in sorted(singular, key=lambda f: fan.cone(f).dim):
        _, coordinates = _saturated_span([fan.rays[i] for i in sorted(face)])
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
    p + e_j, so it is fixed by the sign chamber of p for the shift 1 in
    every coordinate.  A cone with a non-rigid proper face is refused: its
    T^1 is infinite, and this part is not known to be.

    No three-dimensional cone shows which target p + e_j goes with a_ij:
    there H^3_B is a line at all-negative p and zero elsewhere, so the
    kernel is cut out by sum_i a_ij h_i = 0 for p_j <= -2, of dimension
    |N| - rank(v_k : k in N) for N = {k : p_k = -1} by Gale duality, and no
    three rays are coplanar.  The cone over a square pyramid shows it.
    """
    _require_full_dim(cone)
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
    units = _units(m)
    kernels: dict = {}
    records: dict = {}

    def kernel(key: Vec) -> int:
        # most chambers have no third cohomology: skip them
        if not _record(b, key, records).dims.get(3 - 2):
            return 0
        return _kernel_dim(b, 3, key, [(0,) * m] * r, units, coef, kernels, records)

    total, found = _chamber_characters(rays, [[1]] * m, kernel)
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
    system of u is fixed by the sign chamber of p(u) for the shifts e_j and
    beta = p(w) in each coordinate, so the dimension is the sum over
    chambers of the kernel times the number of characters.

    A non-rigid proper face makes T^1 infinite.  On a simplicial cone this
    part is all of T^1, so it is infinite too and has no dimension; on any
    other cone it is refused."""
    _require_full_dim(cone)
    if is_smooth(cone):
        # the smooth subfan is the whole cone: its irrelevant ideal is the
        # unit ideal and there is no second local cohomology
        return 0, Completeness.GUARANTEED
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
    units = _units(m)
    kernels: dict = {}
    records: dict = {}

    def kernel(key: Vec) -> int:
        return _kernel_dim(b, 2, key, units, exponents, exponents, kernels, records)

    shifts = [[1, *(beta[k] for beta in exponents)] for k in range(m)]
    return _chamber_characters(rays, shifts, kernel)[0], Completeness.GUARANTEED


def der_part_sufficient(cone: Cone, search_bound: int = 8) -> RigidityCertificate:
    """Sufficient vanishing of the derivation part: the Q-Gorenstein
    criterion when available, otherwise the connectivity test."""
    codim = singular_codim(cone)
    if codim >= 3 and q_gorenstein(cone) is not None:
        return RigidityCertificate(
            criterion="qgorenstein_der",
            verdict=Verdict.DER_PART_VANISHES,
            hypotheses=(
                Hypothesis("q_gorenstein", "satisfied", "interpolating covector exists"),
                Hypothesis(
                    "smooth_in_codim_2", "satisfied", f"singular codimension {codim}"
                ),
            ),
            reason="all ray generators lie on one hyperplane",
        )
    return der_vanishing_gamma(cone, search_bound=search_bound)


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

    if codim >= 3 and der_part_sufficient(cone).verdict is Verdict.DER_PART_VANISHES:
        der_dim = 0
    else:
        der_dim, _ = der_part_exact(cone)

    if simplicial:
        assert class_group(cone.fan).free_rank == 0
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


@dataclass(frozen=True)
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
    assert report.total == m - 3, "polygon formula disagrees with the affine computation"
    return PolygonReport(
        dimension=m - 3,
        vertex_count=m,
        minor_condition=minor_ok,
        cross_check_total=report.total,
    )


# ---------------------------------------------------------------------------
# Anticanonical hypersurfaces


@dataclass(frozen=True)
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
            if len(e) != width or any(x < 0 for x in e):
                raise ValueError(f"bad exponent {e}")

    @property
    def num_vars(self) -> int:
        return len(self.terms[0][1])


def cox_polynomial(fan: Fan, terms) -> CoxPolynomial:
    """Build a polynomial and check all terms share one class degree."""
    poly = CoxPolynomial(
        tuple((c if isinstance(c, Fraction) else Fraction(c), tuple(e)) for c, e in terms)
    )
    if poly.num_vars != fan.num_rays:
        raise ValueError(
            f"exponents have length {poly.num_vars}, fan has {fan.num_rays} rays"
        )
    cox = class_group(fan)
    ref = poly.terms[0][1]
    degree = cox.class_of(ref)
    for _, e in poly.terms[1:]:
        if cox.class_of(e) != degree:
            raise ValueError(f"terms {ref} and {e} have different class degrees")
    return poly


@dataclass(frozen=True)
class CyReport:
    dimension: int | None
    hypotheses: tuple[Hypothesis, ...]
    monomial_count: int | None = None
    jacobian_rank: int | None = None

    @property
    def hypotheses_ok(self) -> bool:
        return all(h.status == "satisfied" for h in self.hypotheses)


def cy_t1(fan: Fan, poly: CoxPolynomial) -> CyReport:
    """Tangent dimension of an anticanonical hypersurface: the anticanonical
    graded piece of the quotient by the partial derivatives.

    The ambient fan must be simplicial, complete, Fano and Gorenstein, of
    dimension at least four, with singular locus of codimension at least
    four (the computable stand-in for the hypersurface meeting the singular
    locus in codimension three); the polynomial must have anticanonical
    degree.  Hypothesis failures produce a report without a dimension.
    The monomial enumerations are finite because the fan is complete, so no
    search window is involved.  The rank of the Jacobian system is exact:
    the coefficients are cleared of denominators and the integer rows are
    ranked by ``int_rank``.
    """
    cox = class_group(fan)
    m, n = cox.num_rays, cox.ambient_rank
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
            if all(is_simplicial(fan.cone(c)) for c in fan.max_cones)
            else "failed",
            "",
        ),
        Hypothesis(
            "fano", "satisfied" if complete and _is_hull_face_fan(fan) else "failed", ""
        ),
    ]
    if complete:
        gor = all(gorenstein(fan.cone(c)) for c in fan.max_cones)
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
    if poly.num_vars != m:
        raise ValueError("polynomial does not match the fan")
    anticanonical = cox.class_of((1,) * m)
    bad_exp = next((e for _, e in poly.terms if cox.class_of(e) != anticanonical), None)
    hyps.append(
        Hypothesis(
            "degree_anticanonical",
            "satisfied" if bad_exp is None else "failed",
            "" if bad_exp is None else f"offending exponent {bad_exp}",
        )
    )
    if any(h.status != "satisfied" for h in hyps):
        return CyReport(dimension=None, hypotheses=tuple(hyps))

    rays = fan.rays
    target_system = AffineSystem(
        num_vars=n, inequalities=tuple((v, -1) for v in rays)
    )
    monomials = sorted(
        tuple(1 + sum(a * bb for a, bb in zip(u, v)) for v in rays)
        for u in lattice_points(target_system)
    )
    index = {e: k for k, e in enumerate(monomials)}

    # a nonzero multiple of f has the same Jacobian ideal
    scale = lcm(*(c.denominator for c, _ in poly.terms))
    terms = [(c.numerator * (scale // c.denominator), e) for c, e in poly.terms]
    rows = []
    for k in range(m):
        # the terms of the partial derivative by x_k, as (c * e_k, e - e_k)
        derivative = [(c * e[k], tuple(x - (j == k) for j, x in enumerate(e))) for c, e in terms if e[k]]
        if not derivative:
            continue
        mult_system = AffineSystem(
            num_vars=n,
            inequalities=tuple(
                (v, -1 if j == k else 0) for j, v in enumerate(rays)
            ),
        )
        for u in lattice_points(mult_system):
            gamma = tuple(
                (1 if j == k else 0) + sum(a * bb for a, bb in zip(u, v))
                for j, v in enumerate(rays)
            )
            row = [0] * len(monomials)
            for c, e in derivative:
                row[index[tuple(map(add, gamma, e))]] += c
            rows.append(row)
    rank = int_rank(rows)
    return CyReport(
        dimension=len(monomials) - rank,
        hypotheses=tuple(hyps),
        monomial_count=len(monomials),
        jacobian_rank=rank,
    )
