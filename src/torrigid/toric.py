"""Fans, cones and their combinatorial invariants.

A fan is given by primitive ray generators in an ambient lattice plus its
maximal cones as ray-index sets; this is the only geometric input the whole
package consumes.  Every face predicate (faces, pointedness, extremality,
hull vertices and edges, dual generators, cone membership) is read off one
cached record per cone: its facets, each found as the normal of d - 1 of
its rays (d the rank) that is one-signed on all rays.  The record of a
singular cone also keeps its singular and non-simplicial faces once they
are first asked for, and the codimensions and the smooth subfan are read
off those.  So no floating point convex hull machinery and no
Fourier-Motzkin elimination is involved.  Intended for desk-scale inputs
(up to roughly 16 rays in rank 6).
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import gcd, inf, lcm
from operator import mul
from typing import Sequence

from ._record import frozen
from .ideals import SquarefreeMonomialIdeal, minimalize
from .lattice import (
    Vec,
    _gauss_jordan,
    content,
    int_det,
    int_rank,
    primitive,
    smith_normal_form,
)


class TorusFactorError(ValueError):
    """The rays do not span the ambient space over Q."""


class FanValidationError(ValueError):
    pass


@frozen
class Fan:
    """Primitive rays plus maximal cones as frozensets of 0-based ray indices."""

    rays: tuple[Vec, ...]
    max_cones: tuple[frozenset[int], ...]
    name: str = ""
    warnings: tuple[str, ...] = ()

    @property
    def num_rays(self) -> int:
        return len(self.rays)

    @property
    def ambient_rank(self) -> int:
        return len(self.rays[0])

    def cone(self, indices) -> "Cone":
        return Cone(self, frozenset(indices))


@frozen
class Cone:
    fan: Fan
    indices: frozenset[int]

    @property
    def ray_vectors(self) -> tuple[Vec, ...]:
        return tuple(self.fan.rays[i] for i in sorted(self.indices))

    @property
    def dim(self) -> int:
        return int_rank(self.ray_vectors) if self.indices else 0


def validate_fan(rays, max_cones, name: str = "") -> Fan:
    """Normalize and check a raw fan description.

    Non-primitive rays are normalized with a warning; rays that coincide
    after normalization, non-pointed cones, a listed ray that is not
    extremal in its cone, out-of-range indices and an empty cone list are
    rejected.  A listed cone whose rays all belong to another listed cone
    is dropped with a warning when it is a face of that cone (which leaves
    the irrelevant ideal unchanged) and rejected otherwise.
    """
    if not rays:
        raise FanValidationError("fan needs at least one ray")
    n = len(rays[0])
    warnings: list[str] = []
    prim: list[Vec] = []
    for i, ray in enumerate(rays):
        if len(ray) != n:
            raise FanValidationError(f"ray {i} has length {len(ray)}, expected {n}")
        if not any(ray):
            raise FanValidationError(f"ray {i} is zero")
        p = primitive(ray)
        if p != tuple(ray):
            warnings.append(f"ray {i} = {tuple(ray)} normalized to primitive {p}")
        prim.append(p)
    for (i, a), (j, b) in itertools.combinations(enumerate(prim), 2):
        if a == b:
            raise FanValidationError(f"rays {i} and {j} coincide after normalization")
    if not max_cones:
        raise FanValidationError("fan needs at least one cone")
    key = tuple(prim)
    independent: dict[frozenset[int], bool] = {}  # listed cone -> rays independent
    for cone in max_cones:
        idx = frozenset(cone)
        for i in idx:
            if not 0 <= i < len(prim):
                raise FanValidationError(f"cone {sorted(idx)} has out-of-range ray index {i}")
        gens = [prim[i] for i in sorted(idx)]
        independent[idx] = int_rank(gens) == len(gens)
        if independent[idx]:  # independent rays are pointed and extremal
            continue
        # pointed: the empty set is a face; ray i is extremal: {i} is a face
        cone_faces = _facet_record(key, idx).faces
        if frozenset() not in cone_faces:
            raise FanValidationError(f"cone {sorted(idx)} is not pointed")
        for i in sorted(idx):
            if frozenset([i]) not in cone_faces:
                raise FanValidationError(f"ray {i} is not extremal in cone {sorted(idx)}")
    cones: list[frozenset[int]] = []
    for idx in independent:
        outer = next((o for o in independent if idx < o), None)
        if outer is None:
            cones.append(idx)
        elif independent[outer] or idx in _facet_record(key, outer).faces:
            warnings.append(f"cone {sorted(idx)} is a face of cone {sorted(outer)}; dropped")
        else:
            raise FanValidationError(f"cone {sorted(idx)} lies in cone {sorted(outer)} but is not a face of it")
    return Fan(tuple(prim), tuple(cones), name=name, warnings=tuple(warnings))


def affine_cone(rays, name: str = "") -> Cone:
    """The full cone on the given rays, wrapped in a one-cone fan."""
    fan = validate_fan(rays, [tuple(range(len(rays)))], name=name)
    return fan.cone(range(len(rays)))


# ---------------------------------------------------------------------------
# Faces


def _independent(vectors: Sequence[Vec]) -> list[int]:
    """Indices of the vectors that are independent of the ones before them:
    the pivot columns of one elimination on the vectors as columns."""
    return _gauss_jordan([list(row) for row in zip(*vectors)])


class _Facets:
    """Facets and faces of the cone on some rays.

    ``facets[k]`` is the set of ray indices on which ``normals[k]`` vanishes.
    The normals are primitive and >= 0 on every ray, in the coordinates kept
    by ``_facet_record``: all coordinates when the rays span the space.
    ``faces`` lists every face as a ray-index set, by (size, sorted indices),
    and ``rank`` is the rank of the rays.  ``singular`` and
    ``non_simplicial`` hold the non-smooth and the non-simplicial faces,
    each as (face, dimension) in ``faces`` order, None until first asked
    for (``_singular_record``, ``_non_simplicial_faces``)."""

    __slots__ = ("facets", "normals", "faces", "rank", "singular", "non_simplicial")

    def __init__(self, facets, normals, faces, rank) -> None:
        self.facets: tuple[frozenset[int], ...] = facets
        self.normals: tuple[Vec, ...] = normals
        self.faces: tuple[frozenset[int], ...] = faces
        self.rank: int = rank
        self.singular: tuple[tuple[frozenset[int], int], ...] | None = None
        self.non_simplicial: tuple[tuple[frozenset[int], int], ...] | None = None


@lru_cache(maxsize=256)
def _facet_record(rays: tuple[Vec, ...], indices: frozenset[int]) -> _Facets:
    """Facets and faces of the cone on ``rays[i]``, i in ``indices``.

    Let d be the rank of the rays.  On d coordinates where the rays have
    rank d the projection is injective on their span, so the faces do not
    change.  There the cone is full-dimensional, every facet is spanned by
    d - 1 independent rays, and a normal w to those rays is normal to it:
    the hyperplane supports the cone exactly when w is one-signed on all
    rays.  One fraction-free elimination of the d - 1 rays
    (``lattice._gauss_jordan``) gives their rank and, when it is d - 1,
    the integer line they annihilate, so w is a multiple of their cofactor
    vector (the signed (d-1)-minors) and has the same primitive normal.
    Every face is an intersection of facets, the whole cone being the empty
    intersection and the lineality rays the intersection of all, so the
    faces are the closure of the facets under intersection.  When the rays
    are independent every subset is a face.
    """
    idx = sorted(indices)
    vecs = [rays[i] for i in idx]
    d = int_rank(vecs)
    n = len(vecs[0]) if vecs else 0
    coords = range(n) if d == n else _independent(list(zip(*vecs)))
    proj = [[v[c] for c in coords] for v in vecs]
    found: dict[frozenset[int], Vec] = {}
    for sub in itertools.combinations(range(len(idx)), d - 1) if d else ():
        if any(all(idx[k] in f for k in sub) for f in found):
            continue  # those rays span a facet already found
        rows = [list(proj[k]) for k in sub]
        pivots = _gauss_jordan(rows)
        if len(pivots) < d - 1:
            continue  # the rays are dependent: no facet
        # the kernel line of the reduced rows, a multiple of the cofactor vector
        free = next(c for c in range(d) if c not in pivots)
        scale = lcm(*(rows[k][c] for k, c in enumerate(pivots)))
        w = [0] * d
        w[free] = scale
        for row, c in zip(rows, pivots):
            w[c] = -row[free] * (scale // row[c])
        values = [sum(map(mul, w, p)) for p in proj]
        if min(values) < 0 < max(values):
            continue
        sign = 1 if max(values) > 0 else -1
        found[frozenset(i for i, x in zip(idx, values) if x == 0)] = primitive([sign * a for a in w])
    if d == len(idx):
        faces = [frozenset(s) for r in range(d + 1) for s in itertools.combinations(idx, r)]
    else:
        closure = {frozenset(idx)}
        for f in found:
            closure |= {f & g for g in closure}
        faces = sorted(closure, key=lambda s: (len(s), sorted(s)))
    return _Facets(tuple(found), tuple(found.values()), tuple(faces), d)


def faces(cone: Cone) -> tuple[frozenset[int], ...]:
    """All faces of the cone as ray-index sets, from the empty face up.

    A subset F is a face exactly when some covector vanishes on F and is
    strictly positive on the remaining rays of the cone; the faces are the
    intersections of the cone's facets (``_facet_record``).
    """
    return _facet_record(cone.fan.rays, cone.indices).faces


def is_simplicial(cone: Cone) -> bool:
    return int_rank(cone.ray_vectors) == len(cone.indices)


def _unimodular(vectors: Sequence[Vec], n: int) -> bool:
    """Whether the vectors, in Z^n, extend to a lattice basis: their k x k
    minors have gcd 1.  That gcd is the product of the invariant factors,
    and 0 when the vectors are dependent."""
    g = 0
    for cols in itertools.combinations(range(n), len(vectors)):
        g = gcd(g, int_det([[v[c] for c in cols] for v in vectors]))
        if g == 1:
            return True
    return False


def is_smooth(cone: Cone) -> bool:
    """Smooth means the rays extend to a basis of the ambient lattice."""
    return _unimodular(cone.ray_vectors, cone.fan.ambient_rank)


def _singular_faces(cone: Cone) -> tuple[tuple[frozenset[int], int], ...]:
    """The faces of the cone that are not smooth, each with its dimension,
    in ``faces`` order; the cone itself is the last when it is singular.
    Every face of a smooth cone is smooth, so a smooth cone has none and
    builds no record."""
    return () if is_smooth(cone) else _singular_record(cone).singular


def _non_simplicial_faces(cone: Cone) -> tuple[tuple[frozenset[int], int], ...]:
    """The faces of the cone whose rays are dependent, each with its
    dimension, in ``faces`` order.  Such a face is singular, with fewer
    dimensions than rays, so they are read off the singular faces; a
    simplicial cone has none and builds no record."""
    if is_simplicial(cone):
        return ()
    record = _singular_record(cone)
    if record.non_simplicial is None:
        record.non_simplicial = tuple(s for s in record.singular if s[1] < len(s[0]))
    return record.non_simplicial


def _singular_record(cone: Cone) -> _Facets:
    """The facet record of a cone that is not smooth, with its singular
    faces found once.  A face that contains a singular face is singular (a
    lattice basis through its rays would extend the smaller face's rays to
    one), so only the others are tested by their minors.  The dimension of
    a face of independent rays is their number; the others are ranked."""
    rays, n, top = cone.fan.rays, cone.fan.ambient_rank, cone.indices
    record = _facet_record(rays, top)
    if record.singular is None:
        d = record.rank
        found: list[tuple[frozenset[int], int]] = []
        for f in record.faces:
            if f == top:
                found.append((f, d))
            elif any(g < f for g, _ in found) or not _unimodular([rays[i] for i in f], n):
                found.append((f, len(f) if d == len(top) else int_rank([rays[i] for i in f])))
        record.singular = tuple(found)
    return record


def _least_dim(obj: Fan | Cone, faces_of) -> int | float:
    """Least dimension of a face that ``faces_of`` lists for a cone of
    ``obj`` (a fan's maximal cones, or the cone itself); infinity when none
    does."""
    fan, tops = (obj, obj.max_cones) if isinstance(obj, Fan) else (obj.fan, (obj.indices,))
    return min((k for t in tops for _, k in faces_of(fan.cone(t))), default=inf)


def singular_codim(obj: Fan | Cone) -> int | float:
    """Least dimension of a non-smooth cone (= codimension of its orbit
    closure); infinity when everything is smooth."""
    return _least_dim(obj, _singular_faces)


def simplicial_codim(obj: Fan | Cone) -> int | float:
    return _least_dim(obj, _non_simplicial_faces)


# ---------------------------------------------------------------------------
# Class group and Cox grading


@frozen
class CoxData:
    """Grading data of the total coordinate ring.

    ``grading_matrix`` is an r x m integer matrix whose rows project the
    ray-divisor lattice Z^m onto the free part of the class group; it
    annihilates the row lattice of ``ray_matrix``.  Torsion is reported
    separately and never encoded in the grading matrix.  ``torsion_rows``
    are the rows of the Smith transform U (U * ray_matrix * V = D) at the
    invariant factors in ``torsion``, kept for the degree tests.
    """

    num_rays: int
    ambient_rank: int
    grading_matrix: tuple[Vec, ...]
    ray_matrix: tuple[Vec, ...]
    torsion: tuple[int, ...]
    torsion_rows: tuple[Vec, ...]

    @property
    def free_rank(self) -> int:
        return self.num_rays - self.ambient_rank

    def class_of(self, e: Sequence[int]) -> tuple[Vec, Vec]:
        """Class of the divisor sum_j e_j D_j as (torsion part, free part).

        With U * ray_matrix * V = D the class group Z^m / im(ray_matrix) is
        Z^m / im(D) through e -> U e: the torsion part is (U e)_i mod d_i
        over the invariant factors d_i > 1, which are the last of the first
        ``ambient_rank`` since each divides the next, and the free part is
        the grading matrix (the rows of U past the rank) times e.  Two
        exponents have the same class exactly when their difference lies in
        the row lattice of the rays."""
        return (
            tuple(sum(map(mul, row, e)) % d for row, d in zip(self.torsion_rows, self.torsion)),
            tuple(sum(map(mul, row, e)) for row in self.grading_matrix),
        )


def class_group(fan: Fan) -> CoxData:
    """Class group presentation from the ray matrix.

    The cokernel of u -> (<u, v_1>, ..., <u, v_m>) is computed by Smith
    reduction; requires the rays to span (no torus factor).
    """
    m = fan.num_rays
    n = fan.ambient_rank
    b = fan.rays  # m x n, rows are the rays
    if int_rank(b) != n:
        raise TorusFactorError("rays do not span the ambient space")
    snf = smith_normal_form(b)
    r = m - n
    a_rows = tuple(snf.u[i] for i in range(n, m))
    torsion = tuple(f for f in snf.invariant_factors if f > 1)
    for row in a_rows:  # rows of U past the rank annihilate the image of b
        assert all(
            sum(row[i] * b[i][j] for i in range(m)) == 0 for j in range(n)
        )
    return CoxData(
        num_rays=m,
        ambient_rank=n,
        grading_matrix=a_rows,
        ray_matrix=b,
        torsion=torsion,
        torsion_rows=snf.u[n - len(torsion) : n],
    )


def irrelevant_ideal(fan: Fan) -> SquarefreeMonomialIdeal:
    """Ideal generated, per cone, by the product of variables off the cone."""
    m = fan.num_rays
    gens = [frozenset(range(m)) - idx for idx in fan.max_cones]
    return SquarefreeMonomialIdeal(m, minimalize(gens))


# ---------------------------------------------------------------------------
# Q-Gorenstein / Gorenstein


@frozen
class QGorensteinCertificate:
    """Primitive covector evaluating to the same positive integer on all rays."""

    covector: Vec
    index: int

    def __post_init__(self) -> None:
        if self.index <= 0:
            raise ValueError("index must be positive")


def _level_covector(rays: Sequence[Vec]) -> tuple[Vec, int] | None:
    """(z, d) with d > 0 and <z, v> = d for every ray v, or None when no
    covector is constant on the rays, which must span.  For n independent
    rays R, as rows, z = adj(R) (1, ..., 1) solves R z = det(R) (1, ..., 1),
    and any covector constant on all rays is a multiple of it; by Cramer's
    rule z_i is the determinant of R with column i replaced by ones."""
    basis = [rays[i] for i in _independent(rays)]
    z = [int_det([r[:i] + (1,) + r[i + 1 :] for r in basis]) for i in range(len(basis))]
    d = sum(map(mul, z, basis[0]))  # det R
    if d < 0:
        z, d = [-a for a in z], -d
    if any(sum(map(mul, z, v)) != d for v in rays):
        return None
    return tuple(z), d


def q_gorenstein(cone: Cone) -> QGorensteinCertificate | None:
    """Certificate with <u0, v_i> = g for every ray, or None.

    Requires a full-dimensional pointed cone, so the interpolating covector
    is unique up to scaling whenever it exists.
    """
    rays = cone.ray_vectors
    if int_rank(rays) != cone.fan.ambient_rank:
        raise ValueError("cone must be full-dimensional")
    level = _level_covector(rays)
    if level is None:
        return None
    z, d = level
    c = content(z)
    return QGorensteinCertificate(covector=tuple(a // c for a in z), index=d // c)


def gorenstein(cone: Cone) -> bool:
    cert = q_gorenstein(cone)
    return cert is not None and cert.index == 1


# ---------------------------------------------------------------------------
# Completeness and the Fano property


def _cone_probe(cone: Cone):
    """Membership test for a full-dimensional cone: x lies in it exactly
    when every inward facet normal is >= 0 on x."""
    normals = _facet_record(cone.fan.rays, cone.indices).normals
    return lambda x: all(sum(map(mul, w, x)) >= 0 for w in normals)


def is_complete(fan: Fan) -> bool:
    """Support covers the whole space.

    Checked by the facet-pairing criterion (every facet of a maximal cone is
    shared by exactly two maximal cones) together with a point-location probe
    on each sign orthant.
    """
    n = fan.ambient_rank
    if not fan.max_cones:
        return False
    cones = [fan.cone(idx) for idx in fan.max_cones]
    if any(c.dim != n for c in cones):
        return False
    facet_count = Counter(f for idx in fan.max_cones for f in _facet_record(fan.rays, idx).facets)
    if not facet_count or any(c != 2 for c in facet_count.values()):
        return False
    probes = [_cone_probe(c) for c in cones]
    return all(
        any(probe(signs) for probe in probes)
        for signs in itertools.product((-1, 1), repeat=n)
    )


def _lifted_faces(points: Sequence[Sequence[int]]) -> tuple[frozenset[int], ...]:
    """Faces of the cone over the points placed at height one: the faces
    {i} are the hull's vertices, and the faces {i, j} its edges."""
    return _facet_record(tuple((*p, 1) for p in points), frozenset(range(len(points)))).faces


def _is_vertex(points: Sequence[Vec], i: int) -> bool:
    """Whether points[i] is a vertex of the hull: some u has <u, v> > <u, w>
    for every other point w, that is, {i} is a lifted face."""
    return frozenset([i]) in _lifted_faces(points)


def is_fano(fan: Fan) -> bool:
    """Complete fan equal to the face fan of the ray hull, all rays vertices."""
    return is_complete(fan) and _is_hull_face_fan(fan)


def _is_hull_face_fan(fan: Fan) -> bool:
    """Whether every ray is a vertex of the ray hull and every maximal cone
    is the cone over a facet of it: the Fano property of a complete fan, for
    callers that already know completeness."""
    rays = fan.rays
    if not all(_is_vertex(rays, i) for i in range(len(rays))):
        return False
    # each maximal cone must be the cone over a facet of the hull
    for idx in fan.max_cones:
        level = _level_covector([rays[i] for i in sorted(idx)])
        if level is None:
            return False
        z, d = level
        if any(sum(map(mul, z, w)) >= d for k, w in enumerate(rays) if k not in idx):
            return False
    return True


# ---------------------------------------------------------------------------
# Weighted projective space


@frozen
class WeightSystem:
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.weights) < 2 or any(q < 1 for q in self.weights):
            raise ValueError("need at least two positive weights")

    @property
    def dim(self) -> int:
        return len(self.weights) - 1


def wps_normalize(q: WeightSystem) -> WeightSystem:
    """Standard reduction: while some n weights share a factor d, divide them
    out; the result is well formed and defines the same space."""
    w = list(q.weights)
    changed = True
    while changed:
        changed = False
        for i in range(len(w)):
            d = content(w[:i] + w[i + 1 :])
            if d > 1:
                for j in range(len(w)):
                    if j != i:
                        w[j] //= d
                changed = True
    return WeightSystem(tuple(w))


def wps_shared_factor(q: WeightSystem) -> tuple[tuple[int, ...], int] | None:
    """The first n-1 of the n+1 weights, as indices in ``combinations``
    order, that share a factor above one, with that factor; None when no
    n-1 weights share one."""
    w = q.weights
    for combo in itertools.combinations(range(len(w)), q.dim - 1):
        g = content(w[k] for k in combo)
        if g > 1:
            return combo, g
    return None


# ---------------------------------------------------------------------------
# The graphs built from cone membership


@frozen
class Graph:
    vertices: frozenset[int]
    edges: frozenset[frozenset[int]]

    def induced(self, subset) -> "Graph":
        sub = frozenset(subset) & self.vertices
        return Graph(sub, frozenset(e for e in self.edges if e <= sub))

    def connected_components(self) -> list[frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for e in self.edges:
            a, b = sorted(e)
            adj[a].add(b)
            adj[b].add(a)
        seen: set[int] = set()
        comps: list[frozenset[int]] = []
        for start in sorted(self.vertices):
            if start in seen:
                continue
            stack = [start]
            comp = set()
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                stack.extend(adj[v] - comp)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        """Graphs with at most one component count as connected (so the empty
        graph does too)."""
        return len(self.connected_components()) <= 1


def graph_gamma(fan: Fan) -> Graph:
    """Vertices are all rays; {i, j} is an edge when both lie in one cone."""
    edges: set[frozenset[int]] = set()
    for idx in fan.max_cones:
        for pair in itertools.combinations(sorted(idx), 2):
            edges.add(frozenset(pair))
    return Graph(frozenset(range(fan.num_rays)), frozenset(edges))


def graph_gamma_f(cone: Cone) -> Graph:
    """Vertices are the cone's rays; edges are its two-dimensional faces."""
    edges = {f for f in faces(cone) if len(f) == 2}
    return Graph(frozenset(cone.indices), frozenset(edges))


# ---------------------------------------------------------------------------
# Derived fans


def smooth_subfan(cone: Cone) -> Fan:
    """Fan of all smooth faces of the cone (maximal ones listed)."""
    singular = {f for f, _ in _singular_faces(cone)}
    if not singular:
        return Fan(cone.fan.rays, (cone.indices,), name=cone.fan.name)
    smooth = [f for f in faces(cone) if f not in singular]
    maximal = tuple(f for f in smooth if not any(f < g for g in smooth))
    return Fan(cone.fan.rays, maximal, name=cone.fan.name)
