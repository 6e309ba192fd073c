"""Reference constructions on fans, graphs and weights.

torrigid does not need these to compute anything; the tests build second
ideals, complexes and fans from them and compare torrigid's answers there:
local cohomology at the codimension-two ideal of a fan (criteria 6 and 7),
the singular locus of a weighted projective space and its height
(criterion 9), and the fan of the proper faces of a cone.  It also keeps
the first ``cox_polynomial``, which adds every coefficient as a ``Fraction``
and compares the full ``class_of`` of every term, and the face-by-face
singular and non-simplicial faces from before a cone's facet record kept
them: ``least_dim_without``, ``smooth_faces_fan`` and
``singular_faces_by_dim``.
"""

from fractions import Fraction
from itertools import combinations
from math import inf, lcm

from torrigid.ideals import SquarefreeMonomialIdeal, minimalize
from torrigid.localcoh import SimplicialComplex
from torrigid.t1 import CoxPolynomial
from torrigid.toric import (
    Cone,
    Fan,
    Graph,
    WeightSystem,
    _lifted_faces,
    class_group,
    faces,
    graph_gamma,
    is_smooth,
)


def clique_complex(g: Graph) -> SimplicialComplex:
    """Faces are the cliques of the graph."""
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for e in g.edges:
        a, bb = sorted(e)
        adj[a].add(bb)
        adj[bb].add(a)
    cliques: list[frozenset[int]] = []

    def extend(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            cliques.append(frozenset(r))
            return
        for v in sorted(p):
            extend(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    extend(set(), set(g.vertices), set())
    if not cliques:
        cliques = [frozenset()]
    return SimplicialComplex(tuple(sorted(g.vertices)), tuple(cliques))


def codim2_ideal(fan: Fan) -> SquarefreeMonomialIdeal:
    """Intersection of the codimension-two components of the irrelevant
    ideal: one generator per maximal clique of the ray graph, namely the
    product of the variables off the clique.  A complete graph yields the
    unit ideal (no codimension-two components), flagged by ``is_unit``."""
    g = graph_gamma(fan)
    cliques = clique_complex(g).facets
    m = fan.num_rays
    gens = [frozenset(range(m)) - f for f in cliques]
    return SquarefreeMonomialIdeal(m, minimalize(gens))


def intersect(i: SquarefreeMonomialIdeal, j: SquarefreeMonomialIdeal) -> SquarefreeMonomialIdeal:
    if i.num_vars != j.num_vars:
        raise ValueError("variable count mismatch")
    if i.is_zero or j.is_zero:
        return SquarefreeMonomialIdeal(i.num_vars, ())
    gens = [g | h for g in i.generators for h in j.generators]
    return SquarefreeMonomialIdeal(i.num_vars, minimalize(gens))


def height(ideal: SquarefreeMonomialIdeal) -> int | float:
    """Codimension of the vanishing locus: least size of a hitting set
    meeting every generator support.  The unit ideal has infinite height,
    the zero ideal height 0."""
    if ideal.is_unit:
        return float("inf")
    if ideal.is_zero:
        return 0
    supports = ideal.generators
    for size in range(1, ideal.num_vars + 1):
        for cover in combinations(range(ideal.num_vars), size):
            cset = set(cover)
            if all(cset & g for g in supports):
                return size
    return ideal.num_vars  # unreachable for nonzero proper ideals


def wps_singular_ideal(q: WeightSystem) -> SquarefreeMonomialIdeal:
    """Intersection over primes p | lcm(q) of the ideals (x_i : p does not
    divide q_i); its vanishing locus is the singular locus."""
    w = q.weights
    primes = []
    rest = lcm(*w)
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    ideal = SquarefreeMonomialIdeal(len(w), (frozenset(),))  # unit ideal
    for p in primes:
        gens = tuple(frozenset([i]) for i, qi in enumerate(w) if qi % p != 0)
        ideal = intersect(ideal, SquarefreeMonomialIdeal(len(w), gens))
    return ideal


def proper_faces_fan(cone: Cone) -> Fan:
    """Fan of all proper faces of the cone."""
    proper = [f for f in faces(cone) if f != cone.indices]
    maximal = [f for f in proper if not any(f < g for g in proper)]
    maximal.sort(key=lambda s: (len(s), sorted(s)))
    return Fan(cone.fan.rays, tuple(maximal), name=cone.fan.name)


def least_dim_without(obj: Fan | Cone, good) -> int | float:
    """Least dimension of a cone of ``obj`` (a fan's cones, or a cone's
    faces) that is not ``good``, each face tested and ranked on its own;
    infinity when all are.  With ``toric.is_smooth`` this is
    ``singular_codim``, with ``toric.is_simplicial`` ``simplicial_codim``."""
    fan, tops = (obj, obj.max_cones) if isinstance(obj, Fan) else (obj.fan, (obj.indices,))
    candidates = {f for t in tops if not good(fan.cone(t)) for f in faces(fan.cone(t))}
    return min((fan.cone(f).dim for f in candidates if not good(fan.cone(f))), default=inf)


def smooth_faces_fan(cone: Cone) -> Fan:
    """``toric.smooth_subfan`` by one smoothness test per face: the fan of
    the smooth faces, maximal ones listed."""
    smooth = [f for f in faces(cone) if is_smooth(cone.fan.cone(f))]
    maximal = [f for f in smooth if not any(f < g for g in smooth)]
    maximal.sort(key=lambda s: (len(s), sorted(s)))
    return Fan(cone.fan.rays, tuple(maximal), name=cone.fan.name)


def singular_faces_by_dim(cone: Cone) -> list[frozenset[int]]:
    """The proper faces that ``t1._non_rigid_face`` computes, in its order:
    the non-smooth ones by dimension, ties in ``faces`` order."""
    fan = cone.fan
    singular = [f for f in faces(cone) if f != cone.indices and not is_smooth(fan.cone(f))]
    return sorted(singular, key=lambda f: fan.cone(f).dim)


def halfspace_slice_connected(vertices, vertex, normal) -> bool:
    """Whether the hull edges (``toric._lifted_faces``) among the vertices on
    the closed side <normal, x> >= <normal, vertex>, the given vertex left
    out, form a connected graph.  For the vertices of a polytope they always
    do, so a missing hull edge can show up as a disconnected slice."""
    pts = [tuple(p) for p in vertices]
    offset = sum(a * x for a, x in zip(normal, vertex))
    keep = frozenset(
        i for i, p in enumerate(pts) if sum(a * x for a, x in zip(normal, p)) >= offset and p != tuple(vertex)
    )
    edges = frozenset(f for f in _lifted_faces(pts) if len(f) == 2 and f <= keep)
    return len(Graph(keep, edges).connected_components()) <= 1


def class_of_cox_polynomial(fan: Fan, terms) -> CoxPolynomial:
    """``cox_polynomial`` with one ``Fraction`` addition per term and the
    class degree of every kept term read by ``CoxData.class_of`` and compared
    with that of the first: the same polynomial, or the same ``ValueError``
    message."""
    combined: dict = {}
    width = None
    for c, e in terms:
        e = tuple(e)
        width = len(e) if width is None else width
        if c == 0:
            raise ValueError("zero coefficient")
        if len(e) != width or any(x < 0 for x in e):
            raise ValueError(f"bad exponent {e}")
        combined[e] = combined.get(e, 0) + (c if isinstance(c, Fraction) else Fraction(c))
    if width is None:
        raise ValueError("polynomial must have at least one term")
    if width != fan.num_rays:
        raise ValueError(f"exponents have length {width}, fan has {fan.num_rays} rays")
    kept = tuple((c, e) for e, c in combined.items() if c)
    if not kept:
        raise ValueError("polynomial is zero")
    poly = CoxPolynomial(kept)
    cox = class_group(fan)
    ref = poly.terms[0][1]
    degree = cox.class_of(ref)
    for _, e in poly.terms[1:]:
        if cox.class_of(e) != degree:
            raise ValueError(f"terms {ref} and {e} have different class degrees")
    return poly
