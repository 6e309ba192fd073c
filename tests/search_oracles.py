"""The shell scan that ``integer_feasible`` used before its Fourier-Motzkin
descent, kept as an independent oracle for it and for the gamma criterion
that calls it, the per-variable elimination that ``variable_bounds`` used
before it read the bounds off one elimination chain, and the sign signature
of a T^1 chamber computed key by key, as ``t1._kernels`` did before the
chamber walk built it from its intervals.
"""

import itertools
from fractions import Fraction
from math import ceil, floor

from torrigid.lattice import (
    BoundExceeded,
    Infeasible,
    Witness,
    _fm_eliminate,
    _FMContradiction,
    solve_diophantine,
)


def per_variable_bounds(rows, num_vars):
    """(lower, upper) rational bounds of each variable, None for an unbounded
    side, by eliminating every other variable in increasing order.  On an
    infeasible system the answer is None or holds an empty interval."""
    bounds = []
    for var in range(num_vars):
        cur = list(rows)
        try:
            for other in range(num_vars):
                if other != var:
                    cur = _fm_eliminate(cur, other)
        except _FMContradiction:
            return None
        lo = hi = None
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


def shell_scan(system, search_bound):
    """(answer, points) for the system by a scan of shells.

    The free coordinates t of u = origin + B*t get their integer ranges from
    ``per_variable_bounds``, cut to [-search_bound, search_bound] on an
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
    bounds = per_variable_bounds(rows, len(basis))
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


def signature(key, degrees):
    """The sign signature of the degree ``key`` for the degree shifts
    ``degrees``: with m coordinates, bit t*m + k is set when
    key_k + degrees[t][k] <= -1."""
    m = len(key)
    return sum(
        1 << (t * m + k) for t, d in enumerate(degrees) for k in range(m) if key[k] + d[k] <= -1
    )
