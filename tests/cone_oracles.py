"""Cone membership and pointedness by Fourier-Motzkin elimination.

torrigid reads both off facet normals (``toric._facet_record``,
``lattice.hilbert_basis``); the tests compare against these independent
decisions by rational feasibility.
"""

from torrigid.lattice import rational_feasible


def cone_contains(generators, x):
    """Is x a nonnegative rational combination of the generators?"""
    k = len(generators)
    if k == 0:
        return all(a == 0 for a in x)
    rows = []
    for j in range(len(x)):
        a = tuple(g[j] for g in generators)
        rows.append((a, x[j]))
        rows.append((tuple(-c for c in a), -x[j]))
    for i in range(k):
        rows.append((tuple(1 if j == i else 0 for j in range(k)), 0))
    return rational_feasible(rows, k)


def cone_is_pointed(generators):
    """A cone is pointed iff some covector is strictly positive on all generators."""
    gens = [tuple(g) for g in generators if any(g)]
    if not gens:
        return True
    return rational_feasible([(g, 1) for g in gens], len(gens[0]))
