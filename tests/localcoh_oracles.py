"""Reference constructions for local cohomology.

torrigid does not need these to compute anything; the tests compare
torrigid's answers with them.  ``cech_strand`` is the Cech strand from
before ``localcoh._cech_strand`` coded generators and subsets as bitmasks:
it lists the subsets of generators by ``itertools.combinations``, builds
each subset's support as a frozenset union and its coboundary signs by
counting members.
"""

import itertools

from torrigid.ideals import SquarefreeMonomialIdeal
from torrigid.lattice import int_rank


def cech_strand(b: SquarefreeMonomialIdeal, pattern: frozenset[int]) -> dict:
    """Cohomology dimensions of the fine strand of the Cech complex on the
    generators, for the sign pattern of negative coordinates."""
    supports = b.generators
    s = len(supports)
    alive: dict[int, list[frozenset[int]]] = {}
    for t in range(s + 1):
        alive[t] = []
        for combo in itertools.combinations(range(s), t):
            key = frozenset(combo)
            u = frozenset().union(*(supports[j] for j in combo)) if combo else frozenset()
            if pattern <= u:
                alive[t].append(key)
    ranks = {}
    for t in range(s):
        src = alive[t]
        tgt = alive[t + 1]
        if not src or not tgt:
            ranks[t] = 0
            continue
        tgt_index = {k: idx for idx, k in enumerate(tgt)}
        rows = []
        for key in src:
            row = [0] * len(tgt)
            members = sorted(key)
            for l in range(s):
                if l in key:
                    continue
                bigger = key | {l}
                if bigger in tgt_index:
                    sign = (-1) ** sum(1 for j in members if j < l)
                    row[tgt_index[bigger]] = sign
            rows.append(row)
        ranks[t] = int_rank(rows)
    dims = {}
    for t in range(s + 1):
        dims[t] = len(alive[t]) - ranks.get(t, 0) - ranks.get(t - 1, 0)
    return dims
