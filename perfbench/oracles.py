"""Closed forms the benchmark checks torrigid's answers against.

Each oracle is independent of torrigid: plain integer arithmetic on the
generated input data.
"""

from __future__ import annotations

import itertools
from math import gcd


def hirzebruch_jung(num: int, den: int) -> list[int]:
    """Continued fraction num/den = a_1 - 1/(a_2 - 1/(...)), every a_i >= 2.

    Requires num > den > 0.
    """
    if not num > den > 0:
        raise ValueError(f"need num > den > 0, got {num}/{den}")
    out = []
    while den:
        a = -(-num // den)
        out.append(a)
        num, den = den, a * den - num
    return out


def cyclic_quotient_t1(n: int, q: int) -> int:
    """dim T^1 of the cyclic quotient surface X(n, q), rays (0,1) and (n,-q).

    Riemenschneider (1974): expand n/(n-q) = [a_2, ..., a_{e-1}]; then
    dim T^1 = n - 1 when e = 3 and (e - 4) + sum(a_i - 1) when e >= 4.
    """
    if not (0 < q < n and gcd(n, q) == 1):
        raise ValueError(f"X({n},{q}) needs 0 < q < n and gcd(n, q) = 1")
    a = hirzebruch_jung(n, n - q)
    e = len(a) + 2
    if e == 3:
        return n - 1
    return (e - 4) + sum(x - 1 for x in a)


def bounded_exponent_count(degree: int, num_vars: int) -> int:
    """Monomials of the given degree with every exponent at most degree - 2.

    For a smooth anticanonical hypersurface of degree n + 1 in P^n these span
    the degree-(n + 1) piece of the Jacobian ring: 101 for the quintic in
    P^4 and 426 for the sextic in P^5.
    """
    return sum(
        1
        for e in itertools.product(range(degree - 1), repeat=num_vars)
        if sum(e) == degree
    )
