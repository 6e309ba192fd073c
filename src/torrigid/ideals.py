"""Squarefree monomial ideals, represented by their generator supports."""

from __future__ import annotations

from typing import Iterable

from ._record import frozen


def minimalize(sets: Iterable[frozenset[int]]) -> tuple[frozenset[int], ...]:
    """Keep only inclusion-minimal sets, sorted for determinism."""
    pool = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
    out: list[frozenset[int]] = []
    for s in pool:
        if not any(t <= s for t in out):
            out.append(s)
    return tuple(out)


@frozen
class SquarefreeMonomialIdeal:
    """An ideal generated by squarefree monomials in variables 0..num_vars-1.

    Generators are stored as variable-index supports and kept minimal.  The
    unit ideal is the one generated by the empty monomial; the zero ideal has
    no generators at all.
    """

    num_vars: int
    generators: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if not g <= frozenset(range(self.num_vars)):
                raise ValueError(f"generator {sorted(g)} out of range")
        mini = minimalize(self.generators)
        if mini != self.generators:
            object.__setattr__(self, "generators", mini)
        # ideals key every local cohomology cache: hash them once
        object.__setattr__(self, "_hash", hash((self.num_vars, self.generators)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_unit(self) -> bool:
        return self.generators == (frozenset(),)

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        names = []
        for g in self.generators:
            names.append("1" if not g else "*".join(f"x{i + 1}" for i in sorted(g)))
        return "(" + ", ".join(names) + ")"
