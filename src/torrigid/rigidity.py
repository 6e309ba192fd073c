"""Machine-checkable certificates for sufficient rigidity criteria.

Each criterion reports its hypotheses individually.  A certificate is only
``RIGID`` when every hypothesis is satisfied; a failed hypothesis yields
``CONDITION_NOT_SATISFIED`` with a concrete counterexample, and a search that
ran out of room yields ``INCONCLUSIVE`` rather than a silent downgrade (the
criteria are sufficient, not necessary).
"""

from __future__ import annotations

import itertools
from enum import Enum

from ._record import frozen
from .lattice import (
    AffineSystem,
    BoundExceeded,
    Witness,
)
from .lattice import integer_feasible as _integer_feasible
from .toric import (
    Cone,
    Fan,
    WeightSystem,
    _is_hull_face_fan,
    graph_gamma_f,
    is_complete,
    is_simplicial,
    q_gorenstein,
    simplicial_codim,
    singular_codim,
    wps_normalize,
    wps_shared_factor,
)


class Verdict(Enum):
    RIGID = "rigid"
    DER_PART_VANISHES = "der_part_vanishes"
    CONDITION_NOT_SATISFIED = "condition_not_satisfied"
    INCONCLUSIVE = "inconclusive"


@frozen
class Hypothesis:
    name: str
    status: str  # satisfied | failed | unknown
    detail: str = ""


@frozen
class RigidityCertificate:
    criterion: str
    verdict: Verdict
    hypotheses: tuple[Hypothesis, ...]
    search_bound: int | None = None
    reason: str = ""

    def __post_init__(self) -> None:
        if self.verdict in (Verdict.RIGID, Verdict.DER_PART_VANISHES):
            for h in self.hypotheses:
                if h.status != "satisfied":
                    raise ValueError(
                        f"verdict {self.verdict.value} needs every hypothesis "
                        f"satisfied; {h.name!r} is {h.status}"
                    )

    @property
    def is_rigid(self) -> bool:
        return self.verdict is Verdict.RIGID


def _codim_hypothesis(name: str, value, threshold: int) -> Hypothesis:
    ok = value >= threshold
    return Hypothesis(
        name=name,
        status="satisfied" if ok else "failed",
        detail=f"value {value}, needs >= {threshold}",
    )


def _from_hypotheses(criterion: str, hyps: list[Hypothesis]) -> RigidityCertificate:
    """RIGID exactly when every hypothesis is satisfied; otherwise the names
    of the failed ones, joined by "; ", are the reason."""
    failed = [h.name for h in hyps if h.status != "satisfied"]
    return RigidityCertificate(
        criterion=criterion,
        verdict=Verdict.CONDITION_NOT_SATISFIED if failed else Verdict.RIGID,
        hypotheses=tuple(hyps),
        reason="; ".join(failed),
    )


def der_vanishing_gamma(cone: Cone, search_bound: int = 8) -> RigidityCertificate:
    """Connectivity test certifying that the derivation part of the tangent
    space vanishes.

    For each ray i and each sign pattern J on the remaining rays, the test
    asks for an integer covector evaluating to -1 on ray i, at most -1 on J
    and nonnegatively elsewhere; whenever such a covector exists the induced
    two-face graph on J must be connected.  Only disconnected patterns are
    submitted to the integer search, and an exhausted search is reported as
    INCONCLUSIVE, never as a verdict.
    """
    if search_bound < 1:
        raise ValueError("search_bound must be >= 1")
    m = len(cone.indices)
    if m > 20:
        raise ValueError(
            "pattern enumeration is exponential in the number of rays; "
            "refusing more than 20 (split the cone or use the Q-Gorenstein test)"
        )
    codim = singular_codim(cone)
    if codim < 3:
        return RigidityCertificate(
            criterion="gamma",
            verdict=Verdict.INCONCLUSIVE,
            hypotheses=(_codim_hypothesis("smooth_in_codim_2", codim, 3),),
            search_bound=search_bound,
            reason="cone is not smooth in codimension 2",
        )

    def run() -> tuple[Verdict, str]:
        graph = graph_gamma_f(cone)
        exceeded = None
        rays = cone.fan.rays
        n = cone.fan.ambient_rank
        connected: dict[frozenset[int], bool] = {}  # a pattern J recurs for each ray not in J
        for i in sorted(cone.indices):
            others = sorted(cone.indices - {i})
            for r in range(len(others) + 1):
                for combo in itertools.combinations(others, r):
                    j_set = frozenset(combo)
                    if j_set not in connected:
                        connected[j_set] = graph.induced(j_set).is_connected()
                    if connected[j_set]:
                        continue
                    rest = [j for j in others if j not in j_set]
                    system = AffineSystem(
                        num_vars=n,
                        equalities=((rays[i], -1),),
                        inequalities=tuple(
                            (tuple(-c for c in rays[j]), 1) for j in combo
                        )
                        + tuple((rays[j], 0) for j in rest),
                    )
                    res = _integer_feasible(system, search_bound)
                    if isinstance(res, Witness):
                        return (
                            Verdict.CONDITION_NOT_SATISFIED,
                            f"ray {i}, pattern {sorted(j_set)}, covector {res.point}"
                            " realizes a disconnected graph",
                        )
                    if isinstance(res, BoundExceeded):
                        exceeded = f"ray {i}, pattern {sorted(j_set)}"
        if exceeded is not None:
            return Verdict.INCONCLUSIVE, f"search bound exhausted at {exceeded}"
        return Verdict.DER_PART_VANISHES, ""

    verdict, reason = run()
    hyps = [_codim_hypothesis("smooth_in_codim_2", codim, 3)]
    if verdict is Verdict.DER_PART_VANISHES:
        hyps.append(Hypothesis("connected_patterns", "satisfied", "all realizable"))
    elif verdict is Verdict.CONDITION_NOT_SATISFIED:
        hyps.append(Hypothesis("connected_patterns", "failed", reason))
    else:
        hyps.append(Hypothesis("connected_patterns", "unknown", reason))
    return RigidityCertificate(
        criterion="gamma",
        verdict=verdict,
        hypotheses=tuple(hyps),
        search_bound=search_bound,
        reason=reason,
    )


def qgorenstein_rigidity(cone: Cone) -> RigidityCertificate:
    """Rigid when the cone is Q-Gorenstein, smooth in codimension 2 and
    simplicial in codimension 3 (codimension measured by orbit closures, so
    the thresholds are dimension >= 3 and >= 4 on the offending faces)."""
    cert = q_gorenstein(cone)
    hyps = [
        Hypothesis(
            "q_gorenstein",
            "satisfied" if cert is not None else "failed",
            f"covector {cert.covector}, index {cert.index}" if cert else "no interpolating covector",
        ),
        _codim_hypothesis("smooth_in_codim_2", singular_codim(cone), 3),
        _codim_hypothesis("simplicial_in_codim_3", simplicial_codim(cone), 4),
    ]
    return _from_hypotheses("qgorenstein", hyps)


def quotient_rigidity(cone: Cone) -> RigidityCertificate:
    """Rigid when the cone is simplicial (a finite abelian quotient) and
    smooth in codimension 2."""
    hyps = [
        Hypothesis(
            "simplicial",
            "satisfied" if is_simplicial(cone) else "failed",
            f"{len(cone.indices)} rays of rank {cone.dim}",
        ),
        _codim_hypothesis("smooth_in_codim_2", singular_codim(cone), 3),
    ]
    return _from_hypotheses("quotient", hyps)


def fano_rigidity(fan: Fan) -> RigidityCertificate:
    """Rigid when the fan is Fano, smooth in codimension 2 and simplicial in
    codimension 3; the local hypotheses are also audited cone by cone."""
    complete = is_complete(fan)
    hyps = [
        Hypothesis(
            "complete",
            "satisfied" if complete else "failed",
            "facet pairing and orthant probes" if complete else "support does not cover",
        )
    ]
    if not complete:
        return RigidityCertificate(
            criterion="fano",
            verdict=Verdict.CONDITION_NOT_SATISFIED,
            hypotheses=tuple(hyps),
            reason="completeness",
        )
    fano = _is_hull_face_fan(fan)
    hyps.append(
        Hypothesis(
            "fano",
            "satisfied" if fano else "failed",
            "face fan of the ray hull with all rays vertices"
            if fano
            else "fan is not the face fan of its ray hull",
        )
    )
    hyps.append(_codim_hypothesis("smooth_in_codim_2", singular_codim(fan), 3))
    hyps.append(_codim_hypothesis("simplicial_in_codim_3", simplicial_codim(fan), 4))
    for idx in fan.max_cones:
        cone = fan.cone(idx)
        local = qgorenstein_rigidity(cone)
        hyps.append(
            Hypothesis(
                f"cone_{'_'.join(str(i) for i in sorted(idx))}_local",
                "satisfied" if local.is_rigid else "failed",
                local.reason or "Q-Gorenstein, smooth in codim 2, simplicial in codim 3",
            )
        )
    return _from_hypotheses("fano", hyps)


def wps_rigidity(q: WeightSystem) -> RigidityCertificate:
    """Rigid when no n-1 of the n+1 (normalized) weights share a factor."""
    norm = wps_normalize(q)
    w = norm.weights
    counterexample = wps_shared_factor(norm)
    ok = counterexample is None
    hyps = [
        Hypothesis(
            "weights_coprime_in_codim_3",
            "satisfied" if ok else "failed",
            f"normalized weights {w}"
            if ok
            else f"weights {tuple(w[k] for k in counterexample[0])} share factor {counterexample[1]}",
        )
    ]
    return RigidityCertificate(
        criterion="wps",
        verdict=Verdict.RIGID if ok else Verdict.CONDITION_NOT_SATISFIED,
        hypotheses=tuple(hyps),
        reason="" if ok else hyps[0].detail,
    )
