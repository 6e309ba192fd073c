"""Span tracer that times calls into torrigid's public functions.

The tracer lives entirely in the benchmark: it replaces chosen functions of
the imported ``torrigid`` modules by timing wrappers and puts the originals
back afterwards, so the package itself carries no tracing code.

A function is often reachable under several names: ``t1`` does
``from .lattice import rref`` and ``rigidity`` imports ``integer_feasible``
as ``_integer_feasible``.  ``install`` therefore replaces every attribute of
every loaded ``torrigid`` module that *is* the original function object, not
just the attribute of the defining module.

Spans are kept in memory as parallel arrays (name, start, end, parent span,
instance id) and written out once the run ends.  The self time of a span is
its duration minus the durations of its direct children; calls run on one
thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# Wrapped functions, by layer (a torrigid module).  A dotted entry names a
# method on a class of that module.
TARGETS: dict[str, tuple[str, ...]] = {
    "lattice": (
        "rref",
        "int_rank",
        "smith_normal_form",
        "integer_feasible",
        "lattice_points",
        "hilbert_basis",
        "rational_solve",
    ),
    "ideals": ("minimalize",),
    "toric": ("validate_fan", "class_group", "singular_codim", "is_complete", "is_fano"),
    "localcoh": ("local_coh_piece", "cech_piece", "mult_map", "MultMap.is_bijective"),
    "rigidity": ("der_vanishing_gamma", "qgorenstein_rigidity", "quotient_rigidity"),
    "t1": ("t1_affine", "der_part_exact", "hom_q_h3", "t1_polygon", "cy_t1"),
    "cli": ("main",),
}


def _rref_cells(args, kwargs, result) -> int:
    rows = args[0] if args else kwargs["rows"]
    return len(rows) * len(rows[0]) if rows else 0


def _is_bound_exceeded(args, kwargs, result) -> int:
    return int(type(result).__name__ == "BoundExceeded")


def _is_nonzero_piece(args, kwargs, result) -> int:
    return int(result.dimension > 0)


# Counters taken at a wrapped call: counter name -> (span name, increment).
COUNTERS = {
    "lattice.rref.cells": ("lattice.rref", _rref_cells),
    "lattice.integer_feasible.bound_exceeded": ("lattice.integer_feasible", _is_bound_exceeded),
    "localcoh.local_coh_piece.nonzero": ("localcoh.local_coh_piece", _is_nonzero_piece),
}

INSTANCE_SPAN = "bench.instance"
PACKAGE = "torrigid"


class Tracer:
    def __init__(self, targets=TARGETS, counters=COUNTERS) -> None:
        self.targets = targets
        self.counters = counters
        self.counts = dict.fromkeys(counters, 0)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance_id = array("i")
        self.instance = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name: str) -> int:
        """Open a span as a child of the innermost open span; returns its index."""
        stack = self._stack
        self.name_id.append(self._id(name))
        self.parent.append(stack[-1] if stack else -1)
        self.instance_id.append(self.instance)
        self.end.append(0.0)
        idx = len(self.end) - 1
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counters = [(key, inc) for key, (span, inc) in self.counters.items() if span == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            for key, inc in counters:
                self.counts[key] += inc(args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of each target function in the loaded package."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, paths in self.targets.items():
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for path in paths:
                *owners, attr = path.split(".")
                owner = module
                for part in owners:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                wrapper = self.wrap(f"{layer}.{path}", original)
                if owners:
                    self._patch(owner, attr, wrapper, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper, original)

    def _patch(self, owner, attr: str, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def summary(self) -> dict[str, tuple[int, float]]:
        """Span name -> (call count, summed self time in seconds)."""
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for nid, t in zip(self.name_id, self.self_times()):
            calls[nid] += 1
            own[nid] += t
        return {name: (calls[k], own[k]) for k, name in enumerate(self.names)}

    def root_time(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [
                [field, getattr(self, field).typecode]
                for field in ("name_id", "start", "end", "parent", "instance_id")
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(fh)


def layer_metrics(tracer: Tracer, solve_s: float) -> dict[str, float]:
    """Per-layer and per-function call counts and self times of one traced solve.

    The benchmark's own self time is the self time of its instance spans plus
    the part of the solve loop spent outside every instance span.
    """
    stats = tracer.summary()
    out: dict[str, float] = {}
    for layer, paths in tracer.targets.items():
        calls, own = 0, 0.0
        for path in paths:
            c, s = stats.get(f"{layer}.{path}", (0, 0.0))
            out[f"{layer}.{path}.calls"] = c
            out[f"{layer}.{path}.self_s"] = s
            calls += c
            own += s
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = own
    bench = stats.get(INSTANCE_SPAN, (0, 0.0))[1] + solve_s - tracer.root_time()
    out["bench.self_s"] = bench
    layers = sum(out[f"{layer}.self_s"] for layer in tracer.targets)
    out["bench.accounted_frac"] = (layers + bench) / solve_s if solve_s > 0 else 0.0
    out["lattice.rref.cells"] = tracer.counts.get("lattice.rref.cells", 0)
    out["lattice.integer_feasible.bound_exceeded"] = tracer.counts.get(
        "lattice.integer_feasible.bound_exceeded", 0
    )
    lcp_calls = out.get("localcoh.local_coh_piece.calls", 0)
    nonzero = tracer.counts.get("localcoh.local_coh_piece.nonzero", 0)
    out["localcoh.local_coh_piece.nonzero_ratio"] = nonzero / lcp_calls if lcp_calls else 0.0
    return out
