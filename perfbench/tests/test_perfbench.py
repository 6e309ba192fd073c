"""Tests for the benchmark's own code: generators, oracles, tracer, report.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

import oracles
import run
import tracer as tracer_mod
import worker
from tracer import INSTANCE_SPAN, TARGETS, Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic(name, tmp_path):
    workload = WORKLOADS[name]
    first = json.dumps(workload.generate(7), sort_keys=True)
    assert json.dumps(workload.generate(7), sort_keys=True) == first
    assert json.dumps(workload.generate(8), sort_keys=True) != first
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        d.mkdir()
        workload.prepare(workload.generate(7), str(d))
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    for f in names:
        assert (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_lists_have_enough_instances_for_a_tail(name):
    count = len(WORKLOADS[name].generate(1)["instances"])
    assert count >= 2 * run.TAIL_ABOVE


@pytest.mark.parametrize("n, q, expected", [(3, 2, 2), (5, 2, 3), (7, 2, 5), (11, 3, 7)])
def test_closed_form_hand_values(n, q, expected):
    assert oracles.cyclic_quotient_t1(n, q) == expected


def test_closed_form_special_families():
    for n in range(2, 12):
        assert oracles.cyclic_quotient_t1(n, n - 1) == n - 1  # A_{n-1}
    for n in range(3, 12):
        assert oracles.cyclic_quotient_t1(n, 1) == 2 * n - 4  # rational normal cone


def test_closed_form_matches_t1_affine_on_generated_surfaces():
    """The seeded presentations (signed coordinate permutations, ray order)
    keep t1_affine at bound 2 equal to the closed form."""
    from torrigid.t1 import t1_affine
    from torrigid.toric import affine_cone

    workload = WORKLOADS["surface_t1"]
    small = [i for i in workload.generate(3)["instances"] if i["n"] <= 4]
    assert len(small) >= 10
    for inst in small:
        cone = affine_cone([tuple(r) for r in inst["rays"]])
        assert t1_affine(cone, bound=2).total == oracles.cyclic_quotient_t1(inst["n"], inst["q"])


def test_bounded_exponent_counts():
    assert oracles.bounded_exponent_count(5, 5) == 101
    assert oracles.bounded_exponent_count(6, 6) == 426


def test_self_time_on_toy_nested_call(monkeypatch):
    # outer [0,10] > a [2,5]; outer > b [6,7] > c [6.5,6.8]
    clock = iter([0.0, 2.0, 5.0, 6.0, 6.5, 6.8, 7.0, 10.0])
    monkeypatch.setattr(tracer_mod.time, "perf_counter", lambda: next(clock))
    t = Tracer(targets={"toy": ("a", "b", "c")}, counters={})
    outer = t.begin(INSTANCE_SPAN)
    a = t.begin("toy.a")
    t.finish(a)
    b = t.begin("toy.b")
    c = t.begin("toy.c")
    t.finish(c)
    t.finish(b)
    t.finish(outer)
    assert list(t.parent) == [-1, outer, outer, b]
    assert t.self_times() == pytest.approx([6.0, 3.0, 0.7, 0.3])
    metrics = layer_metrics(t, solve_s=10.5)
    assert metrics["toy.a.self_s"] == pytest.approx(3.0)
    assert metrics["toy.b.self_s"] == pytest.approx(0.7)
    assert metrics["toy.self_s"] == pytest.approx(4.0)
    assert metrics["toy.calls"] == 3
    assert metrics["bench.self_s"] == pytest.approx(6.5)  # 6.0 in the span, 0.5 outside
    assert metrics["bench.accounted_frac"] == pytest.approx(1.0)


def _bindings():
    """Every callable attribute of every loaded torrigid module."""
    modules = [m for n, m in sys.modules.items() if n == "torrigid" or n.startswith("torrigid.")]
    return {(id(m), k): v for m in modules for k, v in vars(m).items() if callable(v)}


def test_wrapper_catches_aliases_and_restores():
    import torrigid
    import torrigid.cli
    import torrigid.localcoh as localcoh
    import torrigid.rigidity as rigidity
    import torrigid.t1 as t1

    before = _bindings()
    rref, feasible = torrigid.lattice.rref, torrigid.lattice.integer_feasible
    is_bijective = vars(localcoh.MultMap)["is_bijective"]
    t = Tracer()
    t.install()
    try:
        assert t1.rref is not rref and t1.rref is torrigid.lattice.rref
        assert rigidity._integer_feasible is not feasible
        assert rigidity._integer_feasible is torrigid.lattice.integer_feasible
        assert torrigid.integer_feasible is torrigid.lattice.integer_feasible
        assert vars(localcoh.MultMap)["is_bijective"] is not is_bijective
        t.instance = 0
        span = t.begin(INSTANCE_SPAN)
        cone = torrigid.toric.affine_cone([(0, 1), (3, -1)])
        assert t1.t1_affine(cone, bound=2).total == 2
        t.finish(span)
    finally:
        t.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert vars(localcoh.MultMap)["is_bijective"] is is_bijective

    stats = t.summary()
    assert stats["t1.t1_affine"][0] == 1
    assert stats["lattice.rref"][0] > 0
    assert t.counts["lattice.rref.cells"] > 0
    names = [t.names[k] for k in t.name_id]
    rref_parents = {names[t.parent[k]] for k, n in enumerate(names) if n == "lattice.rref"}
    assert rref_parents == {"t1.der_part_exact"}
    assert set(t.instance_id) == {0}


def test_scaling_removes_host_speed():
    ref = worker.REFERENCE_S
    raw = [0.5, 0.2, 0.3]
    calib = [ref, ref, 2 * ref, 2 * ref]
    assert worker.scaled(raw, calib) == pytest.approx([0.5, 0.2 / 1.5, 0.3 / 2])
    # the same work on a host twice as slow scales to the same times
    assert worker.scaled([2 * t for t in raw], [2 * c for c in calib]) == pytest.approx(worker.scaled(raw, calib))
    assert worker.calibrate() > 0


def test_tail_keeps_ten_above():
    values = [float(v) for v in range(40)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == run.TAIL_ABOVE
    assert pct == pytest.approx(75.0)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    ok = {"instance_s": [0.001 * k for k in range(1, 30)], "solve_s": 1.0, "raw_solve_s": 1.2, "peak_rss_kb": 1024}
    values, _ = run.end_to_end([(ok, 0.0)], [0.1])
    assert [m["name"] for m in spec["end_to_end"]] == list(values)
    traced = layer_metrics(Tracer(), solve_s=1.0)
    produced = set(traced) | {"localcoh.cache_hit_ratio", "trace_overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    for layer, paths in TARGETS.items():
        for path in paths:
            assert f"{layer}.{path}.self_s" in produced
