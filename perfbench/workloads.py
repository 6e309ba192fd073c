"""The benchmark's workloads: seeded input generators, solvers and checks.

``generate(seed)`` returns plain JSON data and imports nothing from
torrigid, so the same seed always gives byte-identical inputs.  ``prepare``
turns that data into solver inputs (for ``cli_mix`` it writes the input
files); both belong to set-up.  ``solve`` makes the timed torrigid calls,
always looking functions up on their module at call time so that a tracer's
wrappers are seen.  ``check`` compares an output with an oracle and returns a
reason on failure; checks run after the timed solve loop.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from math import factorial, gcd
from typing import Callable

import oracles

# ---------------------------------------------------------------------------
# Small exact helpers for the generators (no torrigid)


def _det(matrix: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _rank(vectors: list[tuple[int, ...]]) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f, g = rows[i][col], rows[rank][col]
                rows[i] = [x * g - y * f for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _primitive(v: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points) -> list[tuple[int, int]]:
    """Strict convex hull vertices, counterclockwise (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    lower: list[tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _minimal_supports(sets) -> list[list[int]]:
    pool = sorted({frozenset(s) for s in sets}, key=lambda s: (len(s), sorted(s)))
    out: list[frozenset[int]] = []
    for s in pool:
        if not any(t <= s for t in out):
            out.append(s)
    return [sorted(s) for s in out]


def _balanced_draw(rng: random.Random, items: list, count: int) -> list:
    """``count`` items taken from seeded shuffles of ``items`` in turn, so every
    item appears floor(count/len) or ceil(count/len) times."""
    out: list = []
    while len(out) < count:
        perm = list(items)
        rng.shuffle(perm)
        out.extend(perm)
    return out[:count]


# ---------------------------------------------------------------------------
# surface_t1: cyclic quotient surfaces X(n, q)

# Instances per n.  Every coprime q is drawn equally often (balanced draw,
# every slot count a multiple of the number of residues), so the total work
# of a list varies little between seeds.  The 12 instances of X(3,1) and
# X(4,3), which cost about the same, sit in the middle of the sorted times,
# so the median instance is one of many: a median that fell on the two
# X(5,4) instances moved by 10-16% between seeds with their orientation.
SURFACE_SLOTS = {2: 8, 3: 16, 4: 8, 5: 8, 6: 4}
SURFACE_BOUND = 2


def surface_generate(seed: int) -> dict:
    """X(n, q) as the cone on (0,1), (n,-q), moved by a seeded signed
    permutation of the lattice coordinates with the two rays in a seeded
    order.  Signed permutations map the box [-bound, bound]^2 of characters
    to itself, so the bounded answer stays the closed form."""
    rng = random.Random(seed)
    instances = []
    for n, slots in SURFACE_SLOTS.items():
        residues = [q for q in range(1, n) if gcd(n, q) == 1]
        for q in _balanced_draw(rng, residues, slots):
            flip = rng.choice((1, -1)), rng.choice((1, -1))
            swap = rng.random() < 0.5
            rays = []
            for ray in ([0, 1], [n, -q]):
                x, y = ray[::-1] if swap else ray
                rays.append([flip[0] * x, flip[1] * y])
            rng.shuffle(rays)
            instances.append({"n": n, "q": q, "rays": rays})
    rng.shuffle(instances)
    return {"files": {}, "instances": instances}


def surface_solve(tr, inst, workdir):
    cone = tr.toric.affine_cone([tuple(r) for r in inst["rays"]])
    return tr.t1.t1_affine(cone, bound=SURFACE_BOUND).total


def surface_check(inst, output, outputs) -> str | None:
    expected = oracles.cyclic_quotient_t1(inst["n"], inst["q"])
    if output != expected:
        return f"X({inst['n']},{inst['q']}): t1 total {output}, closed form {expected}"
    return None


# ---------------------------------------------------------------------------
# strand_sweep: squarefree ideals, local cohomology against the Cech strand

# Ideals per number of variables; generator shape as in acceptance criterion 4.
STRAND_SLOTS = {3: 10, 4: 10, 5: 10, 6: 4}
STRAND_BOX = range(-2, 3)


def strand_generate(seed: int) -> dict:
    rng = random.Random(seed)
    instances = []
    seen = set()
    for m, slots in STRAND_SLOTS.items():
        made = 0
        while made < slots:
            count = rng.randint(1, min(m + 1, 5))
            gens = set()
            while len(gens) < count:
                gens.add(frozenset(rng.sample(range(m), rng.randint(1, m))))
            key = (m, tuple(tuple(g) for g in _minimal_supports(gens)))
            if key in seen:
                continue
            seen.add(key)
            instances.append({"m": m, "generators": [list(g) for g in key[1]]})
            made += 1
    rng.shuffle(instances)
    return {"files": {}, "instances": instances}


def strand_solve(tr, inst, workdir):
    m = inst["m"]
    b = tr.ideals.SquarefreeMonomialIdeal(m, tuple(frozenset(g) for g in inst["generators"]))
    piece = tr.localcoh.local_coh_piece
    cech = tr.localcoh.cech_piece
    simplicial, strand = [], []
    for p in itertools.product(STRAND_BOX, repeat=m):
        for i in range(m + 1):
            simplicial.append(piece(b, i, p).dimension)
            strand.append(cech(b, i, p))
    return simplicial, strand


def strand_check(inst, output, outputs) -> str | None:
    simplicial, strand = output
    if simplicial != strand:
        k = next(k for k, (a, c) in enumerate(zip(simplicial, strand)) if a != c)
        return f"ideal {inst['generators']}: comparison {k} gives {simplicial[k]} vs Cech {strand[k]}"
    return None


# ---------------------------------------------------------------------------
# cli_mix: a seeded mix of torrigid commands run in process

POLYGON_BOX = 2
POLYGON_SLOTS = {3: 3, 4: 3, 5: 2, 6: 2}  # polygons per vertex count
# Enough small fan commands that the median instance is one of them.
FAN_SLOTS = {"complete_2d": 8, "random": 8}
# Fermat hypersurfaces per number of Cox variables.  The cost of one `cy`
# command varies by about 10% with the coordinate change, so a list holds
# enough of them for the total to vary little between seeds.
CY_SLOTS = {5: 12, 6: 2}
CY_ENTRIES = (-1, 1)


def _random_polygon(rng: random.Random, vertices: int) -> list[list[int]]:
    """Lattice polygon in the box with primitive edges (all edge cones of
    the cone over it are smooth)."""
    grid = [(x, y) for x in range(-POLYGON_BOX, POLYGON_BOX + 1) for y in range(-POLYGON_BOX, POLYGON_BOX + 1)]
    while True:
        hull = _hull(rng.sample(grid, rng.randint(vertices, 2 * vertices)))
        if len(hull) != vertices:
            continue
        edges = [(hull[(k + 1) % vertices][0] - hull[k][0], hull[(k + 1) % vertices][1] - hull[k][1]) for k in range(vertices)]
        if all(gcd(dx, dy) == 1 for dx, dy in edges):
            rng.shuffle(hull)
            return [list(p) for p in hull]


def _complete_2d_fan(rng: random.Random) -> tuple[list, list]:
    """Complete fan in the plane: four to six primitive rays, every angular
    gap below a half turn, angularly adjacent rays spanning the maximal cones.

    Rays are listed in a random order: the irrelevant ideal depends on the
    labelling, so distinct labellings give distinct ideals."""
    while True:
        count = rng.randint(4, 6)
        rays = set()
        while len(rays) < count:
            v = (rng.randint(-2, 2), rng.randint(-2, 2))
            if any(v):
                rays.add(_primitive(v))
        ordered = sorted(rays, key=lambda v: math.atan2(v[1], v[0]))
        if all(
            _cross((0, 0), ordered[k], ordered[(k + 1) % count]) > 0 for k in range(count)
        ):
            labels = list(range(count))
            rng.shuffle(labels)
            rays_out = [None] * count
            for k, label in enumerate(labels):
                rays_out[label] = list(ordered[k])
            cones = [sorted((labels[k], labels[(k + 1) % count])) for k in range(count)]
            return rays_out, cones


def _random_fan(rng: random.Random) -> tuple[list, list]:
    """Rank two or three, three to six rays, simplicial cones of independent
    rays, every ray in some cone and no cone holding every ray."""
    while True:
        n = rng.choice([2, 3])
        m = rng.randint(3, 6)
        rays = set()
        while len(rays) < m:
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v):
                rays.add(_primitive(v))
        rays = sorted(rays)
        cones = set()
        for _ in range(rng.randint(1, 4)):
            idx = tuple(sorted(rng.sample(range(m), rng.randint(1, min(n, m - 1)))))
            if _rank([rays[i] for i in idx]) == len(idx):
                cones.add(idx)
        if cones and {i for c in cones for i in c} == set(range(m)):
            return [list(v) for v in rays], [list(c) for c in sorted(cones)]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for k in range(total, -1, -1):
        for rest in _compositions(total - k, parts - 1):
            yield (k,) + rest


def _fermat_under_change(rng: random.Random, num_vars: int) -> list[dict]:
    """Terms of sum_i (A y)_i^d, d = num_vars, for a random invertible A."""
    while True:
        a = [[rng.choice(CY_ENTRIES) for _ in range(num_vars)] for _ in range(num_vars)]
        if _det(a) != 0:
            break
    d = num_vars
    terms = []
    for e in _compositions(d, num_vars):
        multinomial = factorial(d)
        for x in e:
            multinomial //= factorial(x)
        coeff = 0
        for row in a:
            t = multinomial
            for aij, x in zip(row, e):
                t *= aij**x
            coeff += t
        if coeff:
            terms.append({"coeff": str(coeff), "exp": list(e)})
    return terms


def _projective_fan(dim: int) -> dict:
    rays = [[1 if j == i else 0 for j in range(dim)] for i in range(dim)] + [[-1] * dim]
    cones = [[j for j in range(dim + 1) if j != i] for i in range(dim + 1)]
    return {"name": f"P{dim}", "rays": rays, "max_cones": cones}


def cli_generate(seed: int) -> dict:
    rng = random.Random(seed)
    files: dict[str, dict] = {}
    groups: list[list[dict]] = []
    seen = set()
    for vertices, slots in POLYGON_SLOTS.items():
        made = 0
        while made < slots:
            poly = _random_polygon(rng, vertices)
            key = tuple(sorted(map(tuple, poly)))
            if key in seen:
                continue
            seen.add(key)
            name = f"polygon{len(groups)}"
            files[f"{name}.json"] = {"name": name, "vertices": poly}
            files[f"{name}_cone.json"] = {
                "name": f"{name} cone",
                "rays": [[x, y, 1] for x, y in poly],
                "max_cones": [list(range(vertices))],
            }
            expect = {"total": vertices - 3}
            groups.append(
                [
                    {"kind": "t1_polygon", "argv": ["t1", f"@{name}.json", "--polygon"], "expect": expect},
                    {"kind": "t1_cone", "argv": ["t1", f"@{name}_cone.json"], "expect": expect},
                    {"kind": "rigidity", "argv": ["rigidity", f"@{name}_cone.json"], "expect": expect},
                ]
            )
            made += 1
    ideals = set()
    for kind, slots in FAN_SLOTS.items():
        made = 0
        while made < slots:
            rays, cones = _complete_2d_fan(rng) if kind == "complete_2d" else _random_fan(rng)
            m = len(rays)
            ideal = (m, tuple(map(tuple, _minimal_supports(set(range(m)) - set(c) for c in cones))))
            if ideal in ideals:
                continue
            ideals.add(ideal)
            name = f"fan{len(groups)}"
            files[f"{name}.json"] = {"name": name, "rays": rays, "max_cones": cones}
            p = ",".join(str(rng.randint(-2, 2)) for _ in range(m))
            i = rng.randint(0, m)
            expect = {"num_rays": m, "complete": kind == "complete_2d"}
            groups.append(
                [
                    {"kind": "localcoh", "argv": ["localcoh", f"@{name}.json", f"--i={i}", f"--p={p}", "--oracle"], "expect": expect},
                    {"kind": "check_fan", "argv": ["check-fan", f"@{name}.json"], "expect": expect},
                ]
            )
            made += 1
    for num_vars, slots in CY_SLOTS.items():
        files[f"p{num_vars - 1}.json"] = _projective_fan(num_vars - 1)
        for _ in range(slots):
            name = f"hypersurface{len(groups)}"
            files[f"{name}.json"] = {"name": name, "terms": _fermat_under_change(rng, num_vars)}
            expect = {"dimension": oracles.bounded_exponent_count(num_vars, num_vars)}
            groups.append(
                [{"kind": "cy", "argv": ["cy", f"@p{num_vars - 1}.json", f"@{name}.json"], "expect": expect}]
            )
    rng.shuffle(groups)
    instances = []
    for group in groups:
        first = len(instances)
        for cmd in group:
            cmd["argv"] = cmd["argv"] + ["--format", "json"]
            if cmd["kind"] == "rigidity":
                cmd["t1_instance"] = first + 1
            instances.append(cmd)
    return {"files": files, "instances": instances}


def cli_solve(tr, inst, workdir):
    argv = [os.path.join(workdir, a[1:]) if a.startswith("@") else a for a in inst["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tr.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _report(output) -> dict:
    return json.loads(output[1]) if output[1] else {}


def cli_check(inst, output, outputs) -> str | None:
    code, _, err = output
    kind, expect = inst["kind"], inst["expect"]
    allowed = (0, 3) if kind == "rigidity" else (0,)
    if code not in allowed:
        return f"{' '.join(inst['argv'])}: exit {code} {err.strip()}"
    report = _report(output)
    if kind in ("t1_polygon", "t1_cone") and report.get("total") != expect["total"]:
        return f"{kind}: total {report.get('total')}, vertex count - 3 = {expect['total']}"
    if kind == "rigidity":
        if report.get("rigid") != (code == 0):
            return f"rigidity: verdict {report.get('rigid')} with exit {code}"
        t1_total = _report(outputs[inst["t1_instance"]]).get("total")
        if report["rigid"] and t1_total != 0:
            return f"rigidity: RIGID but t1 total {t1_total}"
    if kind == "cy" and report.get("dimension") != expect["dimension"]:
        return f"cy: dimension {report.get('dimension')}, bounded-exponent count {expect['dimension']}"
    if kind == "localcoh" and not (
        report.get("oracle_agrees") is True and report.get("dimension") == report.get("cech_dimension")
    ):
        return f"localcoh: dimension {report.get('dimension')} vs Cech {report.get('cech_dimension')}"
    if kind == "check_fan":
        if len(report.get("rays", ())) != expect["num_rays"]:
            return f"check-fan: {len(report.get('rays', ()))} rays, expected {expect['num_rays']}"
        if expect["complete"] and report.get("complete") is not True:
            return "check-fan: complete plane fan reported incomplete"
    return None


def cli_prepare(data: dict, workdir: str) -> None:
    for name, obj in data["files"].items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    generate: Callable[[int], dict]
    solve: Callable
    check: Callable
    prepare: Callable[[dict, str], None] = lambda data, workdir: None


# Why each workload was chosen is recorded in BENCHMARK.json and METRICS.md.
WORKLOADS = {
    "surface_t1": Workload(surface_generate, surface_solve, surface_check),
    "strand_sweep": Workload(strand_generate, strand_solve, strand_check),
    "cli_mix": Workload(cli_generate, cli_solve, cli_check, cli_prepare),
}
