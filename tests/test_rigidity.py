import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from search_oracles import shell_scan
from toric_oracles import halfspace_slice_connected, proper_faces_fan
import torrigid
from torrigid import lattice
from torrigid.lattice import AffineSystem, BoundExceeded, Witness
from torrigid.rigidity import (
    Hypothesis,
    RigidityCertificate,
    Verdict,
    der_vanishing_gamma,
    fano_rigidity,
    qgorenstein_rigidity,
    quotient_rigidity,
    wps_rigidity,
)
from torrigid.toric import (
    WeightSystem,
    _is_vertex,
    _lifted_faces,
    affine_cone,
    graph_gamma,
    graph_gamma_f,
    singular_codim,
    smooth_subfan,
    validate_fan,
)

FANS = Path(__file__).resolve().parent.parent / "fans"


class TestDerVanishingGamma:
    def test_square_cone(self, square_cone):
        cert = der_vanishing_gamma(square_cone, search_bound=4)
        assert cert.verdict is Verdict.DER_PART_VANISHES

    def test_third_cone(self, third_cone):
        cert = der_vanishing_gamma(third_cone, search_bound=4)
        assert cert.verdict is Verdict.DER_PART_VANISHES

    def test_a1_inconclusive(self, a1_cone):
        cert = der_vanishing_gamma(a1_cone, search_bound=4)
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert cert.hypotheses[0].name == "smooth_in_codim_2"
        assert cert.hypotheses[0].status == "failed"

    def test_two_face_graph_is_the_smooth_subfan_graph(self, square_cone, hexagon_cone):
        # on a cone smooth in codimension 2 every two-dimensional face is
        # smooth, so the patterns are tested on the graph of the smooth subfan
        for cone in [square_cone, hexagon_cone] + random_cones(3201, 200):
            assert graph_gamma_f(cone) == graph_gamma(smooth_subfan(cone)), cone.fan.rays

    def test_refuses_huge_cones(self, square_cone):
        big = [(i, 1, 1) for i in range(21)]
        with pytest.raises(ValueError, match="20"):
            der_vanishing_gamma(affine_cone(big), search_bound=2)

    @pytest.mark.parametrize("bound", [0, -5])
    def test_refuses_bound_below_one(self, square_cone, bound):
        # also where no pattern needs a search: every pattern of this
        # simplicial cone has a connected graph
        for cone in (affine_cone([(1, 0, 0), (0, 1, 0), (1, 1, 3)]), square_cone):
            with pytest.raises(ValueError, match="search_bound must be >= 1"):
                der_vanishing_gamma(cone, search_bound=bound)

    def test_one_smith_form_per_ray(self, monkeypatch):
        # every pattern of ray i shares the equality <u, v_i> = -1, whose
        # lattice parametrization is computed once; the hexagon searches
        # 96 patterns, and every search is bounded, so none projects the
        # system variable by variable
        lattice._parametrization.cache_clear()
        calls = []
        smith = lattice.smith_normal_form

        def counting(m):
            calls.append(m)
            return smith(m)

        def refuse(rows, num_vars):
            raise AssertionError("variable_bounds on a bounded system")

        monkeypatch.setattr(lattice, "smith_normal_form", counting)
        monkeypatch.setattr(lattice, "variable_bounds", refuse)
        rays = json.loads((FANS / "hexagon_cone.json").read_text())["rays"]
        cert = der_vanishing_gamma(affine_cone([tuple(v) for v in rays]))
        assert cert.verdict is Verdict.DER_PART_VANISHES
        assert 0 < len(calls) <= len(rays)


def gamma_reference(cone, search_bound):
    """(verdict, reason) of the gamma criterion from its definition, with
    every disconnected pattern decided by the shell scan."""
    if singular_codim(cone) < 3:
        return Verdict.INCONCLUSIVE, "cone is not smooth in codimension 2"
    graph = graph_gamma_f(cone)
    rays = cone.fan.rays
    exceeded = None
    for i in sorted(cone.indices):
        others = sorted(cone.indices - {i})
        for r in range(len(others) + 1):
            for pattern in itertools.combinations(others, r):
                if graph.induced(frozenset(pattern)).is_connected():
                    continue
                system = AffineSystem(
                    cone.fan.ambient_rank,
                    ((rays[i], -1),),
                    tuple((tuple(-c for c in rays[j]), 1) for j in pattern)
                    + tuple((rays[j], 0) for j in others if j not in pattern),
                )
                answer, _ = shell_scan(system, search_bound)
                if isinstance(answer, Witness):
                    return (
                        Verdict.CONDITION_NOT_SATISFIED,
                        f"ray {i}, pattern {list(pattern)}, covector {answer.point}"
                        " realizes a disconnected graph",
                    )
                if isinstance(answer, BoundExceeded):
                    exceeded = f"ray {i}, pattern {list(pattern)}"
    if exceeded is not None:
        return Verdict.INCONCLUSIVE, f"search bound exhausted at {exceeded}"
    return Verdict.DER_PART_VANISHES, ""


def random_cones(seed, count):
    """Full cones on 3-6 random rays in Z^3 or Z^4 that are smooth in
    codimension 2."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.choice((3, 4))
        rays = {
            tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (rng.randint(1, 2),)
            for _ in range(rng.randint(d, d + 2))
        }
        try:
            cone = affine_cone(sorted(rays))
        except ValueError:  # a ray inside the cone of the others
            continue
        if cone.dim == d and singular_codim(cone) >= 3:
            out.append(cone)
    return out


def test_gamma_matches_shell_scan_reference():
    shipped = [
        affine_cone([tuple(v) for v in json.loads(path.read_text())["rays"]])
        for path in sorted(FANS.glob("*_cone.json"))
    ]
    verdicts = []
    for cone in shipped + random_cones(2901, 60):
        for bound in (1, 3):
            cert = der_vanishing_gamma(cone, search_bound=bound)
            assert (cert.verdict, cert.reason) == gamma_reference(cone, bound), cone.fan.rays
            verdicts.append(cert.verdict)
    assert verdicts.count(Verdict.CONDITION_NOT_SATISFIED) >= 4


class TestQGorensteinRigidity:
    def test_third_cone_rigid(self, third_cone):
        cert = qgorenstein_rigidity(third_cone)
        assert cert.verdict is Verdict.RIGID
        assert cert.reason == ""

    def test_square_cone_not(self, square_cone):
        cert = qgorenstein_rigidity(square_cone)
        assert cert.verdict is Verdict.CONDITION_NOT_SATISFIED
        failing = {h.name for h in cert.hypotheses if h.status == "failed"}
        assert failing == {"simplicial_in_codim_3"}

    def test_smooth_cone_rigid(self):
        cone = affine_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert qgorenstein_rigidity(cone).verdict is Verdict.RIGID

    def test_every_failed_hypothesis_named(self):
        # the reason lists the failed hypotheses in the order they are reported
        cone = affine_cone([(1, 2, -1), (2, 1, -1), (2, -2, 1), (2, 0, 1)])
        cert = qgorenstein_rigidity(cone)
        assert cert.verdict is Verdict.CONDITION_NOT_SATISFIED
        assert cert.reason == "q_gorenstein; smooth_in_codim_2; simplicial_in_codim_3"
        cert = quotient_rigidity(cone)
        assert cert.verdict is Verdict.CONDITION_NOT_SATISFIED
        assert cert.reason == "simplicial; smooth_in_codim_2"


class TestQuotientRigidity:
    def test_third_cone(self, third_cone):
        assert quotient_rigidity(third_cone).verdict is Verdict.RIGID

    def test_a1(self, a1_cone):
        cert = quotient_rigidity(a1_cone)
        assert cert.verdict is Verdict.CONDITION_NOT_SATISFIED

    def test_smooth(self):
        cone = affine_cone([(1, 0), (0, 1)])
        assert quotient_rigidity(cone).verdict is Verdict.RIGID


class TestFanoRigidity:
    def test_p2(self, p2_fan):
        assert fano_rigidity(p2_fan).verdict is Verdict.RIGID

    def test_p4(self, p4_fan):
        assert fano_rigidity(p4_fan).verdict is Verdict.RIGID

    def test_weighted_simplex(self):
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -3)]
        cones = [tuple(j for j in range(4) if j != i) for i in range(4)]
        fan = validate_fan(rays, cones)
        cert = fano_rigidity(fan)
        assert cert.verdict is Verdict.RIGID
        assert any(h.name.startswith("cone_") for h in cert.hypotheses)

    def test_not_complete(self, square_cone):
        cert = fano_rigidity(proper_faces_fan(square_cone))
        assert cert.verdict is Verdict.CONDITION_NOT_SATISFIED
        assert cert.reason == "completeness"

    def test_f2_not_fano(self, f2_fan):
        cert = fano_rigidity(f2_fan)
        assert cert.verdict is Verdict.CONDITION_NOT_SATISFIED
        failing = {h.name for h in cert.hypotheses if h.status == "failed"}
        assert "fano" in failing
        assert cert.reason == "fano"


class TestWpsRigidity:
    def test_rigid(self):
        assert wps_rigidity(WeightSystem((1, 1, 2, 3))).verdict is Verdict.RIGID

    def test_not_rigid(self):
        cert = wps_rigidity(WeightSystem((1, 1, 2, 2)))
        assert cert.verdict is Verdict.CONDITION_NOT_SATISFIED
        assert "2" in cert.reason

    def test_projective_space(self):
        assert wps_rigidity(WeightSystem((1, 1, 1, 1, 1))).verdict is Verdict.RIGID


SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


class TestPolytopeConnectivity:
    """The hull edges of ``toric._lifted_faces`` on a closed halfspace through
    a vertex, that vertex left out, form a connected graph."""

    def test_unit_square(self):
        assert halfspace_slice_connected(SQUARE, (0, 0), (1, 0))

    def test_triangle(self):
        assert halfspace_slice_connected([(0, 0), (2, 0), (0, 2)], (0, 0), (1, 1))

    def test_cube_interior_cut(self):
        cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        assert halfspace_slice_connected(cube, (0, 0, 0), (1, 1, -1))

    def test_edge_graph_of_square(self):
        edges = {f for f in _lifted_faces(SQUARE) if len(f) == 2}
        assert edges == {
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
            frozenset({0, 3}),
        }

    def test_fuzz_small(self):
        rng = random.Random(31415)
        checked = 0
        while checked < 30:
            dim = rng.choice([2, 3])
            raw = {
                tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(dim + 1, 7))
            }
            pts = sorted(raw)
            if len(pts) < dim + 1:
                continue
            verts = [p for i, p in enumerate(pts) if _is_vertex(pts, i)]
            if len(verts) < 3:
                continue
            v = rng.choice(verts)
            normal = tuple(rng.randint(-3, 3) for _ in range(dim))
            if not any(normal):
                continue
            assert halfspace_slice_connected(verts, v, normal), (verts, v, normal)
            checked += 1


class TestCertificateInvariant:
    """A RIGID or DER_PART_VANISHES certificate has every hypothesis
    satisfied; the check is a ValueError, so ``python -O`` keeps it."""

    HYPS = (
        Hypothesis("codim", "satisfied"),
        Hypothesis("gorenstein", "failed", "index 2"),
        Hypothesis("fano", "unknown"),
    )

    @pytest.mark.parametrize("verdict", [Verdict.RIGID, Verdict.DER_PART_VANISHES])
    def test_positive_verdict_rejects_unsatisfied_hypothesis(self, verdict):
        with pytest.raises(ValueError) as err:
            RigidityCertificate("c", verdict, self.HYPS)
        assert str(err.value) == (
            f"verdict {verdict.value} needs every hypothesis satisfied; 'gorenstein' is failed"
        )
        with pytest.raises(ValueError, match="'fano' is unknown"):
            RigidityCertificate("c", verdict, self.HYPS[2:])

    def test_other_verdicts_accept_any_hypotheses(self):
        for verdict in (Verdict.CONDITION_NOT_SATISFIED, Verdict.INCONCLUSIVE):
            assert RigidityCertificate("c", verdict, self.HYPS).hypotheses == self.HYPS
        assert RigidityCertificate("c", Verdict.RIGID, self.HYPS[:1]).is_rigid

    def test_check_survives_optimized_mode(self):
        src = str(Path(torrigid.__file__).resolve().parents[1])
        code = (
            "from torrigid.rigidity import Hypothesis, RigidityCertificate, Verdict\n"
            "try:\n"
            "    RigidityCertificate('c', Verdict.RIGID, (Hypothesis('h', 'failed'),))\n"
            "except ValueError as e:\n"
            "    print(e)\n"
        )
        fresh = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert fresh.stdout == "verdict rigid needs every hypothesis satisfied; 'h' is failed\n"
