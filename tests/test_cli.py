import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import torrigid
from torrigid import lattice, toric
from torrigid.cli import build_parser, main
from torrigid.lattice import SmithDecomposition

FANS = Path(__file__).resolve().parent.parent / "fans"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestT1Command:
    def test_square_cone_json(self, capsys):
        code, out, _ = run(capsys, "t1", FANS / "square_cone.json", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["total"] == 1
        assert report["der_dimension"] == 0
        assert report["homq_dimension"] == 1
        assert report["completeness"] == "guaranteed"

    def test_a1(self, capsys):
        code, out, _ = run(capsys, "t1", FANS / "a1_cone.json", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "simplicial"
        assert report["total"] == 1

    def test_polygon(self, capsys):
        code, out, _ = run(
            capsys, "t1", FANS / "hexagon_polygon.json", "--polygon", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["total"] == 3

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ rays: oops")
        code, _, err = run(capsys, "t1", bad)
        assert code == 1
        assert "line" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "t1", "no-such-file.json")
        assert code == 1

    def test_multi_cone_rejected(self, capsys):
        code, _, err = run(capsys, "t1", FANS / "p2.json")
        assert code == 1
        assert "one maximal cone" in err

    @pytest.mark.parametrize("name,total", [("a2_cone", 2), ("a3_cone", 3)])
    def test_a_series_fans(self, capsys, name, total):
        code, out, _ = run(capsys, "t1", FANS / f"{name}.json", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["total"] == total
        assert report["der_completeness"] == "guaranteed"

    def test_infinite_derivation_part(self, capsys):
        # the cone is singular along a curve; a window of characters gave a
        # finite total that grew with the window
        start = time.perf_counter()
        code, out, _ = run(capsys, "t1", FANS / "infinite_der_cone.json", "--format", "json")
        assert time.perf_counter() - start < 1
        assert code == 0
        report = json.loads(out)
        assert (report["total"], report["completeness"]) == ("infinite", "infinite")
        assert (report["mode"], report["witness_face"]) == ("non_rigid_face", {"rays": [1, 3], "t1": 1})
        code, out, _ = run(capsys, "t1", FANS / "infinite_der_cone.json")
        assert code == 0 and "total: infinite" in out

    def test_non_rigid_face(self, capsys):
        # the cone over a square pyramid is transversally the cone over the
        # square along the curve of its base face
        code, out, _ = run(capsys, "t1", FANS / "pyramid_cone.json", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert (report["mode"], report["total"], report["completeness"]) == ("non_rigid_face", "infinite", "infinite")
        assert report["witness_face"] == {"rays": [1, 2, 3, 4], "t1": 1}
        assert "der_dimension" not in report and "homq_dimension" not in report

    def test_listed_face_dropped(self, tmp_path, capsys):
        # the square cone plus its edge [0, 1] is still one affine cone
        f = tmp_path / "fan.json"
        rays = [[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]]
        f.write_text(json.dumps({"rays": rays, "max_cones": [[0, 1, 2, 3], [0, 1]]}))
        code, out, _ = run(capsys, "t1", f, "--format", "json")
        report = json.loads(out)
        assert (code, report["total"]) == (0, 1)
        assert report["warnings"] == ["cone [0, 1] is a face of cone [0, 1, 2, 3]; dropped"]

    def test_non_extremal_ray_rejected(self, tmp_path, capsys):
        f = tmp_path / "fan.json"
        f.write_text(json.dumps({"rays": [[1, 0], [1, 1], [0, 1]], "max_cones": [[0, 1, 2]]}))
        code, out, err = run(capsys, "t1", f, "--format", "json")
        assert (code, out) == (1, "")
        assert "ray 1 is not extremal in cone [0, 1, 2]" in err

    # t1 has no search bound: --bound and TORRIGID_BOUND are the gamma
    # criterion's, and t1 rejects the one and ignores the other

    def test_env_bound(self, capsys, monkeypatch):
        monkeypatch.delenv("TORRIGID_BOUND", raising=False)
        _, plain, _ = run(capsys, "t1", FANS / "a1_cone.json", "--format", "json")
        monkeypatch.setenv("TORRIGID_BOUND", "3")
        code, out, _ = run(capsys, "t1", FANS / "a1_cone.json", "--format", "json")
        assert (code, out) == (0, plain)
        code, out, _ = run(
            capsys, "rigidity", FANS / "a1_cone.json", "--criterion", "gamma", "--format", "json"
        )
        assert code == 3
        assert json.loads(out)["certificates"][0]["search_bound"] == 3

    @pytest.mark.parametrize("bound", ["-1", "0"])
    def test_nonpositive_bound_rejected(self, capsys, monkeypatch, bound):
        monkeypatch.delenv("TORRIGID_BOUND", raising=False)
        code, out, err = run(
            capsys, "rigidity", FANS / "a1_cone.json", "--criterion", "gamma", "--bound", bound
        )
        assert (code, out) == (1, "")
        assert f"--bound must be at least 1, got {bound}" in err

    def test_nonpositive_env_bound_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("TORRIGID_BOUND", "-2")
        code, out, err = run(capsys, "rigidity", FANS / "a1_cone.json", "--criterion", "gamma")
        assert (code, out) == (1, "")
        assert "TORRIGID_BOUND must be at least 1, got -2" in err
        code, _, _ = run(capsys, "t1", FANS / "a1_cone.json")
        assert code == 0

    @pytest.mark.parametrize(
        "vertices",
        [
            [[True, 0], [0, 1], [-1, -1]],
            [[0.5, 0], [0, 1], [-1, -1]],
            [["1", 0], [0, 1], [-1, -1]],
            5,
        ],
        ids=["bool", "float", "string", "not_a_list"],
    )
    def test_polygon_vertices_validated(self, tmp_path, capsys, vertices):
        path = tmp_path / "polygon.json"
        path.write_text(json.dumps({"vertices": vertices}))
        code, out, err = run(capsys, "t1", path, "--polygon", "--format", "json")
        assert (code, out) == (1, "")
        assert "field 'vertices' must be a list of integer pairs" in err


class TestRigidityCommand:
    def test_zero_bound_rejected(self, capsys, monkeypatch):
        monkeypatch.delenv("TORRIGID_BOUND", raising=False)
        code, out, err = run(
            capsys, "rigidity", FANS / "a1_cone.json", "--criterion", "gamma", "--bound", "0"
        )
        assert (code, out) == (1, "")
        assert "--bound must be at least 1, got 0" in err

    def test_default_gamma_bound(self, capsys, monkeypatch):
        monkeypatch.delenv("TORRIGID_BOUND", raising=False)
        code, out, _ = run(
            capsys, "rigidity", FANS / "a1_cone.json", "--criterion", "gamma", "--format", "json"
        )
        assert code == 3
        assert json.loads(out)["certificates"][0]["search_bound"] == 8

    def test_third_cone_rigid(self, capsys):
        code, out, _ = run(
            capsys, "rigidity", FANS / "third_cone.json", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        verdicts = {c["criterion"]: c["verdict"] for c in report["certificates"]}
        assert verdicts["qgorenstein"] == "rigid"
        assert verdicts["quotient"] == "rigid"

    def test_wps_not_rigid(self, capsys):
        code, out, _ = run(capsys, "rigidity", "--wps", "1,1,2,2", "--format", "json")
        assert code == 3
        report = json.loads(out)
        assert report["certificates"][0]["verdict"] == "condition_not_satisfied"

    def test_wps_rigid(self, capsys):
        code, out, _ = run(capsys, "rigidity", "--wps", "1,1,2,3", "--format", "json")
        assert code == 0

    def test_fano(self, capsys):
        code, out, _ = run(
            capsys, "rigidity", FANS / "p2.json", "--criterion", "fano", "--format", "json"
        )
        assert code == 0

    def test_square_cone_not_certified(self, capsys):
        code, out, _ = run(capsys, "rigidity", FANS / "square_cone.json", "--format", "json")
        assert code == 3

    def test_requires_one_input(self, capsys):
        code, _, err = run(capsys, "rigidity")
        assert code == 1


class TestLocalcohCommand:
    def test_square_top_with_oracle(self, capsys):
        code, out, _ = run(
            capsys,
            "localcoh",
            FANS / "square_faces.json",
            "--i", "3",
            "--p=-1,-1,-1,-1",
            "--oracle",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["dimension"] == 1
        assert report["cech_dimension"] == 1
        assert report["oracle_agrees"] is True

    def test_h2_components(self, capsys):
        code, out, _ = run(
            capsys,
            "localcoh",
            FANS / "square_faces.json",
            "--i", "2",
            "--p=-1,0,-1,0",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["dimension"] == 1
        assert report["gamma_components"] == [[1], [3]]
        assert report["h2_via_graph"] == 1

    def test_wrong_length(self, capsys):
        code, _, err = run(
            capsys, "localcoh", FANS / "square_faces.json", "--i", "2", "--p=-1,0"
        )
        assert code == 1


class TestCyCommand:
    def test_quintic(self, capsys):
        code, out, _ = run(
            capsys, "cy", FANS / "p4.json", FANS / "fermat_quintic.json", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["dimension"] == 101
        assert report["monomial_count"] == 126

    def test_k3_gate(self, capsys):
        code, out, _ = run(
            capsys, "cy", FANS / "p3.json", FANS / "fermat_quartic.json", "--format", "json"
        )
        assert code == 2
        report = json.loads(out)
        failed = [h["name"] for h in report["hypotheses"] if h["status"] == "failed"]
        assert "dim_at_least_4" in failed

    def test_degree_mismatch(self, capsys):
        code, out, _ = run(
            capsys, "cy", FANS / "p4.json", FANS / "degree4_on_p4.json", "--format", "json"
        )
        assert code == 2
        report = json.loads(out)
        bad = [h for h in report["hypotheses"] if h["name"] == "degree_anticanonical"]
        assert bad[0]["status"] == "failed"
        assert "4, 0, 0, 0, 0" in bad[0]["detail"]

    def test_boolean_exponent_rejected(self, tmp_path, capsys):
        poly = json.loads((FANS / "fermat_quintic.json").read_text())
        poly["terms"][0]["exp"] = [True, 0, 0, 0, 4]
        f = tmp_path / "poly.json"
        f.write_text(json.dumps(poly))
        code, out, err = run(capsys, "cy", FANS / "p4.json", f, "--format", "json")
        assert code == 1
        assert not out
        assert "term 0 has a bad exponent vector" in err


class TestCheckFan:
    def test_p2(self, capsys):
        code, out, _ = run(capsys, "check-fan", FANS / "p2.json", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["complete"] is True
        assert report["fano"] is True
        assert report["class_group"]["free_rank"] == 1

    def test_warning_on_nonprimitive(self, tmp_path, capsys):
        f = tmp_path / "fan.json"
        f.write_text(json.dumps({"rays": [[2, 0], [0, 1]], "max_cones": [[0, 1]]}))
        code, out, _ = run(capsys, "check-fan", f, "--format", "json")
        assert code == 0
        assert json.loads(out)["warnings"]


    def test_boolean_ray_entry_rejected(self, tmp_path, capsys):
        f = tmp_path / "fan.json"
        f.write_text(json.dumps({"rays": [[True, 0], [0, 1]], "max_cones": [[0, 1]]}))
        code, out, err = run(capsys, "check-fan", f, "--format", "json")
        assert code == 1
        assert not out
        assert "field 'rays' must be a list of integer vectors" in err

    def test_boolean_cone_index_rejected(self, tmp_path, capsys):
        f = tmp_path / "fan.json"
        f.write_text(json.dumps({"rays": [[1, 0], [0, 1]], "max_cones": [[False, True]]}))
        code, out, err = run(capsys, "check-fan", f, "--format", "json")
        assert code == 1
        assert not out
        assert "field 'max_cones' must be a list of index lists" in err

    def test_bound_rejected(self, capsys):
        for argv in (["check-fan", str(FANS / "p2.json")], ["t1", str(FANS / "a1_cone.json")]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--bound", "3"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --bound 3" in capsys.readouterr().err


class TestToricPredicateCalls:
    """The toric predicates of ``cy``, ``check-fan`` and ``t1`` run on
    integer minors: no Smith solve per term and no Fourier-Motzkin
    feasibility test (faces, vertices and orthant probes come from the
    facet normals)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"solve": 0, "rational_feasible": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SmithDecomposition, "solve", counting("solve", SmithDecomposition.solve))
        monkeypatch.setattr(
            lattice, "rational_feasible", counting("rational_feasible", lattice.rational_feasible)
        )
        return counts

    def test_cy(self, capsys, calls):
        code, _, _ = run(capsys, "cy", FANS / "p4.json", FANS / "fermat_quintic.json")
        assert code == 0
        assert calls == {"solve": 0, "rational_feasible": 0}

    def test_check_fan(self, capsys, calls):
        code, _, _ = run(capsys, "check-fan", FANS / "p4.json")
        assert code == 0
        assert calls["rational_feasible"] == 0

    @pytest.mark.parametrize("argv", [["hexagon_cone.json"], ["hexagon_polygon.json", "--polygon"]])
    def test_t1_hexagon(self, capsys, calls, argv):
        code, _, _ = run(capsys, "t1", FANS / argv[0], *argv[1:])
        assert code == 0
        assert calls["rational_feasible"] == 0


class TestReportContract:
    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "t1", FANS / "square_cone.json", "--format", "json")
        _, out2, _ = run(capsys, "t1", FANS / "square_cone.json", "--format", "json")
        assert out1.encode() == out2.encode()

    def test_round_trip(self, capsys):
        _, out, _ = run(capsys, "cy", FANS / "p4.json", FANS / "fermat_quintic.json", "--format", "json")
        report = json.loads(out)
        assert json.dumps(report, sort_keys=True, indent=2) + "\n" == out

    def test_text_format_runs(self, capsys):
        code, out, _ = run(capsys, "t1", FANS / "square_cone.json")
        assert code == 0
        assert "total: 1" in out

    def test_one_parser_per_process(self, capsys):
        # the parser is built once; commands run one after another in one
        # process print what fresh processes print
        commands = [
            ["check-fan", FANS / "p2.json", "--format", "json"],
            ["localcoh", FANS / "square_faces.json", "--i", "3", "--p=-1,-1,-1,-1", "--oracle"],
            ["check-fan", FANS / "p2.json"],
            ["rigidity", FANS / "p2.json", "--criterion", "fano"],
            ["t1", FANS / "square_cone.json", "--format", "json"],
        ]
        src = str(Path(torrigid.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for argv in commands:
            code, out, err = run(capsys, *argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "torrigid.cli", *map(str, argv)],
                capture_output=True, env=env, check=False,
            )
            assert (code, out.encode(), err.encode()) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert build_parser() is build_parser()
