import json
import math

import pytest

from affine12.cli import main
from affine12.linalg3 import Vec3, gram
from affine12.meshblend import TriMesh, load_obj, save_obj
from affine12.param import HomAffine3
from conftest import axis_angle_rotation, vec_dist

IDENTITY_ROWS = [1.0, 0.0, 0.0, 0.0,
                 0.0, 1.0, 0.0, 0.0,
                 0.0, 0.0, 1.0, 0.0]


def write_transforms(path, entries):
    path.write_text(json.dumps({"transforms": entries}))


def read_doc(path):
    return json.loads(path.read_text())


def rotation_rows(axis, angle, translation=(0.0, 0.0, 0.0)):
    r = axis_angle_rotation(axis, angle)
    t = translation
    return [r.a11, r.a12, r.a13, t[0],
            r.a21, r.a22, r.a23, t[1],
            r.a31, r.a32, r.a33, t[2]]


class TestParamUnparam:
    def test_identity_to_zero_params(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        out = tmp_path / "out.json"
        write_transforms(src, [{"matrix": IDENTITY_ROWS}])
        assert main(["param", str(src), "-o", str(out)]) == 0
        doc = read_doc(out)
        assert doc["transforms"] == [{"param": [0.0] * 12}]

    def test_pipeline_roundtrip_stable(self, tmp_path):
        src = tmp_path / "in.json"
        mid = tmp_path / "params.json"
        back = tmp_path / "back.json"
        again = tmp_path / "params2.json"
        rows = rotation_rows((0.0, 0.0, 1.0), 2.4, (0.5, -1.0, 2.0))
        write_transforms(src, [{"matrix": rows}])
        assert main(["param", str(src), "-o", str(mid)]) == 0
        assert main(["unparam", str(mid), "-o", str(back)]) == 0
        assert main(["param", str(back), "-o", str(again)]) == 0
        p1 = read_doc(mid)["transforms"][0]["param"]
        p2 = read_doc(again)["transforms"][0]["param"]
        assert all(abs(a - b) <= 1e-9 for a, b in zip(p1, p2))

    def test_negative_determinant_exits_2_naming_index(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        flipped = list(IDENTITY_ROWS)
        flipped[0] = -1.0
        write_transforms(src, [{"matrix": IDENTITY_ROWS}, {"matrix": flipped}])
        assert main(["param", str(src)]) == 2
        err = capsys.readouterr().err
        assert "transforms[1]" in err
        assert "determinant" in err

    def test_consistent_with_tracks_full_turn(self, tmp_path):
        src = tmp_path / "in.json"
        refs = tmp_path / "refs.json"
        out = tmp_path / "out.json"
        write_transforms(src, [{"matrix": IDENTITY_ROWS}])  # a full turn's matrix
        two_pi = 2.0 * math.pi
        write_transforms(refs, [{"param": [0, 0, 0, -two_pi, 0, 0, 0, 0, 0, 0, 0, 0]}])
        assert main(["param", str(src), "--consistent-with", str(refs),
                     "-o", str(out)]) == 0
        got = read_doc(out)["transforms"][0]["param"]
        assert abs(got[3] + two_pi) <= 1e-12

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        src.write_text("{not json")
        assert main(["param", str(src)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_nonfinite_rejected(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        src.write_text('{"transforms": [{"matrix": [1,0,0,0,0,1,0,0,0,0,1,NaN]}]}')
        assert main(["param", str(src)]) == 2


class TestBlendCommand:
    def test_single_weight_reproduces(self, tmp_path):
        src = tmp_path / "in.json"
        out = tmp_path / "out.json"
        rows = rotation_rows((0.0, 1.0, 0.0), 1.1, (1.0, 2.0, 3.0))
        write_transforms(src, [{"matrix": rows}])
        assert main(["blend", str(src), "--weights", "1", "-o", str(out)]) == 0
        got = read_doc(out)["transforms"][0]["matrix"]
        assert all(abs(a - b) <= 1e-10 for a, b in zip(got, rows))

    def test_weight_count_mismatch_exits_2(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        write_transforms(src, [{"matrix": IDENTITY_ROWS}])
        assert main(["blend", str(src), "--weights", "0.5,0.5"]) == 2

    def test_consistent_with_picks_reference_branch(self, tmp_path):
        # the full turn's matrix pulled back on the -2*pi branch, halved,
        # is a half turn; on the principal branch it would stay the identity
        src = tmp_path / "in.json"
        refs = tmp_path / "refs.json"
        out = tmp_path / "out.json"
        write_transforms(src, [{"matrix": IDENTITY_ROWS}])
        two_pi = 2.0 * math.pi
        write_transforms(refs, [{"param": [0, 0, 0, -two_pi, 0, 0, 0, 0, 0, 0, 0, 0]}])
        assert main(["blend", str(src), "--weights", "0.5",
                     "--consistent-with", str(refs), "-o", str(out)]) == 0
        got = read_doc(out)["transforms"][0]["matrix"]
        assert abs(got[0] + 1.0) <= 1e-12


class TestInterpCommand:
    def test_rotation_track_samples_orthogonal(self, tmp_path):
        track = tmp_path / "track.json"
        out = tmp_path / "out.json"
        knots = [{"time": 0.0, "matrix": rotation_rows((0, 0, 1), 0.3)},
                 {"time": 1.0, "matrix": rotation_rows((0, 0, 1), 2.1)}]
        track.write_text(json.dumps({"knots": knots}))
        assert main(["interp", str(track), "--samples", "10", "-o", str(out)]) == 0
        doc = read_doc(out)
        assert len(doc["transforms"]) == 10
        for entry in doc["transforms"]:
            a = HomAffine3.from_rows(entry["matrix"])
            g = gram(a.linear)
            resid = math.sqrt((g.xx - 1) ** 2 + (g.yy - 1) ** 2 + (g.zz - 1) ** 2
                              + 2 * (g.xy ** 2 + g.xz ** 2 + g.yz ** 2))
            assert resid <= 1e-9

    def test_matrix_knots_chain_branches(self, tmp_path):
        # z-rotations by 0, 2 and 4 rad: each knot's log is taken nearest the
        # previous one, so the track winds past pi instead of jumping back
        track = tmp_path / "track.json"
        out = tmp_path / "out.json"
        knots = [{"time": float(k), "matrix": rotation_rows((0, 0, 1), 2.0 * k)}
                 for k in range(3)]
        track.write_text(json.dumps({"knots": knots}))
        assert main(["interp", str(track), "--samples", "5", "--curve", "linear",
                     "-o", str(out)]) == 0
        m = read_doc(out)["transforms"][3]["matrix"]
        assert abs(math.atan2(m[4], m[0]) - 3.0) <= 1e-9

    def test_unsorted_times_rejected(self, tmp_path, capsys):
        track = tmp_path / "track.json"
        knots = [{"time": 1.0, "matrix": IDENTITY_ROWS},
                 {"time": 0.0, "matrix": IDENTITY_ROWS}]
        track.write_text(json.dumps({"knots": knots}))
        assert main(["interp", str(track), "--samples", "5"]) == 2


class TestMeshblendCommand:
    def test_zero_weights_reproduce_rest(self, tmp_path):
        from test_meshblend import grid_mesh, warp_mesh

        rest = grid_mesh(4, 4)
        target = warp_mesh(rest)
        rest_path = tmp_path / "rest.obj"
        target_path = tmp_path / "target.obj"
        out_path = tmp_path / "out.obj"
        save_obj(str(rest_path), rest)
        save_obj(str(target_path), target)
        assert main(["meshblend", str(rest_path), str(target_path),
                     "--weights", "0", "-o", str(out_path)]) == 0
        out = load_obj(str(out_path))
        for got, want in zip(out.vertices, rest.vertices):
            assert vec_dist(got, want) <= 1e-8

    def test_incompatible_meshes_exit_2(self, tmp_path, capsys):
        from test_meshblend import grid_mesh

        rest_path = tmp_path / "rest.obj"
        bad_path = tmp_path / "bad.obj"
        save_obj(str(rest_path), grid_mesh(2, 2))
        save_obj(str(bad_path), grid_mesh(3, 2))
        assert main(["meshblend", str(rest_path), str(bad_path),
                     "--weights", "1"]) == 2

    def test_degenerate_target_face_exit_2_names_it(self, tmp_path, capsys):
        from test_meshblend import grid_mesh

        rest = grid_mesh(2, 2)
        flat = TriMesh([Vec3(v.x, 0.0, 0.0) for v in rest.vertices], list(rest.faces))
        rest_path = tmp_path / "rest.obj"
        flat_path = tmp_path / "flat.obj"
        save_obj(str(rest_path), rest)
        save_obj(str(flat_path), flat)
        assert main(["meshblend", str(rest_path), str(flat_path), "--weights", "1"]) == 2
        assert "target 0 face 0" in capsys.readouterr().err

    def test_solver_stall_exit_3(self, tmp_path, monkeypatch):
        import affine12.meshblend
        from test_meshblend import grid_mesh, warp_mesh

        # a zero tolerance is out of reach, so the solve runs to its cap
        monkeypatch.setattr(affine12.meshblend, "_CG_RTOL", 0.0)
        rest = grid_mesh(3, 3)
        rest_path = tmp_path / "rest.obj"
        target_path = tmp_path / "target.obj"
        save_obj(str(rest_path), rest)
        save_obj(str(target_path), warp_mesh(rest))
        assert main(["meshblend", str(rest_path), str(target_path),
                     "--weights", "0.5"]) == 3


class TestBenchCommand:
    def test_smoke_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--kind", "both", "--n", "1000",
                     "--seed", "3", "-o", str(out)]) == 0
        text = out.read_text().splitlines()
        headers = [ln for ln in text if ln == "name,n,max_sq_frob_error,mean_ns_per_call,speed_ratio"]
        assert len(headers) == 2  # one per report
        assert any(ln.startswith("affine_roundtrip,") for ln in text)
        assert any(ln.startswith("exp_sym3,") for ln in text)


class TestUsage:
    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_weights_exits_1(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        write_transforms(src, [{"matrix": IDENTITY_ROWS}])
        assert main(["blend", str(src)]) == 1

    def test_bad_weights_exit_1(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        write_transforms(src, [{"matrix": IDENTITY_ROWS}])
        assert main(["blend", str(src), "--weights", "a,b"]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
