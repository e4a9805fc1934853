import errno
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from affine12.cli import _sample_times, load_track, main
from affine12.errors import NotARotationError, NotOrientationPreservingError
from affine12.linalg3 import MAT3_IDENTITY, Mat3, Vec3, gram, mat_mul, sym_eigenvalues
from affine12.meshblend import TriMesh, load_obj, save_obj
from affine12.param import (
    AffineParam12,
    HomAffine3,
    params_to_transform,
    transform_to_params,
    weighted_param_sum,
)
from conftest import (
    axis_angle_rotation,
    conjugate_spectrum,
    generator_for,
    rand_rotation,
    rand_unit_axis,
    sym_to_mat3,
    vec_dist,
)

IDENTITY_ROWS = [1.0, 0.0, 0.0, 0.0,
                 0.0, 1.0, 0.0, 0.0,
                 0.0, 0.0, 1.0, 0.0]


def write_transforms(path, entries):
    path.write_text(json.dumps({"transforms": entries}))


def read_doc(path):
    return json.loads(path.read_text())


# entries too large for the forward and inverse maps: results overflow to NaN
HUGE_ROWS = [1e100, 2e100, 0, 0, 0, 1e100, 0, 0, 0, 0, 1e100, 7]


# a stretch log beyond the exponent range: the forward map raises OverflowError
BIG_STRETCH_PARAM = [0, 0, 0, 0, 0, 0, 800, 0, 0, 0, 0, 0]
# condition number 1e12: the Gram route leaves no orthogonal rotation factor,
# so the inverse map raises NotARotationError
ILL_CONDITIONED_ROWS = [1e6, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1e-6, 0]


def run_cli(*argv):
    """The CLI in a fresh interpreter, stopped after 60 s so a runaway loop fails the test."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "affine12.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=60)


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

    def test_missing_input_names_the_file(self, tmp_path, capsys):
        src = tmp_path / "absent.json"
        assert main(["param", str(src)]) == 2
        assert capsys.readouterr().err == f"error: {src}: No such file or directory\n"

    def test_non_utf8_document_names_the_file(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        src.write_bytes(b"\xff{}")
        assert main(["param", str(src)]) == 2
        assert capsys.readouterr().err == (
            f"error: {src}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n")

    def test_output_in_a_missing_directory_exits_2(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        out = tmp_path / "missing" / "out.json"
        write_transforms(src, [{"matrix": IDENTITY_ROWS}])
        assert main(["param", str(src), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"
        assert not out.parent.exists()

    def test_os_error_without_a_file_is_not_named(self, tmp_path, capsys, monkeypatch):
        class BrokenPipe:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        src = tmp_path / "in.json"
        write_transforms(src, [{"matrix": IDENTITY_ROWS}])
        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        assert main(["param", str(src)]) == 2
        assert capsys.readouterr().err == "error: Broken pipe\n"

    def test_nonfinite_rejected(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        src.write_text('{"transforms": [{"matrix": [1,0,0,0,0,1,0,0,0,0,1,NaN]}]}')
        assert main(["param", str(src)]) == 2

    def test_booleans_are_not_numbers(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        rows = [v == 1.0 for v in IDENTITY_ROWS]   # true/false in place of 1/0
        write_transforms(src, [{"matrix": rows}])
        assert main(["param", str(src)]) == 2
        assert "transforms[0].matrix must be a list of 12 numbers" in capsys.readouterr().err

    def test_integer_beyond_double_range_names_entry(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        huge = "1" + "0" * 400
        src.write_text('{"transforms": [{"matrix": [1,0,0,0,0,1,0,0,0,0,1,0]}, '
                       '{"matrix": [' + huge + ',0,0,0,0,1,0,0,0,0,1,0]}]}')
        assert main(["param", str(src)]) == 2
        err = capsys.readouterr().err
        assert f"{src}: transforms[1].matrix contains a non-finite number" in err

    def test_overflowing_result_exits_2_and_writes_nothing(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        out = tmp_path / "out.json"
        write_transforms(src, [{"matrix": IDENTITY_ROWS}, {"matrix": HUGE_ROWS}])
        assert main(["param", str(src), "-o", str(out)]) == 2
        assert "transforms[1]" in capsys.readouterr().err
        assert not out.exists()

    def test_not_finite_param_result_names_the_file(self, tmp_path, capsys):
        # 1e300 I has det 1e900: the Gram route overflows at this scale, so
        # the pull-back is not finite. ROADMAP item 2's scale-invariant
        # inverse map changes this case into a finite result.
        src = tmp_path / "big.json"
        out = tmp_path / "out.json"
        write_transforms(src, [{"matrix": [1e300, 0, 0, 0, 0, 1e300, 0, 0, 0, 0, 1e300, 0]}])
        assert main(["param", str(src), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {src}: transforms[0]: the param result is not finite "
            "(out of the double range)\n")
        assert not out.exists()


    def test_unparam_library_error_names_the_entry(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        write_transforms(src, [{"param": [0.0] * 12}, {"param": BIG_STRETCH_PARAM}])
        assert main(["unparam", str(src)]) == 2
        assert capsys.readouterr().err == (
            f"error: {src}: transforms[1]: exp of leading eigenvalue 800.0 "
            "is not representable\n")

    def test_unparam_infinite_rotation_angle_names_the_entry(self, tmp_path, capsys):
        # the rotation log's angle overflows to inf when measured
        src = tmp_path / "big.json"
        write_transforms(src, [{"param": [0.0] * 12},
                               {"param": [0, 0, 0, 1e200, 0, 0, 0, 0, 0, 0, 0, 0]}])
        assert main(["unparam", str(src)]) == 2
        assert capsys.readouterr().err == (
            f"error: {src}: transforms[1]: rotation angle inf is not finite\n")

    def test_consistent_with_library_error_names_the_entry(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        refs = tmp_path / "refs.json"
        out = tmp_path / "out.json"
        write_transforms(src, [{"matrix": IDENTITY_ROWS}, {"matrix": ILL_CONDITIONED_ROWS}])
        write_transforms(refs, [{"param": [0.0] * 12}])
        assert main(["param", str(src), "--consistent-with", str(refs),
                     "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {src}: transforms[1]: ||R^T R - I||_F")
        assert not out.exists()
        # a reference file is named when its own entry cannot be converted
        assert main(["param", str(refs), "--consistent-with", str(src)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {src}: transforms[1]: ")

    def test_not_finite_reference_names_the_reference_file(self, tmp_path, capsys):
        # the reference pulls back to NaN: its own file and entry are named,
        # not the input entry it was to be used for
        src = tmp_path / "in.json"
        refs = tmp_path / "refs.json"
        write_transforms(src, [{"matrix": IDENTITY_ROWS}])
        write_transforms(refs, [{"matrix": HUGE_ROWS}])
        for command in (["param", str(src)], ["blend", str(src), "--weights", "1"]):
            assert main([*command, "--consistent-with", str(refs)]) == 2
            assert capsys.readouterr().err == (
                f"error: {refs}: transforms[0]: the param result is not finite "
                "(out of the double range)\n")

    @pytest.mark.parametrize("ref_angle", [1e17, 1e300])
    def test_consistent_with_reference_out_of_range_exits_2(self, tmp_path, ref_angle):
        src = tmp_path / "in.json"
        refs = tmp_path / "refs.json"
        write_transforms(src, [{"matrix": IDENTITY_ROWS}, {"matrix": IDENTITY_ROWS}])
        write_transforms(refs, [{"param": [0.0] * 12},
                                {"param": [0, 0, 0, ref_angle, 0, 0, 0, 0, 0, 0, 0, 0]}])
        done = run_cli("param", src, "--consistent-with", refs)
        assert done.returncode == 2
        # the angle of a 1e300 log overflows to inf when measured
        assert done.stderr.startswith(f"error: {src}: transforms[1]: reference angle ")
        assert done.stderr.endswith(" rad exceeds 1e+07\n")


class TestBlendCommand:
    def test_single_weight_reproduces(self, tmp_path):
        src = tmp_path / "in.json"
        out = tmp_path / "out.json"
        rows = rotation_rows((0.0, 1.0, 0.0), 1.1, (1.0, 2.0, 3.0))
        write_transforms(src, [{"matrix": rows}])
        assert main(["blend", str(src), "--weights", "1", "-o", str(out)]) == 0
        got = read_doc(out)["transforms"][0]["matrix"]
        assert all(abs(a - b) <= 1e-10 for a, b in zip(got, rows))

    def test_overflowing_result_exits_2_and_keeps_output(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        out = tmp_path / "out.json"
        write_transforms(src, [{"matrix": HUGE_ROWS}])
        out.write_text("earlier output\n")
        assert main(["blend", str(src), "--weights", "1", "-o", str(out)]) == 2
        assert "transforms[0]" in capsys.readouterr().err
        assert out.read_text() == "earlier output\n"

    def test_not_finite_result_names_file_and_weights(self, tmp_path, capsys):
        # the translation 2e308 overflows to inf: output row 0 is the blend,
        # not entry 0, so the blend is named
        src = tmp_path / "in.json"
        out = tmp_path / "out.json"
        write_transforms(src, [{"param": [1e308] + [0] * 11}])
        assert main(["blend", str(src), "--weights", "2", "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {src}: blend with weights 2.0: the matrix result is not finite "
            "(out of the double range)\n")
        assert not out.exists()

    def test_not_finite_pull_back_names_the_entry(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        write_transforms(src, [{"matrix": IDENTITY_ROWS}, {"matrix": HUGE_ROWS}])
        assert main(["blend", str(src), "--weights", "0.5,0.5"]) == 2
        assert capsys.readouterr().err == (
            f"error: {src}: transforms[1]: the param result is not finite "
            "(out of the double range)\n")

    def test_forward_map_error_names_file_and_weights(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        write_transforms(src, [{"param": [0, 0, 0, 0, 0, 0, 400, 0, 0, 0, 0, 0]}])
        assert main(["blend", str(src), "--weights", "2"]) == 2
        assert capsys.readouterr().err == (
            f"error: {src}: blend with weights 2.0: "
            "exp of leading eigenvalue 800.0 is not representable\n")

    def test_weight_count_mismatch_exits_2(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        write_transforms(src, [{"matrix": IDENTITY_ROWS}])
        assert main(["blend", str(src), "--weights", "0.5,0.5"]) == 2
        assert capsys.readouterr().err == f"error: {src}: 1 transforms but 2 weights\n"

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

    def test_param_entry_keeps_its_branch(self, tmp_path):
        # a rotation log of 4 rad halved is a 2 rad turn; pulling the entry
        # back through its matrix would halve the principal log (-2.28 rad)
        src = tmp_path / "in.json"
        out = tmp_path / "out.json"
        write_transforms(src, [{"param": [0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0]}])
        assert main(["blend", str(src), "--weights", "0.5", "-o", str(out)]) == 0
        got = read_doc(out)["transforms"][0]["matrix"]
        assert abs(got[0] - math.cos(2.0)) <= 1e-12

    def test_param_entries_blend_without_their_matrices(self, tmp_path):
        # exp(800) overflows, but the blended stretch log 400 does not
        src = tmp_path / "in.json"
        out = tmp_path / "out.json"
        write_transforms(src, [{"param": BIG_STRETCH_PARAM}, {"param": [0] * 12}])
        assert main(["blend", str(src), "--weights", "0.5,0.5", "-o", str(out)]) == 0
        got = read_doc(out)["transforms"][0]["matrix"]
        assert abs(got[0] / math.exp(400.0) - 1.0) <= 1e-12


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

    def test_half_turn_matrix_knot_is_met(self, tmp_path):
        # z-knots at 0, 2, 4.5 and 7 rad, then the exact z half-turn, which
        # continues the track on 3*pi; linear samples every half time unit
        track = tmp_path / "track.json"
        out = tmp_path / "out.json"
        half_turn_z = [-1.0, 0, 0, 0, 0, -1.0, 0, 0, 0, 0, 1.0, 0]
        knots = [{"time": float(k), "matrix": rotation_rows((0, 0, 1), angle)}
                 for k, angle in enumerate((0.0, 2.0, 4.5, 7.0))]
        knots.append({"time": 4.0, "matrix": half_turn_z})
        track.write_text(json.dumps({"knots": knots}))
        done = run_cli("interp", track, "--samples", 9, "--curve", "linear", "-o", out)
        assert done.returncode == 0, done.stderr
        samples = [e["matrix"] for e in read_doc(out)["transforms"]]
        assert all(abs(a - b) <= 1e-15 for a, b in zip(samples[8], half_turn_z))
        mid = 0.5 * (7.0 + 3.0 * math.pi)   # t = 3.5, about 8.21 rad
        m = samples[7]
        assert math.hypot(m[0] - math.cos(mid), m[4] - math.sin(mid)) <= 1e-12
        # a half-turn about z after an x-rotation keeps its own axis
        knots = [{"time": 0.0, "matrix": rotation_rows((1, 0, 0), 1.0)},
                 {"time": 1.0, "matrix": half_turn_z}]
        track.write_text(json.dumps({"knots": knots}))
        done = run_cli("interp", track, "--samples", 3, "-o", out)
        assert done.returncode == 0, done.stderr
        last = read_doc(out)["transforms"][2]["matrix"]
        assert all(abs(a - b) <= 1e-15 for a, b in zip(last, half_turn_z))

    def test_non_positive_determinant_knot_names_the_knot(self, tmp_path, capsys):
        # the inverse map's own check, before any reference is used
        track = tmp_path / "track.json"
        flipped = list(IDENTITY_ROWS)
        flipped[0] = -1.0
        knots = [{"time": 0.0, "matrix": IDENTITY_ROWS}, {"time": 1.0, "matrix": flipped}]
        track.write_text(json.dumps({"knots": knots}))
        assert main(["interp", str(track), "--samples", "5"]) == 2
        assert capsys.readouterr().err == (
            f"error: {track}: knots[1]: linear part has non-positive determinant (-1.0)\n")
        with pytest.raises(NotOrientationPreservingError):
            load_track(str(track))

    def test_last_sample_stays_on_the_track(self, tmp_path):
        # t0 + (t1 - t0) * 192 / 192 rounds one ulp past t1 here
        t0, t1 = -5.18500663983996, 10.61254596875112
        assert t0 + (t1 - t0) * 192 / 192 > t1
        track = tmp_path / "track.json"
        out = tmp_path / "out.json"
        moved = list(IDENTITY_ROWS)
        moved[3] = 1.0
        track.write_text(json.dumps({"knots": [{"time": t0, "matrix": IDENTITY_ROWS},
                                               {"time": t1, "matrix": moved}]}))
        assert main(["interp", str(track), "--samples", "193", "-o", str(out)]) == 0
        samples = read_doc(out)["transforms"]
        assert len(samples) == 193 and samples[-1]["matrix"] == moved

    def test_wide_track_samples_spread_evenly(self, tmp_path):
        # (t1 - t0) * i overflows from i = 2 on, which once piled the samples up at t1
        track = tmp_path / "track.json"
        out = tmp_path / "out.json"
        moved = list(IDENTITY_ROWS)
        moved[3] = 1.0
        track.write_text(json.dumps({"knots": [{"time": 1e307, "matrix": IDENTITY_ROWS},
                                               {"time": 1.7e308, "matrix": moved}]}))
        assert main(["interp", str(track), "--samples", "5", "--curve", "linear",
                     "-o", str(out)]) == 0
        xs = [e["matrix"][3] for e in read_doc(out)["transforms"]]
        assert len(xs) == 5 and all(abs(x - i / 4) <= 1e-15 for i, x in enumerate(xs))

    def test_sample_times_scale_with_the_span(self):
        # ordinary spans keep t0 + (t1 - t0) * i / (n - 1) bit for bit; on a
        # span whose products overflow, the times are those of the track
        # scaled down by 2^-16, scaled back up (both exact)
        rng = random.Random(25)
        for _ in range(2000):
            t0 = rng.uniform(-1e3, 1e3)
            t1 = t0 + 10.0 ** rng.uniform(-9.0, 4.0)
            n = rng.randint(2, 300)
            assert _sample_times(t0, t1, n) == [min(t0 + (t1 - t0) * i / (n - 1), t1)
                                                for i in range(n)]
        for t0, t1 in ((1e307, 1.7e308), (-1.7e308, -1e300), (-8e307, 9e307)):
            for n in (3, 5, 193, 1000):
                scaled = _sample_times(math.ldexp(t0, -16), math.ldexp(t1, -16), n)
                assert _sample_times(t0, t1, n) == [math.ldexp(t, 16) for t in scaled]

    def test_boolean_time_rejected(self, tmp_path, capsys):
        track = tmp_path / "track.json"
        knots = [{"time": 0.0, "matrix": IDENTITY_ROWS},
                 {"time": True, "matrix": IDENTITY_ROWS}]
        track.write_text(json.dumps({"knots": knots}))
        assert main(["interp", str(track), "--samples", "5"]) == 2
        assert "knots[1].time must be a finite number" in capsys.readouterr().err

    def test_library_error_names_the_knot(self, tmp_path, capsys):
        track = tmp_path / "track.json"
        knots = [{"time": 0.0, "matrix": IDENTITY_ROWS},
                 {"time": 1.0, "matrix": ILL_CONDITIONED_ROWS}]
        track.write_text(json.dumps({"knots": knots}))
        assert main(["interp", str(track), "--samples", "5"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {track}: knots[1]: ")

    def test_library_error_names_the_sample(self, tmp_path, capsys):
        # the linear stretch log reaches 800 only at the last sample
        track = tmp_path / "track.json"
        knots = [{"time": 0.0, "param": [0] * 12},
                 {"time": 1.0, "param": BIG_STRETCH_PARAM}]
        track.write_text(json.dumps({"knots": knots}))
        assert main(["interp", str(track), "--samples", "5", "--curve", "linear"]) == 2
        assert capsys.readouterr().err == (
            f"error: {track}: sample 4 (t = 1.0): "
            "exp of leading eigenvalue 800.0 is not representable\n")

    @pytest.mark.parametrize("curve", ["linear", "hermite", "bspline"])
    def test_not_finite_sample_names_the_sample(self, tmp_path, capsys, curve):
        # knot differences of 2e308 overflow, so sample 0 is not finite on every curve
        track = tmp_path / "track.json"
        out = tmp_path / "out.json"
        knots = [{"time": t, "param": [x] + [0] * 11}
                 for t, x in [(0.0, -1e308), (1.0, 1e308), (2.0, -1e308)]]
        track.write_text(json.dumps({"knots": knots}))
        assert main(["interp", str(track), "--samples", "3", "--curve", curve,
                     "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {track}: sample 0 (t = 0.0): the matrix result is not finite "
            "(out of the double range)\n")
        assert not out.exists()

    def test_samples_checked_before_the_track_is_read(self, tmp_path, capsys):
        missing = tmp_path / "nothere.json"
        assert main(["interp", str(missing), "--samples", "1"]) == 1
        assert capsys.readouterr().err == (
            "usage error: interp: --samples must be at least 2\n")

    def test_unsorted_times_rejected(self, tmp_path, capsys):
        track = tmp_path / "track.json"
        knots = [{"time": 1.0, "matrix": IDENTITY_ROWS},
                 {"time": 0.0, "matrix": IDENTITY_ROWS}]
        track.write_text(json.dumps({"knots": knots}))
        assert main(["interp", str(track), "--samples", "5"]) == 2

    def test_overflowing_time_span_rejected(self, tmp_path, capsys):
        track = tmp_path / "track.json"
        knots = [{"time": -1e308, "matrix": IDENTITY_ROWS},
                 {"time": 1e308, "matrix": IDENTITY_ROWS}]
        track.write_text(json.dumps({"knots": knots}))
        assert main(["interp", str(track), "--samples", "3"]) == 2
        assert capsys.readouterr().err == (
            f"error: {track}: time span -1e+308 to 1e+308 is not finite\n")


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

    def test_missing_mesh_exits_2_naming_it(self, tmp_path, capsys):
        from test_meshblend import grid_mesh

        rest_path = tmp_path / "rest.obj"
        absent = tmp_path / "absent.obj"
        out = tmp_path / "out.obj"
        save_obj(str(rest_path), grid_mesh(2, 2))
        assert main(["meshblend", str(rest_path), str(absent), "--weights", "1",
                     "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {absent}: No such file or directory\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("weights", ["0.5,0.5", "0,0.5"])
    def test_squashed_target_with_a_weight_exits_2_naming_it(self, tmp_path, capsys, weights):
        paths = self._squashed_set(tmp_path)
        out = tmp_path / "out.obj"
        assert main(["meshblend", *map(str, paths), "--weights", weights, "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: target 1 face 0: ||R^T R - I||_F = 3.231e-05 exceeds 1e-06\n")
        assert not out.exists()

    def test_squashed_target_at_weight_0_is_left_out(self, tmp_path):
        # a target at weight 0 is not pulled back, so its face maps cannot fail
        from affine12.meshblend import CompatibleSet, blend_shapes

        rest_path, stretched_path, squashed_path = self._squashed_set(tmp_path)
        out = tmp_path / "out.obj"
        assert main(["meshblend", str(rest_path), str(stretched_path), str(squashed_path),
                     "--weights", "0.5,0", "-o", str(out)]) == 0
        want = blend_shapes(CompatibleSet(load_obj(str(rest_path)),
                                          [load_obj(str(stretched_path))]), [0.5])
        assert load_obj(str(out)).vertices == want.vertices

    @staticmethod
    def _squashed_set(tmp_path):
        # rest, a 1.1 stretch and a 1e-8 squash whose face maps have no
        # orthogonal rotation factor (test_meshblend's pull-back error set)
        from test_meshblend import grid_mesh

        rest = grid_mesh(4, 4)
        paths = [tmp_path / name for name in ("rest.obj", "stretched.obj", "squashed.obj")]
        for path, (sx, sy) in zip(paths, [(1.0, 1.0), (1.1, 1.0), (1.0, 1e-8)]):
            save_obj(str(path), TriMesh([Vec3(v.x * sx, v.y * sy, v.z) for v in rest.vertices],
                                        list(rest.faces)))
        return paths


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

    @pytest.mark.parametrize("argv, message", [
        (["--n", "0"], "n must be >= 1, got 0"),
        (["--kind", "timing", "--n", "10"], "timing needs n >= 1000, got 10"),
        (["--det-floor", "-1"], "det_floor must be in (0, 4), got -1.0"),
        # floors the rejection sampler could never clear
        (["--n", "1", "--det-floor", "5"], "det_floor must be in (0, 4), got 5.0"),
        (["--n", "1", "--det-floor", "nan"], "det_floor must be in (0, 4), got nan"),
        (["--kind", "timing", "--n", "1000", "--det-floor", "nan"],
         "det_floor must be in (0, 4), got nan"),
        # floors cleared too rarely for the sampler to finish
        (["--n", "1", "--det-floor", "3.5"], "det_floor 3.5 is above 2.5: too few matrices clear it"),
        (["--kind", "timing", "--n", "1000", "--det-floor", "3.5"],
         "det_floor 3.5 is above 2.5: too few matrices clear it"),
    ])
    def test_bad_value_is_usage_error(self, argv, message):
        done = run_cli("bench", *argv)
        assert done.returncode == 1
        assert done.stderr == f"usage error: bench: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--det-floor", "3", "--n", "1000"],
         "det_floor 3.0 is above 2.5: too few matrices clear it"),
        (["--kind", "roundtrip", "--n", "0"], "n must be >= 1, got 0"),
    ])
    def test_bad_value_is_usage_error_in_process(self, argv, message, capsys):
        assert main(["bench", *argv]) == 1
        assert capsys.readouterr().err == f"usage error: bench: {message}\n"

    def test_output_in_a_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "bench.csv"
        assert main(["bench", "--kind", "roundtrip", "--n", "2", "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"
        assert not out.parent.exists()

    def test_top_floor_is_sampled(self, capsys):
        assert main(["bench", "--kind", "roundtrip", "--n", "2", "--det-floor", "2.5"]) == 0
        assert "\naffine_roundtrip,2," in capsys.readouterr().out


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


# translations pass through both maps unchanged, so these values reach the output
EDGE_TRANSLATIONS = [(-0.0, 5e-324, 1e308), (1e-07, 3, -2), (0, 1, 2.5)]


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


class TestOutputDocument:
    """Output is the json.dump(doc, fh, indent=2) text plus a newline, to a file or stdout."""

    @staticmethod
    def _outputs(tmp_path, capsys, argv):
        out = tmp_path / "out.json"
        assert main(argv + ["-o", str(out)]) == 0
        assert main(argv + ["-o", "-"]) == 0
        dash = capsys.readouterr().out
        assert main(argv) == 0
        bare = capsys.readouterr().out
        return out.read_text(encoding="utf-8"), dash, bare

    def test_param_document(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        entries = []
        for k, (x, y, z) in enumerate(EDGE_TRANSLATIONS):
            rows = rotation_rows((0.0, 0.0, 1.0), 0.7 * k)
            rows[3], rows[7], rows[11] = x, y, z
            entries.append({"matrix": rows})
        entries.append({"matrix": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0]})   # integer-valued
        write_transforms(src, entries)
        want = _json_text({"transforms": [
            {"param": list(transform_to_params(
                HomAffine3.from_rows([float(v) for v in e["matrix"]])).to_vector())}
            for e in entries]})
        assert "-0.0" in want and "5e-324" in want and "1e+308" in want and "1e-07" in want
        assert self._outputs(tmp_path, capsys, ["param", str(src)]) == (want, want, want)

    def test_matrix_document(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        entries = [{"param": [x, y, z, 0.3, -0.2, 0.1, 0.01, 0, 0, -0.02, 0, 0.03]}
                   for x, y, z in EDGE_TRANSLATIONS]
        entries.append({"param": [1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0]})   # integer-valued
        write_transforms(src, entries)
        want = _json_text({"transforms": [
            {"matrix": list(params_to_transform(
                AffineParam12.from_vector([float(v) for v in e["param"]])).to_rows())}
            for e in entries]})
        assert "-0.0" in want and "5e-324" in want and "1e+308" in want and "1e-07" in want
        assert self._outputs(tmp_path, capsys, ["unparam", str(src)]) == (want, want, want)


class TestParserReuse:
    def test_commands_after_usage_error_and_help_match_fresh_runs(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")   # the same help layout in both runs
        monkeypatch.chdir(tmp_path)
        src = tmp_path / "in.json"
        write_transforms(src, [{"matrix": rotation_rows((0.0, 0.0, 1.0), 2.4, (0.5, -1.0, 2.0))},
                               {"matrix": rotation_rows((1.0, 0.0, 0.0), -1.1)}])
        commands = [
            ["blend", "in.json"],                          # usage: --weights missing
            ["--help"],
            ["param", "in.json", "-o", "param.json"],
            ["blend", "in.json", "--weights", "0.5,0.5"],  # to stdout
            ["param", "in.json"],
        ]
        shared = []
        for argv in commands:
            code = main(argv)
            captured = capsys.readouterr()
            written = Path("param.json").read_text() if argv[-1] == "param.json" else None
            shared.append((code, captured.out, captured.err, written))
        assert [c for c, *_ in shared] == [1, 0, 0, 0, 0]

        # each command alone, in a fresh interpreter
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        os.remove("param.json")
        for argv, (code, out, err, written) in zip(commands, shared):
            alone = subprocess.run([sys.executable, "-m", "affine12.cli", *argv],
                                   env=env, capture_output=True, text=True)
            assert (alone.returncode, alone.stdout, alone.stderr) == (code, out, err)
            if written is not None:
                assert Path("param.json").read_text() == written


def _regime_rows(rng):
    """3x4 rows over the kernels' regimes, each a transform the library converts.

    Near half-turns and obtuse, small and zero angles; confluent, diagonal
    and flat stretches; and Gram spectra whose cubic returns l3 <= 0 (the
    batch leaves those rows to the scalar map).
    """
    stretches = [Mat3(1.5, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.7),
                 sym_to_mat3(conjugate_spectrum(rand_rotation(rng), (1.0 + 1e-10, 1.0, 1.0 - 1e-10))),
                 sym_to_mat3(conjugate_spectrum(rand_rotation(rng), (2.0, 2.0, 0.5)))]
    linear = [Mat3(2.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 1.5), MAT3_IDENTITY]
    for angle in (math.pi, math.pi - 1e-9, math.pi - 1e-4, 2.5, 1.6, 1e-9, 1e-5, 0.7):
        r = axis_angle_rotation(rand_unit_axis(rng), angle)
        linear.extend(mat_mul(r, s) for s in stretches)
    found = 0
    while found < 3:
        q1 = axis_angle_rotation(rand_unit_axis(rng), rng.uniform(0.0, 3.0))
        q2 = axis_angle_rotation(rand_unit_axis(rng), rng.uniform(0.0, 3.0))
        m = mat_mul(mat_mul(q1, Mat3(100.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1e-6)), q2)
        if sym_eigenvalues(gram(m)).l3 <= 0.0:
            try:
                transform_to_params(HomAffine3(m, Vec3(0.0, 0.0, 0.0)))
            except NotARotationError:
                continue
            linear.append(m)
            found += 1
    return [list(HomAffine3(m, Vec3(*(rng.uniform(-3.0, 3.0) for _ in range(3)))).to_rows())
            for m in linear]


def _mixed_document(rng):
    """Matrix entries over the regimes, with param entries (some past a half-turn) between them."""
    entries = []
    for k, rows in enumerate(_regime_rows(rng)):
        entries.append({"matrix": rows})
        if k % 4 == 1:
            x = generator_for(rand_unit_axis(rng), rng.uniform(0.0, 7.0))
            entries.append({"param": [rng.uniform(-1, 1) for _ in range(3)] + list(x)
                            + list(conjugate_spectrum(rand_rotation(rng), (0.3, 0.0, -0.2)))})
    return entries


def _winding_track(rng):
    """Matrix entries turning about one axis through two full turns, and
    references near each one's winding angle (matrices below a half-turn)."""
    axis = rand_unit_axis(rng)
    entries, refs = [], []
    for k in range(16):
        angle = 0.8 * k
        entries.append({"matrix": rotation_rows(axis, angle, (0.1 * k, 0.0, 1.0))})
        if k in (1, 3):
            refs.append({"matrix": rotation_rows(axis, angle - 0.3)})
        else:
            refs.append({"param": [0.0] * 3 + list(generator_for(axis, angle + (-0.4) ** k))
                         + [0.0] * 6})
    return entries, refs


def _scalar_params(entries, refs=None):
    """The parameter points of a document through the scalar maps, entry by entry."""
    out = []
    for k, e in enumerate(entries):
        (kind, values), = e.items()
        values = [float(v) for v in values]
        if kind == "param":
            out.append(AffineParam12.from_vector(values))
        else:
            ref = None if refs is None else _scalar_params([refs[k % len(refs)]])[0]
            out.append(transform_to_params(HomAffine3.from_rows(values), ref=ref))
    return out


def _scalar_matrices(entries):
    out = []
    for e in entries:
        (kind, values), = e.items()
        values = [float(v) for v in values]
        out.append(values if kind == "matrix"
                   else list(params_to_transform(AffineParam12.from_vector(values)).to_rows()))
    return out


class TestBatchConversion:
    """param, unparam and blend convert a document in one batch pass, whose
    output is the document of the scalar maps byte for byte."""

    @staticmethod
    def _cases(tmp_path):
        rng = random.Random(16)
        mixed = _mixed_document(rng)
        track, track_refs = _winding_track(rng)
        refs_one = [{"param": [0.0] * 3 + list(generator_for(rand_unit_axis(rng), 5.0)) + [0.0] * 6}]
        refs_each = [{"param": [0.0] * 3 + list(generator_for(rand_unit_axis(rng), 6.0)) + [0.0] * 6}
                     if k % 3 else {"matrix": rotation_rows(rand_unit_axis(rng), 2.0)}
                     for k in range(len(mixed))]
        for name, entries, refs in (("mixed", mixed, None), ("mixed-one-ref", mixed, refs_one),
                                    ("mixed-refs", mixed, refs_each), ("track", track, None),
                                    ("track-refs", track, track_refs)):
            src = tmp_path / f"{name}.json"
            write_transforms(src, entries)
            argv = [str(src)]
            if refs is not None:
                ref_path = tmp_path / f"{name}-refs.json"
                write_transforms(ref_path, refs)
                argv += ["--consistent-with", str(ref_path)]
            yield entries, refs, argv

    def test_param_is_the_scalar_document(self, tmp_path, capsys):
        for entries, refs, argv in self._cases(tmp_path):
            want = _json_text({"transforms": [{"param": list(p.to_vector())}
                                              for p in _scalar_params(entries, refs)]})
            assert main(["param", *argv]) == 0
            assert capsys.readouterr().out == want

    def test_unparam_is_the_scalar_document(self, tmp_path, capsys):
        for entries, refs, argv in self._cases(tmp_path):
            if refs is not None:
                continue
            want = _json_text({"transforms": [{"matrix": m} for m in _scalar_matrices(entries)]})
            assert main(["unparam", *argv]) == 0
            assert capsys.readouterr().out == want

    def test_blend_is_the_scalar_document(self, tmp_path, capsys):
        for entries, refs, argv in self._cases(tmp_path):
            weights = [0.5 / (1 + k % 5) for k in range(len(entries))]
            result = params_to_transform(weighted_param_sum(_scalar_params(entries, refs), weights))
            assert main(["blend", *argv, "--weights", ",".join(map(repr, weights))]) == 0
            assert capsys.readouterr().out == _json_text(
                {"transforms": [{"matrix": list(result.to_rows())}]})

    def test_track_takes_the_winding_branches(self, tmp_path, capsys):
        entries, refs, argv = list(self._cases(tmp_path))[-1]
        assert main(["param", *argv]) == 0
        angles = [math.sqrt(sum(v * v for v in e["param"][3:6]))
                  for e in json.loads(capsys.readouterr().out)["transforms"]]
        assert all(abs(a - 0.8 * k) <= 1e-9 for k, a in enumerate(angles))

    def test_lowest_bad_entry_is_reported(self, tmp_path, capsys):
        # entry 0 has det <= 0 and entry 3 is malformed: entries are checked in order
        src = tmp_path / "in.json"
        flipped = list(IDENTITY_ROWS)
        flipped[0] = -1.0
        write_transforms(src, [{"matrix": flipped}, {"matrix": IDENTITY_ROWS},
                               {"param": [0.0] * 12}, {"matrix": [1, 2, 3]}])
        for command in ("param", "unparam"):
            assert main([command, str(src)]) == 2
            assert capsys.readouterr().err == (
                f"error: {src}: transforms[0]: linear part has non-positive determinant (-1.0)\n")

    # each a bad entry as JSON text and its message, {i} for its index
    BAD_ENTRIES = {
        "det": ('{"matrix": [-1,0,0,0,0,1,0,0,0,0,1,0]}',
                "transforms[{i}]: linear part has non-positive determinant (-1.0)"),
        "short": ('{"matrix": [1, 2, 3]}', "transforms[{i}].matrix must be a list of 12 numbers"),
        "bool": ('{"param": [' + ",".join(["false"] * 12) + "]}",
                 "transforms[{i}].param must be a list of 12 numbers"),
        "huge": ('{"matrix": [1' + "0" * 400 + ",0,0,0,0,1,0,0,0,0,1,0]}",
                 "transforms[{i}].matrix contains a non-finite number"),
        "inf": ('{"param": [0,0,0,0,0,0,0,0,0,0,0,1e400]}',
                "transforms[{i}].param contains a non-finite number"),
        "field": ('{"rows": [1,0,0,0,0,1,0,0,0,0,1,0]}', "transforms[{i}] has unknown field 'rows'"),
        "list": ("[1, 2]", "transforms[{i}] must be an object with exactly one of 'matrix'/'param'"),
    }

    @pytest.mark.parametrize("low", sorted(BAD_ENTRIES))
    def test_lowest_bad_entry_wins_over_any_later_one(self, tmp_path, capsys, low):
        # entry 1 has one fault and entries 2 and 3 another (a malformed entry
        # before a det <= 0 one, a boolean before an integer beyond the double
        # range, ...): entry 1 is named, with its own message
        src = tmp_path / "in.json"
        good = json.dumps({"matrix": IDENTITY_ROWS})
        message = self.BAD_ENTRIES[low][1].format(i=1)
        for high, (text, _) in self.BAD_ENTRIES.items():
            src.write_text('{"transforms": [' + ", ".join(
                [good, self.BAD_ENTRIES[low][0], text, text]) + "]}")
            for command in ("param", "unparam"):
                assert main([command, str(src)]) == 2, high
                assert capsys.readouterr().err == f"error: {src}: {message}\n", high

    def test_integer_literals_load_as_the_doubles_they_round_to(self, tmp_path, capsys):
        # -0 is the integer 0, and 2^53 + 1 rounds to even
        src = tmp_path / "in.json"
        src.write_text('{"transforms": [{"param": [-0, 9007199254740993, 3, -7, 0, 0, '
                       "0, 0, 0, 0, 0, 0]}]}")
        assert main(["param", str(src)]) == 0
        assert capsys.readouterr().out == _json_text(
            {"transforms": [{"param": [0.0, 9007199254740992.0, 3.0, -7.0] + [0.0] * 8}]})

    def test_reference_and_rotation_errors_in_entry_order(self, tmp_path, capsys):
        # within an entry the reference angle is checked before the rotation
        # factor; across entries the lower entry's error wins
        src = tmp_path / "in.json"
        refs = tmp_path / "refs.json"
        far = [0, 0, 0, 1e17, 0, 0, 0, 0, 0, 0, 0, 0]
        write_transforms(refs, [{"param": [0.0] * 12}, {"param": far}])
        write_transforms(src, [{"matrix": IDENTITY_ROWS}, {"matrix": ILL_CONDITIONED_ROWS}])
        assert main(["param", str(src), "--consistent-with", str(refs)]) == 2
        assert capsys.readouterr().err == (
            f"error: {src}: transforms[1]: reference angle 1e+17 rad exceeds 1e+07\n")
        write_transforms(src, [{"matrix": ILL_CONDITIONED_ROWS}, {"matrix": IDENTITY_ROWS}])
        assert main(["param", str(src), "--consistent-with", str(refs)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {src}: transforms[0]: ||R^T R - I||_F")
        # the polar split comes before the reference angle
        write_transforms(src, [{"matrix": IDENTITY_ROWS},
                               {"matrix": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1e-200, 0]}])
        assert main(["param", str(src), "--consistent-with", str(refs)]) == 2
        assert capsys.readouterr().err == (
            f"error: {src}: transforms[1]: smallest eigenvalue 0.0 is not positive\n")

    def test_param_entry_reference_is_not_checked(self, tmp_path, capsys):
        # a param entry keeps its own branch, so its reference is never used,
        # even one out of range; a matrix entry's reference is
        src = tmp_path / "in.json"
        refs = tmp_path / "refs.json"
        entries = [{"param": [0.1] * 12}, {"matrix": rotation_rows((0, 0, 1), 2.0)}]
        ref_entries = [{"param": [0, 0, 0, 1e17, 0, 0, 0, 0, 0, 0, 0, 0]},
                       {"param": [0, 0, 0, 0, 0, -6.0, 0, 0, 0, 0, 0, 0]}]
        write_transforms(src, entries)
        write_transforms(refs, ref_entries)
        assert main(["param", str(src), "--consistent-with", str(refs)]) == 0
        assert capsys.readouterr().out == _json_text(
            {"transforms": [{"param": list(p.to_vector())}
                            for p in _scalar_params(entries, ref_entries)]})
        write_transforms(src, entries[::-1])
        assert main(["param", str(src), "--consistent-with", str(refs)]) == 2
        assert capsys.readouterr().err == (
            f"error: {src}: transforms[0]: reference angle 1e+17 rad exceeds 1e+07\n")

    def test_near_singular_entries_do_not_warn(self, tmp_path):
        # a small determinant is no cause for a warning: the output is that
        # of the scalar maps, and nothing goes to stderr
        src = tmp_path / "in.json"
        entries = [{"matrix": IDENTITY_ROWS},
                   {"matrix": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1e-7, 0]},
                   {"param": [0.0] * 12},
                   {"matrix": [1e-3, 0, 0, 0, 0, 1e-3, 0, 0, 0, 0, 1e-3, 0]}]
        write_transforms(src, entries)
        done = run_cli("param", src)
        assert done.returncode == 0
        want = _json_text({"transforms": [{"param": list(p.to_vector())}
                                          for p in _scalar_params(entries)]})
        assert done.stdout == want
        assert done.stderr == ""


class TestInputChecks:
    """Each input check ends in exit 2 (1 for a bad option) with one stderr line."""

    KNOT = {"time": 0.0, "matrix": IDENTITY_ROWS}

    @pytest.mark.parametrize("text,message", [
        (json.dumps({"transforms": [{"matrix": IDENTITY_ROWS, "param": [0] * 12}]}),
         "transforms[0] must be an object with exactly one of 'matrix'/'param'"),
        (json.dumps({"transforms": [[1, 2]]}),
         "transforms[0] must be an object with exactly one of 'matrix'/'param'"),
        (json.dumps({"transforms": [{"rows": IDENTITY_ROWS}]}),
         "transforms[0] has unknown field 'rows'"),
        (json.dumps({"items": []}), "expected an object with a 'transforms' list"),
        (json.dumps([]), "expected an object with a 'transforms' list"),
        (json.dumps({"transforms": []}), "'transforms' list is empty"),
    ])
    def test_malformed_document(self, tmp_path, capsys, text, message):
        src = tmp_path / "in.json"
        src.write_text(text)
        assert main(["param", str(src)]) == 2
        assert capsys.readouterr().err == f"error: {src}: {message}\n"

    @pytest.mark.parametrize("text,message", [
        (json.dumps({"frames": []}), "expected an object with a 'knots' list"),
        (json.dumps({"knots": [KNOT, {"matrix": IDENTITY_ROWS}]}), "knots[1] needs a 'time' field"),
        ('{"knots": [' + json.dumps(KNOT) + ', {"time": 1' + "0" * 400
         + ', "matrix": ' + json.dumps(IDENTITY_ROWS) + "}]}",
         "knots[1].time must be a finite number"),
    ])
    def test_malformed_track(self, tmp_path, capsys, text, message):
        track = tmp_path / "track.json"
        track.write_text(text)
        assert main(["interp", str(track), "--samples", "3"]) == 2
        assert capsys.readouterr().err == f"error: {track}: {message}\n"

    def test_consistent_with_count_mismatch(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        refs = tmp_path / "refs.json"
        write_transforms(src, [{"matrix": IDENTITY_ROWS}] * 3)
        write_transforms(refs, [{"param": [0.0] * 12}] * 2)
        assert main(["param", str(src), "--consistent-with", str(refs)]) == 2
        assert capsys.readouterr().err == (
            f"error: {refs}: 2 references for 3 transforms "
            "(need a matching count or a single broadcast entry)\n")

    def test_meshblend_target_weight_count_mismatch(self, tmp_path, capsys):
        from test_meshblend import grid_mesh

        rest = tmp_path / "rest.obj"
        save_obj(str(rest), grid_mesh(2, 2))
        assert main(["meshblend", str(rest), str(rest), "--weights", "0.5,0.5"]) == 2
        assert capsys.readouterr().err == "error: 1 target meshes but 2 weights\n"

    def test_nan_weight_is_a_usage_error(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        write_transforms(src, [{"matrix": IDENTITY_ROWS}])
        assert main(["blend", str(src), "--weights", "nan"]) == 1
        assert capsys.readouterr().err == (
            "usage error: affine12 blend: argument --weights: bad weight list 'nan'\n")

    def test_infinite_obj_vertex(self, tmp_path, capsys):
        from test_meshblend import grid_mesh

        bad = tmp_path / "bad.obj"
        rest = tmp_path / "rest.obj"
        bad.write_text("v 0 inf 0\n")
        save_obj(str(rest), grid_mesh(2, 2))
        assert main(["meshblend", str(rest), str(bad), "--weights", "1"]) == 2
        assert capsys.readouterr().err == f"error: {bad}:1: vertex coordinate is not finite\n"

    @pytest.mark.parametrize("exc", [ZeroDivisionError("float division by zero"),
                                     FloatingPointError("overflow encountered")])
    def test_every_arithmetic_error_is_a_domain_error(self, tmp_path, capsys, monkeypatch, exc):
        # the CLI's domain errors are the batch's: ArithmeticError, not only
        # OverflowError, exits 2
        import affine12.cli

        def broken(*args):
            raise exc

        monkeypatch.setattr(affine12.cli, "blend_shapes", broken)
        rest = tmp_path / "rest.obj"
        save_obj(str(rest), TriMesh([Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0)], [(0, 1, 2)]))
        assert main(["meshblend", str(rest), str(rest), "--weights", "1"]) == 2
        assert capsys.readouterr().err == f"error: {exc}\n"
