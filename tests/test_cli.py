"""CLI contract: schemas, exit codes, determinism."""

import json
import math
import subprocess
import sys

import pytest

from zermelo import reachability
from zermelo.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_json(capsys):
    code, out, _ = run_cli(["classify", "--problem", "historical", "--state", "0,2,0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "hyperbolic"
    assert payload["D"] == 1 and payload["Dprime"] == 1 and payload["Dsecond"] == 3


def test_classify_elliptic(capsys):
    code, out, _ = run_cli(
        ["classify", "--problem", "historical", "--state", "0,2,3.14159265358979"], capsys
    )
    assert code == 0
    assert json.loads(out)["class"] == "elliptic"


def test_classify_malformed_state(capsys):
    code, _, err = run_cli(["classify", "--problem", "historical", "--state", "zardoz"], capsys)
    assert code == 2
    assert "--state" in err


def test_unknown_preset(capsys):
    code, _, err = run_cli(["classify", "--problem", "швец", "--state", "0,2,0"], capsys)
    assert code == 2
    assert "preset" in err


def test_cusp_json(capsys):
    code, out, _ = run_cli(
        ["cusp", "--problem", "historical", "--state", "0,2,-2.0944"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert math.isclose(payload["t_cusp"], 1.7320508, rel_tol=1e-4)
    assert payload["source"] == "analytic"
    assert math.isclose(payload["position"][1], 1.0)


def test_cusp_out_writes_json_trajectory_and_figure(tmp_path, capsys):
    code, out, _ = run_cli(
        ["cusp", "--problem", "historical", "--state", "0,2,-2.0944", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "cusp.json").read_bytes() == out.encode()
    lines = (tmp_path / "cusp_trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,c1,c2,alpha,res_H,res_eq10,res_C0"
    assert len(lines) == 1 + 512  # the closed form's samples over twice the cusp time
    assert (tmp_path / "cusp.svg").read_text().startswith("<svg")


def test_vortex_cusp_is_found_numerically_on_the_boundary(capsys):
    # the k = 1 vortex's strong/weak boundary is r = 1, where the cusp lies
    code, out, _ = run_cli(
        ["cusp", "--problem", "vortex", "--state", "0.5,0,-0.5235987755982991", "--t-max", "3"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["source"] == "numeric"
    assert abs(payload["position"][0] - 1.0) <= 1e-6


def test_cusp_not_abnormal_is_config_error(capsys):
    code, _, err = run_cli(["cusp", "--problem", "historical", "--state", "0,0.5,1"], capsys)
    assert code == 2
    assert "abnormal" in err


@pytest.mark.parametrize("t_max", ["nan", "0", "-1"])
def test_cusp_t_max_is_checked_before_any_output(tmp_path, capsys, t_max):
    code, out, err = run_cli(
        ["cusp", "--problem", "historical", "--state", "0,2,2.0944", "--t-max", t_max,
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "--t-max" in err and "finite" in err
    assert out == ""
    assert not (tmp_path / "cusp.json").exists()


def test_integrate_files(tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "integrate",
            "--problem",
            "historical",
            "--state",
            "0,2,0.7",
            "--t",
            "1.0",
            "--out",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,c1,c2,alpha,res_H,res_eq10,res_C0"
    assert len(lines) > 10
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == "2"
    svg = (tmp_path / "trajectory.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_integrate_masked_residuals_written_as_na(tmp_path, capsys):
    code, _, _ = run_cli(
        ["integrate", "--problem", "historical", "--state", "0,2,1.5707963267948966",
         "--t", "0.5", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[1].split(",")[5] == "NA"  # res_eq10 masked at vertical heading


def test_wavefront_row_count_contract(tmp_path, capsys):
    code, _, _ = run_cli(
        ["wavefront", "--problem", "historical", "--q0", "0,2", "--t", "0.3",
         "--n", "256", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "wavefront.csv").read_text().splitlines()
    assert lines[0] == "alpha0,c1,c2,class,is_sphere"
    assert len(lines) == 257
    assert (tmp_path / "wavefront.svg").exists()


def test_ball_files(tmp_path, capsys):
    code, _, _ = run_cli(
        ["ball", "--problem", "historical", "--q0", "0,2", "--t", "0.3",
         "--n", "32", "--t-max", "1.0", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "ball.csv").read_text().splitlines()
    assert lines[0] == "alpha0,c1,c2,class,is_sphere"
    flags = {line.split(",")[4] for line in lines[1:]}
    assert flags <= {"0", "1"} and "1" in flags
    assert (tmp_path / "ball_arcs.csv").exists()
    assert (tmp_path / "ball.svg").exists()


def test_ball_tol_is_the_landing_tolerance(tmp_path, capsys, monkeypatch):
    seen = []
    real = reachability.sphere_and_ball

    def spy(problem, q0, t, n_alpha, config):
        seen.append(config.position_tol)
        return real(problem, q0, t, n_alpha, config)

    monkeypatch.setattr(reachability, "sphere_and_ball", spy)
    args = ["ball", "--problem", "historical", "--q0", "0,2", "--t", "0.3", "--n", "8",
            "--t-max", "1.0", "--out", str(tmp_path)]
    code, _, _ = run_cli(args + ["--tol", "1e-9"], capsys)
    assert code == 0 and seen == [1e-9]
    code, _, err = run_cli(args + ["--tol", "0"], capsys)
    assert code == 2 and "position_tol" in err
    assert seen == [1e-9]


def test_value_scan_files(tmp_path, capsys):
    code, _, _ = run_cli(
        ["value", "--problem", "historical", "--q0", "0,2",
         "--segment", "1.039,1.298:0.879,1.180", "--n", "40",
         "--t-max", "4.5", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "value_scan.csv").read_text().splitlines()
    assert lines[0] == "s,c1,c2,T,alpha0_star,flag"
    assert len(lines) == 41
    payload = json.loads((tmp_path / "value_jumps.json").read_text())
    assert len(payload["jumps"]) == 1
    assert (tmp_path / "value.svg").exists()


def test_synthesis_files(tmp_path, capsys):
    code, _, _ = run_cli(
        ["synthesis", "--problem", "historical", "--q0", "0,2", "--t-max", "2.0",
         "--n", "64", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "synthesis.csv").read_text().splitlines()
    assert lines[0] == "kind,label,t,c1,c2"
    kinds = {line.split(",")[0] for line in lines[1:]}
    assert "cut-arc" in kinds and "hyperbolic" in kinds
    assert (tmp_path / "synthesis.svg").exists()


def test_synthesis_weak_start_rejected(capsys):
    code, _, err = run_cli(
        ["synthesis", "--problem", "historical", "--q0", "0,0.5"], capsys
    )
    assert code == 2
    assert "strong" in err


@pytest.mark.parametrize(
    "problem, args, name",
    [
        ("historical", ["value", "--q0", "0,2", "--segment", "1.039,1.298:0.879,1.180",
                        "--n", "8", "--tol", "nan"], "position_tol"),
        ("vortex", ["wavefront", "--q0", "0.5,0", "--t", "inf", "--n", "8"], "--t"),
        ("vortex", ["integrate", "--state", "0.5,0,1.1", "--t", "inf"], "--t"),
        ("vortex", ["synthesis", "--q0", "0.5,0", "--t-max", "inf"], "t_max"),
        ("historical", ["synthesis", "--q0", "0,2", "--t-max", "inf"], "t_max"),
        # a weak-current state, which an infinite tolerance would tag abnormal
        ("historical", ["classify", "--state", "0,0.5,1", "--tol", "inf"], "tolerance"),
        ("historical", ["cusp", "--state", "0,0.5,1", "--tol", "inf"], "tolerance"),
        # integration tolerances, which must be positive too
        ("vortex", ["integrate", "--state", "0.5,0,1.1", "--t", "0.5", "--tol", "nan"], "--tol"),
        ("vortex", ["integrate", "--state", "0.5,0,1.1", "--t", "0.5", "--tol", "0"], "--tol"),
        ("vortex", ["wavefront", "--q0", "0.5,0", "--t", "0.3", "--n", "8", "--tol", "nan"],
         "--tol"),
        ("vortex", ["wavefront", "--q0", "0.5,0", "--t", "0.3", "--n", "8", "--tol", "0"],
         "--tol"),
        ("vortex", ["synthesis", "--q0", "0.5,0", "--tol", "nan"], "--tol"),
        ("vortex", ["synthesis", "--q0", "0.5,0", "--tol", "0"], "--tol"),
    ],
    ids=["value-tol-nan", "wavefront-t-inf", "integrate-t-inf", "vortex-synthesis-t-max-inf",
         "historical-synthesis-t-max-inf", "classify-tol-inf", "cusp-tol-inf",
         "integrate-tol-nan", "integrate-tol-0", "wavefront-tol-nan", "wavefront-tol-0",
         "synthesis-tol-nan", "synthesis-tol-0"],
)
def test_non_finite_values_are_config_errors(tmp_path, capsys, problem, args, name):
    code, _, err = run_cli([*args, "--problem", problem, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert name in err and "finite" in err


@pytest.mark.parametrize("tol, rows", [(None, 44), ("1e-6", 11)])
def test_tol_reaches_the_vortex_integrator(tmp_path, capsys, tol, rows):
    # the trajectory stores every accepted step: a looser tolerance takes fewer
    args = ["integrate", "--problem", "vortex", "--state", "0.5,0,1.1", "--t", "0.5"]
    code, _, _ = run_cli(
        [*args, *(() if tol is None else ("--tol", tol)), "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 1 + rows


def test_vortex_descriptor_roundtrip(tmp_path, capsys):
    code, _, _ = run_cli(
        ["integrate", "--problem", '{"family": "vortex", "k": 1.0}',
         "--state", "1,0,1.1", "--t", "0.5", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "trajectory.csv").exists()


def test_repeated_runs_are_byte_identical(tmp_path):
    # full process isolation, like a user would see
    args = [
        sys.executable, "-m", "zermelo.cli",
        "wavefront", "--problem", "historical", "--q0", "0,2",
        "--t", "0.3", "--n", "64",
    ]
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        subprocess.run(args + ["--out", str(d)], check=True, capture_output=True)
        outs.append((d / "wavefront.csv").read_bytes() + (d / "wavefront.svg").read_bytes())
    assert outs[0] == outs[1]
