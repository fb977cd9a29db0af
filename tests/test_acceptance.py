"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on success.
"""

import math
import subprocess
import sys

import numpy as np

from zermelo import (
    ExtendedState,
    ShootingConfig,
    StepControl,
    abnormal_headings,
    bracket_data,
    current_norm,
    cusp_historical,
    cusp_numeric,
    discontinuity_scan,
    integrate_closed_form_historical,
    integrate_numeric,
    make_adjoint,
    make_historical,
    make_vortex,
    value_function,
    build_shooting_grid,
    wavefront,
)
from zermelo.reachability import SPHERE_TOL

from conftest import angle_gap

HISTORICAL = make_historical()
VORTEX = make_vortex(1.0)
Q0 = (0.0, 2.0)
CUSPED = -2.0 * math.pi / 3.0


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _cusped_heading(y0: float) -> float:
    heads = abnormal_headings(HISTORICAL, y0)
    return heads[0] if math.tan(heads[0]) > 0.0 else heads[1]


def test_criterion_1_closed_form_fidelity():
    control = StepControl(1e-10)
    headings = -math.pi + 2.0 * math.pi * np.arange(1, 65) / 64.0  # includes +-pi/2, pi
    worst = 0.0
    for g0 in headings:
        state0 = ExtendedState(0.0, 2.0, g0)
        for t in (0.25, 0.5, 1.0, 2.0):
            numeric = integrate_numeric(HISTORICAL, state0, t, control).final_state
            exact = integrate_closed_form_historical(state0, t)
            worst = max(
                worst,
                abs(numeric.c1 - exact.c1),
                abs(numeric.c2 - exact.c2),
                angle_gap(numeric.heading, exact.heading),
            )
    _report(1, worst <= 1e-6, f"64x4 grid sup-norm closed-form vs numeric = {worst:.3e} <= 1e-6")


def _conservation_trajectories():
    control = StepControl()
    for g0 in (0.4, 1.2, 2.0, 2.8, -0.9, -2.2, math.pi / 2.0):
        yield integrate_numeric(HISTORICAL, ExtendedState(0.0, 2.0, g0), 2.0, control)
    yield integrate_numeric(
        HISTORICAL, ExtendedState(0.0, 2.0, CUSPED), 2.0 * math.sqrt(3.0), control
    )
    for r0 in (0.3, 0.5, 0.9):
        for a0 in (0.9, 2.4):
            yield integrate_numeric(
                VORTEX, ExtendedState(r0, 0.0, a0), 0.5 * r0, control
            )


def test_criterion_2_conservation_suite():
    worst_h = worst_red = worst_hist = 0.0
    for traj in _conservation_trajectories():
        assert traj.status == "completed"
        # the angular adjoint is a single stored constant, fixed at t=0
        expected = make_adjoint(traj.problem, traj.state(0))
        assert traj.adjoint.p_theta == expected.p_theta
        res = traj.residuals
        if np.any(np.isfinite(res.hamiltonian)):
            worst_h = max(worst_h, float(np.nanmax(res.hamiltonian)))
        if np.any(np.isfinite(res.reduced_hamiltonian)):
            worst_red = max(worst_red, float(np.nanmax(res.reduced_hamiltonian)))
        if np.any(np.isfinite(res.historical_invariant)):
            worst_hist = max(worst_hist, float(np.nanmax(res.historical_invariant)))
    ok = worst_h <= 1e-8 and worst_red <= 1e-8 and worst_hist <= 1e-8
    _report(
        2,
        ok,
        f"max residuals: hamiltonian {worst_h:.2e}, reduced {worst_red:.2e}, "
        f"height-integral {worst_hist:.2e} (all <= 1e-8)",
    )


def test_criterion_3_abnormal_headings():
    ok = True
    detail = []
    for y0 in (1.0, 1.2, 2.0, 5.0):
        heads = abnormal_headings(HISTORICAL, y0)
        expected = math.acos(-1.0 / y0)
        if y0 == 1.0:
            ok &= len(heads) == 1 and angle_gap(heads[0], expected) < 1e-12
        else:
            ok &= len(heads) == 2
            ok &= angle_gap(heads[0], -expected) < 1e-12
            ok &= angle_gap(heads[1], expected) < 1e-12
        worst_ds = max(
            abs(bracket_data(HISTORICAL, ExtendedState(0.0, y0, h)).Dsecond) for h in heads
        )
        ok &= worst_ds <= 1e-12
        detail.append(f"y0={y0}: {len(heads)} heading(s), |D''|<= {worst_ds:.1e}")
    ok &= abnormal_headings(HISTORICAL, 0.5) == ()
    _report(3, ok, "; ".join(detail) + "; y0=0.5 -> none")


def test_criterion_4_cusp_analytic_vs_numeric():
    ok = True
    worst_dt = worst_norm = 0.0
    for y0 in (1.2, 1.5, 2.0, 3.0, 5.0):
        g0 = _cusped_heading(y0)
        state0 = ExtendedState(0.0, y0, g0)
        analytic = cusp_historical(state0)
        ok &= math.isclose(analytic.t_cusp, math.tan(g0), rel_tol=1e-12)
        ok &= analytic.position[1] == math.copysign(1.0, y0)
        ok &= angle_gap(analytic.heading, 0.0) < 1e-12 or angle_gap(analytic.heading, math.pi) < 1e-12
        numeric = cusp_numeric(HISTORICAL, state0, 1.5 * analytic.t_cusp)
        ok &= numeric is not None
        worst_dt = max(worst_dt, abs(numeric.t_cusp - analytic.t_cusp))
        worst_norm = max(
            worst_norm,
            abs(float(current_norm(HISTORICAL, numeric.position[1])) - 1.0),
        )
    ok &= worst_dt <= 1e-6 and worst_norm <= 1e-6
    _report(4, ok, f"cusp |t_num - t_exact| <= {worst_dt:.2e}, |norm-1| <= {worst_norm:.2e}")


def test_criterion_5_abnormality_invariance():
    worst = 0.0
    for y0 in (1.2, 1.5, 2.0, 3.0, 5.0):
        g0 = _cusped_heading(y0)
        t_cusp = math.tan(g0)
        traj = integrate_numeric(HISTORICAL, ExtendedState(0.0, y0, g0), 2.0 * t_cusp)
        assert traj.status == "completed"
        worst = max(
            worst,
            max(abs(bracket_data(HISTORICAL, traj.state(i)).Dsecond) for i in range(len(traj))),
        )
    _report(5, worst <= 1e-8, f"|D''| along abnormal trajectories <= {worst:.2e} <= 1e-8")


def test_criterion_6_fan_shape():
    t = 0.3
    heads = abnormal_headings(HISTORICAL, Q0[1])
    front = wavefront(HISTORICAL, Q0, t, 48, include_headings=heads)
    worst_coincide = 0.0
    for h in heads:
        i = int(np.argmin(np.abs(front.alpha0 - h)))
        arc_end = integrate_closed_form_historical(ExtendedState(Q0[0], Q0[1], h), t)
        worst_coincide = max(
            worst_coincide, float(np.hypot(*(front.positions[i] - np.array(arc_end.position))))
        )
    config = ShootingConfig(t_max=1.0)
    grid = build_shooting_grid(HISTORICAL, Q0, config)
    t_min = np.array(
        [value_function(HISTORICAL, Q0, pos, config, grid).t_min for pos in front.positions]
    )
    is_sphere = np.abs(t_min - t) <= SPHERE_TOL * (1.0 + t)
    tags = np.array([tag.value for tag in front.tags])
    only_hyperbolic = bool(np.all(tags[is_sphere] == "hyperbolic"))
    all_hyperbolic_in = bool(np.all(is_sphere[tags == "hyperbolic"]))
    elliptic_gap = float(np.min(t - t_min[tags == "elliptic"]))
    no_elliptic = elliptic_gap > SPHERE_TOL * (1.0 + t)
    ok = worst_coincide <= 1e-9 and only_hyperbolic and all_hyperbolic_in and no_elliptic
    _report(
        6,
        ok,
        f"abnormal endpoints coincide to {worst_coincide:.1e}; sphere = hyperbolic sector "
        f"({int(is_sphere.sum())} pts); elliptic reached faster by >= {elliptic_gap:.2e}",
    )


def _crossing_segment(t_star: float, h: float = 1e-3):
    end = integrate_closed_form_historical(ExtendedState(0.0, 2.0, CUSPED), t_star)
    p_star = np.array(end.position)
    vel = np.array([end.c2 + math.cos(end.heading), math.sin(end.heading)])
    normal = np.array([-vel[1], vel[0]])
    normal /= math.hypot(*normal)
    if normal[0] < 0:
        normal = -normal
    return (tuple(p_star + 99.0 * h * normal), tuple(p_star - 100.0 * h * normal))


def test_criterion_7_value_function_discontinuity():
    t_star = 1.0
    config = ShootingConfig(t_max=4.5, n_alpha=720, position_tol=1e-8)
    scan = discontinuity_scan(HISTORICAL, Q0, _crossing_segment(t_star), 200, config)
    one_jump = len(scan.jumps) == 1
    left_err = abs(scan.jumps[0].t_left - t_star) if one_jump else math.inf

    weak = discontinuity_scan(
        HISTORICAL, (0.0, 0.5), ((0.30, 0.35), (0.45, 0.45)), 200,
        ShootingConfig(t_max=3.0, n_alpha=720, position_tol=1e-8),
    )
    ok = one_jump and left_err <= 5e-3 and weak.jumps == []
    _report(
        7,
        ok,
        f"strong scan: {len(scan.jumps)} jump, left-limit error {left_err:.2e} <= 5e-3; "
        f"weak scan: {len(weak.jumps)} jumps",
    )


def test_criterion_8_abnormal_optimal_before_cusp():
    config = ShootingConfig(t_max=2.5, position_tol=1e-11)
    grid = build_shooting_grid(HISTORICAL, Q0, config)
    worst_gain = -math.inf
    ok = True
    for t_star in (0.3, 0.6, 0.9, 1.2, 1.5):
        target = integrate_closed_form_historical(
            ExtendedState(0.0, 2.0, CUSPED), t_star
        ).position
        sample = value_function(HISTORICAL, Q0, target, config, grid)
        ok &= sample.reachable
        gain = t_star - sample.t_min  # positive when shooting beats the abnormal
        worst_gain = max(worst_gain, gain)
        ok &= sample.t_min >= t_star - 1e-4
        ok &= sample.t_min <= t_star + 1e-3  # and it does find the abnormal route
    _report(
        8,
        ok,
        f"no arrival beats the abnormal time by more than {max(worst_gain, 0.0):.2e} (< 1e-4)",
    )


def test_criterion_9_vortex_sanity():
    ok = True
    detail = []
    worst_res = 0.0
    for r0 in (0.3, 0.5, 0.9):
        # conservation along vortex trajectories (criterion-2 form)
        for a0 in (0.9, 2.4):
            traj = integrate_numeric(VORTEX, ExtendedState(r0, 0.0, a0), 0.5 * r0)
            ok &= traj.status == "completed"
            for res in (traj.residuals.hamiltonian, traj.residuals.reduced_hamiltonian):
                if np.any(np.isfinite(res)):
                    worst_res = max(worst_res, float(np.nanmax(res)))
        # abnormal headings (criterion-3 general form): strong region r < k
        heads = abnormal_headings(VORTEX, r0)
        ok &= len(heads) == 2
        sin_expected = -r0  # sin(alpha) = -1/(mu m) = -r/k
        for h in heads:
            ok &= math.isclose(math.sin(h), sin_expected, abs_tol=1e-12)
            data = bracket_data(VORTEX, ExtendedState(r0, 0.0, h))
            ok &= abs(data.Dsecond) <= 1e-12
        ok &= math.isclose(math.cos(heads[0]), -math.cos(heads[1]), abs_tol=1e-12)
        detail.append(f"r0={r0}: 2 abnormal headings")
    ok &= worst_res <= 1e-8
    _report(9, ok, f"residuals <= {worst_res:.2e}; " + "; ".join(detail))


def test_criterion_10_cli_determinism(tmp_path):
    commands = [
        ["wavefront", "--problem", "historical", "--q0", "0,2", "--t", "0.3", "--n", "64"],
        ["value", "--problem", "historical", "--q0", "0,2",
         "--segment", "1.039,1.298:0.879,1.180", "--n", "24", "--t-max", "4.5"],
        ["cusp", "--problem", "historical", "--state", "0,2,-2.0944"],
    ]
    ok = True
    for idx, command in enumerate(commands):
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / f"{idx}-{run}"
            out.mkdir()
            subprocess.run(
                [sys.executable, "-m", "zermelo.cli", *command, "--out", str(out)],
                check=True,
                capture_output=True,
            )
            files = sorted(p for p in out.iterdir())
            blobs.append([(p.name, p.read_bytes()) for p in files])
        ok &= blobs[0] == blobs[1] and len(blobs[0]) > 0
    _report(10, ok, f"{len(commands)} CLI commands byte-identical across repeated runs")
