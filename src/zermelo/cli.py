"""Command-line surface.

Batch commands that wire a problem descriptor to the analysis modules and
emit deterministic CSV/JSON data plus an SVG rendering of the same data.

Exit codes: 0 success, 2 configuration error, 3 numeric failure
(step-size collapse), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import reachability, svg
from .brackets import classify
from .cusp import NotAbnormalError, cusp_historical, cusp_numeric
from .flow import (
    IntegrationError,
    StepControl,
    closed_form_trajectory,
    integrate_numeric,
)
from .output import format_number, to_json, write_csv, write_text
from .problems import (
    ExtendedState,
    ProblemDefinition,
    current_norm,
    make_historical,
    make_vortex,
    problem_from_descriptor,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


# -- argument parsing ---------------------------------------------------------


def _parse_problem(text: str) -> ProblemDefinition:
    text = text.strip()
    if text.startswith("{"):
        try:
            descriptor = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"problem descriptor is not valid JSON: {exc}") from exc
        return problem_from_descriptor(descriptor)
    if text == "historical":
        return make_historical()
    if text == "vortex":
        return make_vortex(1.0)
    raise ConfigError(
        f"unknown problem preset {text!r}; use 'historical', 'vortex' or a JSON descriptor"
    )


def _parse_floats(text: str, count: int, what: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise ConfigError(f"{what} must be {count} comma-separated numbers, got {text!r}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"could not parse {what} {text!r}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{what} must be finite, got {text!r}")
    return values


def _parse_segment(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"segment must be 'c1,c2:c1,c2', got {text!r}")
    return _parse_floats(parts[0], 2, "segment start"), _parse_floats(parts[1], 2, "segment end")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _step_control(args) -> StepControl:
    tol = getattr(args, "tol", None)
    if tol is None:
        return StepControl()
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"--tol must be positive and finite, got {tol!r}")
    return StepControl(tol)


def _shooting_config(args, t_max=None) -> reachability.ShootingConfig:
    """Shooting setup: ``--t-max`` (else ``t_max``) and ``--tol`` as landing tolerance."""
    kwargs = {} if t_max is None else {"t_max": t_max}
    if args.t_max is not None:
        kwargs["t_max"] = args.t_max
    if args.tol is not None:
        kwargs["position_tol"] = args.tol
    return reachability.ShootingConfig(**kwargs)


def _trajectory(problem, state, t_final, control):
    if problem.family == "historical":
        return closed_form_trajectory(problem, state, t_final, n_samples=512)
    return integrate_numeric(problem, state, t_final, control)


TRAJECTORY_HEADER = ["t", "c1", "c2", "alpha", "res_H", "res_eq10", "res_C0"]


def _trajectory_rows(traj):
    """Rows of a trajectory CSV: time, chart state and residuals per sample."""
    res = traj.residuals
    columns = (traj.t, *traj.states.T, res.hamiltonian, res.reduced_hamiltonian,
               res.historical_invariant)
    return list(zip(*columns))


# -- SVG helpers ---------------------------------------------------------------


def _add_boundary(figure: svg.SvgFigure, problem, arrays) -> None:
    finite = [a[np.all(np.isfinite(a), axis=1)] for a in arrays if a.size]
    finite = [a for a in finite if a.shape[0]]
    if not finite:
        return
    stacked = np.vstack(finite)
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    for line in svg.strong_boundary_polylines(problem, lo, hi):
        figure.polyline(line, "boundary")


# -- commands ------------------------------------------------------------------


def cmd_classify(args) -> int:
    problem = _parse_problem(args.problem)
    c1, c2, heading = _parse_floats(args.state, 3, "--state")
    state = ExtendedState(c1, c2, heading)
    tol = args.tol if args.tol is not None else 1e-9
    result = classify(problem, state, tol)
    data = result.data
    payload = {
        "state": [state.c1, state.c2, state.heading],
        "D": data.D,
        "Dprime": data.Dprime,
        "Dsecond": data.Dsecond,
        "class": result.tag.value,
        "current_norm": float(current_norm(problem, problem.radius_of(state.position))),
    }
    sys.stdout.write(to_json(payload) + "\n")
    return EXIT_OK


def cmd_integrate(args) -> int:
    problem = _parse_problem(args.problem)
    c1, c2, heading = _parse_floats(args.state, 3, "--state")
    if not 0.0 < args.t < math.inf:
        raise ConfigError(f"--t must be positive and finite, got {args.t!r}")
    control = _step_control(args)
    traj = integrate_numeric(problem, ExtendedState(c1, c2, heading), args.t, control)
    out = _out_dir(args)
    write_csv(out / "trajectory.csv", TRAJECTORY_HEADER, _trajectory_rows(traj))

    figure = svg.SvgFigure()
    tag = classify(problem, traj.state(0)).tag
    figure.polyline(traj.positions, tag.value)
    figure.points([traj.positions[0]], "start")
    _add_boundary(figure, problem, [traj.positions])
    write_text(out / "trajectory.svg", figure.render())
    print(f"wrote {out / 'trajectory.csv'} ({traj.status})")
    return EXIT_NUMERIC if traj.status == "step-collapse" else EXIT_OK


def cmd_cusp(args) -> int:
    problem = _parse_problem(args.problem)
    c1, c2, heading = _parse_floats(args.state, 3, "--state")
    state = ExtendedState(c1, c2, heading)
    if args.t_max is not None and not 0.0 < args.t_max < math.inf:
        raise ConfigError(f"--t-max must be positive and finite, got {args.t_max!r}")
    # CLI states arrive with few digits; accept almost-abnormal headings
    tol = args.tol if args.tol is not None else 1e-4
    try:
        if problem.family == "historical":
            cp = cusp_historical(state, tol=tol)
        else:
            t_max = args.t_max if args.t_max is not None else 10.0
            cp = cusp_numeric(problem, state, t_max, tol=tol)
    except NotAbnormalError as exc:
        raise ConfigError(str(exc)) from exc
    if cp is None:
        payload = {"t_cusp": None, "position": None, "heading": None, "source": None}
    else:
        payload = {
            "t_cusp": cp.t_cusp,
            "position": [cp.position[0], cp.position[1]],
            "heading": cp.heading,
            "source": cp.source,
        }
    text = to_json(payload) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        out = _out_dir(args)
        write_text(out / "cusp.json", text)
        span = 2.0 * cp.t_cusp if cp is not None else (args.t_max or 4.0)
        traj = _trajectory(problem, state, span, StepControl())
        write_csv(out / "cusp_trajectory.csv", TRAJECTORY_HEADER, _trajectory_rows(traj))
        figure = svg.SvgFigure()
        figure.polyline(traj.positions, "abnormal")
        figure.points([traj.positions[0]], "start")
        if cp is not None:
            figure.points([np.asarray(cp.position)], "marker")
        _add_boundary(figure, problem, [traj.positions])
        write_text(out / "cusp.svg", figure.render())
    return EXIT_OK


def _front_rows(front, is_sphere=None):
    rows = []
    for i in range(front.alpha0.shape[0]):
        sphere_cell = "NA" if is_sphere is None else ("1" if bool(is_sphere[i]) else "0")
        rows.append(
            (
                front.alpha0[i],
                front.positions[i, 0],
                front.positions[i, 1],
                front.tags[i].value,
                sphere_cell,
            )
        )
    return rows


def _front_figure(problem, front, extra_arrays=()):
    figure = svg.SvgFigure()
    tags = np.array([t.value for t in front.tags])
    pts = front.positions
    for cls in ("hyperbolic", "elliptic", "abnormal"):
        mask = tags == cls
        if np.any(mask):
            figure.polyline(pts[mask], cls if cls != "elliptic" else "front")
    figure.points([np.asarray(front.q0)], "start")
    _add_boundary(figure, problem, [pts] + list(extra_arrays))
    return figure


def cmd_wavefront(args) -> int:
    problem = _parse_problem(args.problem)
    q0 = _parse_floats(args.q0, 2, "--q0")
    if not 0.0 < args.t < math.inf:
        raise ConfigError(f"--t must be positive and finite, got {args.t!r}")
    if args.n < 8:
        raise ConfigError("--n must be at least 8")
    control = _step_control(args)
    front = reachability.wavefront(problem, q0, args.t, args.n, control=control)
    out = _out_dir(args)
    write_csv(
        out / "wavefront.csv",
        ["alpha0", "c1", "c2", "class", "is_sphere"],
        _front_rows(front),
    )
    write_text(out / "wavefront.svg", _front_figure(problem, front).render())
    print(f"wrote {out / 'wavefront.csv'} ({front.alpha0.shape[0]} headings)")
    return EXIT_OK


def cmd_ball(args) -> int:
    problem = _parse_problem(args.problem)
    q0 = _parse_floats(args.q0, 2, "--q0")
    if not 0.0 < args.t < math.inf:
        raise ConfigError(f"--t must be positive and finite, got {args.t!r}")
    if args.n < 8:
        raise ConfigError("--n must be at least 8")
    config = _shooting_config(args, max(6.0, 2.0 * args.t))
    result = reachability.sphere_and_ball(problem, q0, args.t, args.n, config)
    out = _out_dir(args)
    write_csv(
        out / "ball.csv",
        ["alpha0", "c1", "c2", "class", "is_sphere"],
        _front_rows(result.front, result.is_sphere),
    )
    arc_rows = []
    for idx, arc in enumerate(result.abnormal_arcs):
        for i in range(len(arc)):
            arc_rows.append((str(idx), arc.t[i], arc.states[i, 0], arc.states[i, 1]))
    write_csv(out / "ball_arcs.csv", ["arc", "t", "c1", "c2"], arc_rows)

    arcs = [arc.positions for arc in result.abnormal_arcs]
    figure = _front_figure(problem, result.front, arcs)
    sphere_pts = result.front.positions[result.is_sphere]
    if sphere_pts.shape[0] >= 2:
        figure.polyline(sphere_pts, "sphere")
    for arc in arcs:
        figure.polyline(arc, "abnormal")
    write_text(out / "ball.svg", figure.render())
    print(f"wrote {out / 'ball.csv'} ({int(result.is_sphere.sum())} sphere points)")
    return EXIT_OK


def cmd_value(args) -> int:
    problem = _parse_problem(args.problem)
    q0 = _parse_floats(args.q0, 2, "--q0")
    seg_a, seg_b = _parse_segment(args.segment)
    if args.n < 2:
        raise ConfigError("--n must be at least 2")
    config = _shooting_config(args)
    scan = reachability.discontinuity_scan(problem, q0, (seg_a, seg_b), args.n, config)
    out = _out_dir(args)
    rows = []
    for i, sample in enumerate(scan.samples):
        rows.append(
            (
                scan.s[i],
                scan.positions[i, 0],
                scan.positions[i, 1],
                sample.t_min,
                sample.heading0,
                sample.flag,
            )
        )
    write_csv(out / "value_scan.csv", ["s", "c1", "c2", "T", "alpha0_star", "flag"], rows)
    payload = {
        "jumps": [
            {
                "index": jump.index,
                "s": jump.s,
                "t_left": jump.t_left,
                "t_right": jump.t_right,
                "position": [jump.position[0], jump.position[1]],
            }
            for jump in scan.jumps
        ]
    }
    write_text(out / "value_jumps.json", to_json(payload) + "\n")

    figure = svg.SvgFigure()
    finite = np.isfinite([s.t_min for s in scan.samples])
    curve = np.column_stack((scan.s, [s.t_min if f else np.nan for s, f in zip(scan.samples, finite)]))
    figure.polyline(curve, "scan")
    for jump in scan.jumps:
        figure.points([np.array([jump.s, jump.t_left])], "marker")
    write_text(out / "value.svg", figure.render())
    print(f"wrote {out / 'value_scan.csv'} ({len(scan.jumps)} jump(s))")
    return EXIT_OK


def cmd_synthesis(args) -> int:
    problem = _parse_problem(args.problem)
    q0 = _parse_floats(args.q0, 2, "--q0")
    control = _step_control(args)
    try:
        estimate = reachability.cut_locus_estimate(problem, q0, args.t_max, args.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    t_max = max(arc.t_end for arc in estimate.arcs)
    heads = estimate.arc_headings
    rows = []
    polylines = []
    for idx, arc in enumerate(estimate.arcs):
        label = f"abnormal-{idx}"
        for i in range(len(arc)):
            rows.append(("cut-arc", label, arc.t[i], arc.states[i, 0], arc.states[i, 1]))
        polylines.append(("cut", arc.positions))
    if len(heads) == 2:
        lo, hi = heads
        interior = np.linspace(lo, hi, 9)[1:-1]
        for heading in interior:
            traj = _trajectory(problem, ExtendedState(q0[0], q0[1], heading), t_max, control)
            tag = classify(problem, traj.state(0)).tag
            label = f"{tag.value}-{format_number(heading)}"
            stride = max(1, len(traj) // 128)
            keep = list(range(0, len(traj), stride))
            if keep[-1] != len(traj) - 1:
                keep.append(len(traj) - 1)
            pts = traj.positions[keep]
            for i in keep:
                rows.append((tag.value, label, traj.t[i], traj.states[i, 0], traj.states[i, 1]))
            polylines.append((tag.value, pts))
    for point in estimate.separating_points:
        rows.append(
            (
                "separating",
                "confirmed" if point.confirmed else "candidate",
                point.t,
                point.position[0],
                point.position[1],
            )
        )
    out = _out_dir(args)
    write_csv(out / "synthesis.csv", ["kind", "label", "t", "c1", "c2"], rows)

    figure = svg.SvgFigure()
    for cls, pts in polylines:
        figure.polyline(pts, cls)
    sep = [np.asarray(pt.position) for pt in estimate.separating_points if pt.confirmed]
    if sep:
        figure.points(np.vstack(sep), "marker")
    figure.points([np.asarray(q0, dtype=float)], "start")
    _add_boundary(figure, problem, [pts for _, pts in polylines])
    write_text(out / "synthesis.svg", figure.render())
    print(f"wrote {out / 'synthesis.csv'} ({len(estimate.separating_points)} separating candidate(s))")
    return EXIT_OK


# -- driver --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zermelo",
        description="Geodesics, cusps and reachable sets of rotationally "
        "symmetric planar navigation problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--problem", default="historical", help="preset name or JSON descriptor")
        p.add_argument("--tol", type=float, default=None,
                       help="classification (classify, cusp), integration (integrate, "
                       "wavefront; in synthesis the geodesic bundle only, not the cut-locus "
                       "estimate; the historical closed form of wavefront and synthesis "
                       "takes none) or landing (value, ball) tolerance")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("classify", help="bracket determinants and heading class at a state")
    p.add_argument("--state", required=True, help="c1,c2,heading")
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("integrate", help="numeric trajectory with conserved-quantity residuals")
    p.add_argument("--state", required=True)
    p.add_argument("--t", type=float, required=True)
    add_common(p)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("cusp", help="cusp of the abnormal geodesic through a state")
    p.add_argument("--state", required=True)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    add_common(p)
    p.set_defaults(func=cmd_cusp, out=None)

    p = sub.add_parser("wavefront", help="fixed-time endpoint map image of the heading circle")
    p.add_argument("--q0", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, default=256)
    add_common(p)
    p.set_defaults(func=cmd_wavefront)

    p = sub.add_parser("ball", help="time-minimal sphere and ball boundary")
    p.add_argument("--q0", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, default=96)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    add_common(p)
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("value", help="value function scan along a segment with jump detection")
    p.add_argument("--q0", required=True)
    p.add_argument("--segment", required=True, help="c1,c2:c1,c2")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    add_common(p)
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("synthesis", help="cut-locus arcs and geodesic bundle near a strong start")
    p.add_argument("--q0", required=True)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--n", type=int, default=128)
    add_common(p)
    p.set_defaults(func=cmd_synthesis)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
