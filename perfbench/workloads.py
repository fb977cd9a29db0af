"""Seeded inputs, tasks and per-task checks of the three benchmark workloads.

Each workload cycles through a fixed list of cells (strata of its input
ranges); the seed only places each task inside its cell (for vortex-ball,
only rotates it).  A run always stops on a whole cycle, so every run of a
workload sees the same mix of cheap and costly tasks and its medians do
not swing with the seed.  Input ranges on which zermelo is known to fail a
check are left out, so that a run fails only on a new defect; README.md
names them.

Inputs are generated outside the timed region with public zermelo calls
only; a task hands zermelo nothing but those inputs.  Tasks look zermelo
functions up through their module at call time (``reachability.wavefront``,
not a copied name), so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import zermelo
from zermelo import cli, cusp, flow, reachability

# Check tolerances.  The jump bound is that of acceptance criterion 7, the
# cusp bound that of tests/test_cusp.py.
T_MIN_REL_TOL = 1e-6
JUMP_LEFT_TOL = 5e-3
CUSP_NORM_TOL = 1e-6

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _rng(workload: str, seed: int) -> random.Random:
    # string seeding hashes with sha512: stable across Python versions
    return random.Random(f"{workload}/{seed}")


def _spread(rng: random.Random, n_cells: int, n_cycles: int) -> list[list[float]]:
    """Per cycle, one position in [0, 1) for each cell.

    Each cell starts at a seeded position and steps by the golden ratio, so
    the few cycles a run gets cover the cell evenly instead of clumping.
    """
    starts = [rng.random() for _ in range(n_cells)]
    return [[(u0 + c * GOLDEN) % 1.0 for u0 in starts] for c in range(n_cycles)]


# -- vortex-ball -----------------------------------------------------------------


@dataclass(frozen=True)
class VortexBallTask:
    r0: float
    th0: float
    t: float


class VortexBall:
    """``sphere_and_ball`` on the k = 1 vortex: numeric endpoint re-integration."""

    name = "vortex-ball"
    n_front = 8
    # Four (r0, t) points on the diagonal of the square [0.4, 0.7] x [0.1, 0.2],
    # the centres of its diagonal quarter cells.  Task cost grows steeply
    # with t / r0^2: about 2 s at r0 = 0.7, t = 0.1 but 28 s at r0 = 0.4,
    # t = 0.2 on a 2-CPU x86 VM, so one corner task would fill a whole run.
    # The seed draws th0 only: the vortex is rotation invariant, so every
    # run does the same work, and its timings move with zermelo and the
    # host, not with the inputs.
    points = tuple((0.4375 + 0.075 * j, 0.1125 + 0.025 * j) for j in range(4))
    cycle = len(points)
    pool_cycles = 256

    def __init__(self):
        self.problem = zermelo.make_vortex(1.0)
        self.config = zermelo.ShootingConfig(t_max=0.5, n_alpha=240, n_time=160)

    def generate(self, seed: int) -> list[VortexBallTask]:
        rng = _rng(self.name, seed)
        return [
            VortexBallTask(r0=r0, th0=-math.pi + 2.0 * math.pi * rng.random(), t=t)
            for _ in range(self.pool_cycles)
            for r0, t in self.points
        ]

    def run(self, task: VortexBallTask):
        return reachability.sphere_and_ball(
            self.problem, (task.r0, task.th0), task.t, self.n_front, self.config
        )

    def check(self, task: VortexBallTask, result) -> tuple[bool, dict]:
        t_min = np.asarray(result.t_min)
        finite = t_min[np.isfinite(t_min)]
        tags = np.array([tag.value for tag in result.front.tags])
        ok = bool(np.all(finite <= task.t * (1.0 + T_MIN_REL_TOL)))
        ok &= bool(np.array_equal(result.is_sphere, tags == "hyperbolic"))
        ok &= len(result.abnormal_arcs) == 2
        return ok, {}


# -- historical-cli ----------------------------------------------------------------


@dataclass(frozen=True)
class HistoricalCliTask:
    y0: float
    f: float
    heading: float  # cusped abnormal heading at (0, y0)
    t_star: float  # time at which the value segment crosses the abnormal arc
    segment: tuple[tuple[float, float], tuple[float, float]]

    def commands(self, out: str) -> list[list[str]]:
        q0 = f"0,{self.y0!r}"
        cusped = f"0,{self.y0!r},{self.heading!r}"
        (ax, ay), (bx, by) = self.segment
        return [
            ["classify", "--state", f"0,{self.y0!r},0"],
            ["integrate", "--state", cusped, "--t", "2", "--out", out],
            ["cusp", "--state", cusped, "--out", out],
            ["wavefront", "--q0", q0, "--t", "0.3", "--n", "256", "--out", out],
            ["ball", "--q0", q0, "--t", "0.3", "--n", "96", "--out", out],
            ["value", "--q0", q0, "--segment", f"{ax!r},{ay!r}:{bx!r},{by!r}",
             "--n", "200", "--out", out],
            ["synthesis", "--q0", q0, "--out", out],
        ]


class HistoricalCli:
    """One pass of the seven README historical commands through ``cli.main``."""

    name = "historical-cli"
    # y0 takes the four quarter midpoints of [1.5, 2.0]; the seed places the
    # value segment (f).  Above y0 = 2.2 the ball check fails at some y0
    # (first at 2.25; at 2.8125 the closed-form endpoints lose accuracy next
    # to vertical headings), and near y0 = 2.44 the value scan meets the
    # CLI's t_max = 6 horizon; a benchmark run must not fail, so those y0
    # are left out (see README.md).  f stays below 0.6, where a value scan costs the same at
    # every f; from 0.65 to 0.8 it costs up to twice as much.
    y0_cells = (1.5625, 1.6875, 1.8125, 1.9375)
    f_range = (0.3, 0.6)
    cycle = len(y0_cells)
    pool_cycles = 64

    def __init__(self, out_dir: Path):
        self.problem = zermelo.make_historical()
        self.out = str(out_dir)

    def _cusped_heading(self, y0: float) -> float:
        heads = zermelo.abnormal_headings(self.problem, y0)
        return heads[0] if math.tan(heads[0]) > 0.0 else heads[1]

    def _task(self, y0: float, f: float) -> HistoricalCliTask:
        heading = self._cusped_heading(y0)
        t_star = f * math.tan(heading)
        # segment of length ~0.2 normal to the abnormal arc at t_star, as in
        # acceptance criterion 7
        end = zermelo.integrate_closed_form_historical(
            zermelo.ExtendedState(0.0, y0, heading), t_star
        )
        vel = np.array([end.c2 + math.cos(end.heading), math.sin(end.heading)])
        normal = np.array([-vel[1], vel[0]]) / math.hypot(vel[0], vel[1])
        if normal[0] < 0.0:
            normal = -normal
        p_star = np.array(end.position)
        a = p_star + 99.0e-3 * normal
        b = p_star - 100.0e-3 * normal
        segment = ((float(a[0]), float(a[1])), (float(b[0]), float(b[1])))
        return HistoricalCliTask(y0, f, heading, t_star, segment)

    def generate(self, seed: int) -> list[HistoricalCliTask]:
        lo, hi = self.f_range
        return [
            self._task(y0, lo + (hi - lo) * u)
            for cycle in _spread(_rng(self.name, seed), len(self.y0_cells), self.pool_cycles)
            for y0, u in zip(self.y0_cells, cycle)
        ]

    def run(self, task: HistoricalCliTask) -> list[int]:
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in task.commands(self.out):
                codes.append(cli.main(argv))
        return codes

    def check(self, task: HistoricalCliTask, codes) -> tuple[bool, dict]:
        if any(code != 0 for code in codes):
            return False, {}
        out = Path(self.out)
        diag = {}
        jumps = json.loads((out / "value_jumps.json").read_text())["jumps"]
        ok = len(jumps) == 1
        if ok:
            diag["jump_left_err"] = abs(jumps[0]["t_left"] - task.t_star)
            ok = diag["jump_left_err"] <= JUMP_LEFT_TOL
        rows = [line.split(",") for line in (out / "ball.csv").read_text().splitlines()[1:]]
        ok &= all((row[4] == "1") == (row[3] == "hyperbolic") for row in rows)
        position = json.loads((out / "cusp.json").read_text())["position"]
        if position is None:
            return False, diag
        diag["cusp_norm_err"] = abs(abs(position[1]) - 1.0)  # current norm is |y| here
        ok &= diag["cusp_norm_err"] <= CUSP_NORM_TOL
        return bool(ok), diag


# -- geodesic-bundle ---------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicBundleTask:
    problem: zermelo.ProblemDefinition
    r0: float
    th0: float
    headings: tuple[float, ...]  # the two abnormal headings at r0


class GeodesicBundle:
    """Numeric cusp search on both abnormals, then a 16-heading bundle."""

    name = "geodesic-bundle"
    powerlaws = ((1.0, -3.0, 1.0), (2.0, -2.0, 1.0), (0.5, -1.5, 1.0), (1.0, -2.0, 0.5))
    vortex_k = (0.5, 2.0)
    # f = r0 / r_b in two halves of [0.35, 0.9], crossed with the five problems.
    # Below f = 0.32 cusp_numeric misses the powerlaw (1, -3, 1) cusp, so a
    # benchmark run must leave that out (see README.md).
    f_cells = ((0.35, 0.625), (0.625, 0.9))
    cusp_t_max = 10.0
    n_bundle = 16
    horizon_factor = 1.5
    cycle = len(f_cells) * (1 + len(powerlaws))
    pool_cycles = 200

    def generate(self, seed: int) -> list[GeodesicBundleTask]:
        rng = _rng(self.name, seed)
        f_steps = _spread(rng, self.cycle, self.pool_cycles)
        k_steps = _spread(rng, len(self.f_cells), self.pool_cycles)
        k_lo, k_hi = self.vortex_k
        kinds = 1 + len(self.powerlaws)
        tasks = []
        for f_cycle, k_cycle in zip(f_steps, k_steps):
            for cell, u in enumerate(f_cycle):
                half, kind = divmod(cell, kinds)
                if kind == 0:
                    problem = zermelo.make_vortex(k_lo + (k_hi - k_lo) * k_cycle[half])
                else:
                    problem = zermelo.make_powerlaw(*self.powerlaws[kind - 1])
                # strong/weak boundary |k| r^(a+b) = 1; the vortex is a = -2, b = 1
                a_b = -1.0 if kind == 0 else problem.a + problem.b
                f_lo, f_hi = self.f_cells[half]
                r0 = (f_lo + (f_hi - f_lo) * u) * abs(problem.k) ** (-1.0 / a_b)
                th0 = -math.pi + 2.0 * math.pi * rng.random()
                heads = zermelo.abnormal_headings(problem, r0)
                tasks.append(GeodesicBundleTask(problem, r0, th0, heads))
        return tasks

    def run(self, task: GeodesicBundleTask):
        p = task.problem
        cusps = [
            cusp.cusp_numeric(p, zermelo.ExtendedState(task.r0, task.th0, h), self.cusp_t_max)
            for h in task.headings
        ]
        found = [cp.t_cusp for cp in cusps if cp is not None]
        crossings = 0
        if found:  # without a cusp the check fails anyway; the bundle has no horizon
            horizon = self.horizon_factor * min(found)
            alphas = -math.pi + 2.0 * math.pi * np.arange(1, self.n_bundle + 1) / self.n_bundle
            for alpha in alphas:
                state = zermelo.ExtendedState(task.r0, task.th0, float(alpha))
                traj = flow.integrate_numeric(p, state, horizon)
                if len(traj) >= 2:
                    crossings += len(reachability.self_intersections(traj))
        return cusps, crossings

    def check(self, task: GeodesicBundleTask, result) -> tuple[bool, dict]:
        cusps, _ = result
        found = [cp for cp in cusps if cp is not None]
        if len(found) != 1:
            return False, {}
        norm_err = abs(float(zermelo.current_norm(task.problem, found[0].position[0])) - 1.0)
        return norm_err <= CUSP_NORM_TOL, {"cusp_norm_err": norm_err}


def make(name: str, work_dir: Path):
    """Build the named workload; ``work_dir`` receives the CLI outputs."""
    if name == "vortex-ball":
        return VortexBall()
    if name == "historical-cli":
        return HistoricalCli(work_dir)
    if name == "geodesic-bundle":
        return GeodesicBundle()
    raise ValueError(f"unknown workload {name!r}")

