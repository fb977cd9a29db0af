"""Wavefronts, time-minimal spheres and balls, shooting, cut-locus estimation.

The fixed-time wavefront is the image of the heading circle under the
endpoint map.  In the strong-current region only part of the front is
time-minimal: the sphere is recovered by filtering front points through the
value function, and the small-time ball is the fan bounded by that sphere
sector together with the two abnormal arcs.

The value function itself is computed by shooting: a dense (heading x
time) endpoint grid locates candidate arrivals, then a damped Newton
iteration on the 2-d endpoint map polishes each candidate until it lands
within ``position_tol`` of the target.  The polish runs in two stages.
Every candidate first iterates on the endpoint map integrated at the loose
``COARSE_CONTROL`` until it lands within ``COARSE_LANDING`` (or
``position_tol``, if larger); only the candidates that landed are then
polished at the default control down to ``position_tol`` (inexact Newton:
Dembo, Eisenstat and Steihaug, SIAM J. Numer. Anal. 19, 1982).  Newton
converges only linearly where the endpoint map folds, along the abnormal
headings, so the slow candidates spend their many iterations on the cheap
map.  The backtracking line search (Dennis and Schnabel, "Numerical Methods
for Unconstrained Optimization and Nonlinear Equations", 1983, section 6.3)
tries the step lengths 1, 1/2, 1/4, ... in doubling blocks of 1, 1, 2, 4,
... lengths, one ``endpoints`` batch per block; each lane takes the first
length that lowers its residual, the iterate halving one length per batch
would give (the lengths are exact, and a lane's endpoint does not depend on
its batch).  The finite-difference Jacobian of a lane whose last accepted
step was the full one rides in the batch of its next full-step trial, so a
lane that keeps taking full steps costs one ``endpoints`` batch per
iteration; a lane that backtracked takes its Jacobian in a separate batch
until it takes a full step again.  A line-search trial past twice ``t_max``
is never integrated: it cannot give a value and would cost a long
integration.  The minimal polished arrival time over all candidates is
reported, with the Newton iterations of the achieving candidate over both
stages (``n_newton``).  A target with no candidate node, or none that lands
by ``t_max``, is unreachable: a value, not an error.

The grid is the whole shooting context: it carries the problem, start and
config it was built from, and shooting reads them from the grid alone.  It
indexes its (heading, time) nodes in one pass over its tile rows of
``TILE`` headings: each row gives its nodes' local cells, and each ``TILE``
x ``TILE`` tile in it keeps the box of its endpoints and its largest
capture radius, so the work arrays stay one tile row in size, and a
target's candidates come from the few tiles whose widened box holds it
rather than a scan of every node.  Tiles are local in index space, so lanes
whose chart angle winds far from the rest of a polar grid widen only their
own tiles.  Every sphere, scan and cut-locus estimate builds one grid and
polishes every candidate of every target in one Newton batch; a cut-locus
estimate first collects the crossings of all its (untagged) fronts.  The
grid samples the endpoint map at ``COARSE_CONTROL``: it only seeds the
first stage, which iterates on that map.  Spheres and cut-locus estimates
know a time by which each of their targets is reached, the front time:
a candidate node more than ``CAPTURE_FACTOR`` grid time steps past it (the
arrival bound) is not polished, since an earlier arrival has a candidate
within that many local cells.  A lane's result does not depend on its
batch, so the kept lanes give the bits they give unbounded, and ``t_min``
can only rise.  Their grid rows stop one time past the latest arrival
bound, so no heading is integrated to a time no candidate can have;
``t_max`` stays the Newton horizon.  The times are a prefix of the full
grid's and a lane starts from its node's heading and time, so the lanes
are the full grid's as long as the candidates are: only the endpoints of a
row's last step, which lands on the new last time, move (within the step
tolerance), and they can change a candidate only by a near tie.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .brackets import ExtremalTag, abnormal_headings, classify
from .cusp import cusp_historical, cusp_numeric
from .flow import (
    GeodesicTrajectory,
    StepControl,
    closed_form_trajectory,
    endpoints,
    integrate_numeric,
    state_at,
)
from .geometry import polyline_self_intersections, refine_curve_intersection
from .problems import ExtendedState, ProblemDefinition, current_norm, wrap_angle

__all__ = [
    "CutLocusEstimate",
    "JumpReport",
    "SeparatingPoint",
    "ShootingConfig",
    "ShootingGrid",
    "SphereAndBall",
    "ValueSample",
    "ValueScan",
    "Wavefront",
    "build_shooting_grid",
    "cut_locus_estimate",
    "discontinuity_scan",
    "self_intersections",
    "sphere_and_ball",
    "value_function",
    "wavefront",
]

UNREACHABLE = math.inf

SPHERE_TOL = 1e-6  # sphere membership: |t_min - t| <= SPHERE_TOL * (1 + t)
MAX_NEWTON = 60  # Newton iterations per candidate
CAPTURE_FACTOR = 3.0  # capture radius of a grid node, in local grid cells
MAX_CANDIDATES = 200  # candidates polished per target, nearest first
ABNORMAL_MATCH_TOL = 1e-6  # heading gap to an abnormal that flags "via-abnormal"
N_FRONT_TIMES = 5  # wavefront times searched for separating points
LINE_SEARCH_STEPS = 20  # step lengths 0.5**i tried per Newton iteration
COARSE_CONTROL = StepControl(1e-7)  # endpoint map of the first Newton stage
COARSE_LANDING = 3e-5  # first-stage landing residual, >= 5x the coarse map's endpoint error
TILE = 8  # edge, in grid nodes, of the index-space tiles that bound candidate lookups


@dataclass(frozen=True)
class ShootingConfig:
    """Grid sizes, horizon and landing tolerance for value-function shooting."""

    n_alpha: int = 720
    n_time: int = 600
    t_max: float = 6.0
    position_tol: float = 1e-8

    def __post_init__(self):
        if self.n_alpha < 8 or self.n_time < 8:
            raise ValueError("shooting grids need at least 8 headings and 8 times")
        for name in ("t_max", "position_tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _grid_index(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per node its local cell, and per ``TILE`` x ``TILE`` tile its node box and capture radius.

    One pass over the tile rows of ``TILE`` headings (the last may be
    ragged) forms both, so the work arrays stay one tile row in size.  A
    node's cell is the larger endpoint step to the previous heading (which
    wraps) or to the next time (the last time repeats the one before); a
    step that touches a nan node counts as 0.  The heading step is
    ``sqrt(dx*dx + dy*dy)``, the sum ``np.linalg.norm`` takes, and the time
    step ``max(|dx|, |dy|)``.  The tiles are planes ``(lo x, lo y, hi x,
    hi y, radius)``: the box of the tile's finite nodes (nan if it has
    none), and ``CAPTURE_FACTOR`` times its largest cell, since the capture
    radius grows with the cell.
    """
    n_alpha, n_time = positions.shape[:2]
    cols = np.arange(0, n_time, TILE)
    cell = np.empty((n_alpha, n_time))
    tiles = np.empty((5, -(-n_alpha // TILE), cols.shape[0]))
    for k, i in enumerate(range(0, n_alpha, TILE)):
        rows = positions[i : i + TILE]
        row_cell = cell[i : i + TILE]
        step = np.abs(np.diff(rows, axis=1))  # to the next time
        np.maximum(step[..., 0], step[..., 1], out=row_cell[:, :-1])  # nan propagates, as in max
        row_cell[:, -1] = row_cell[:, -2]
        row_cell[~np.isfinite(row_cell)] = 0.0
        # to the previous heading, which wraps
        d = rows - positions.take(range(i - 1, i - 1 + rows.shape[0]), axis=0, mode="wrap")
        d *= d
        step = np.sqrt(d[..., 0] + d[..., 1])
        step[~np.isfinite(step)] = 0.0
        np.fmax(step, row_cell, out=row_cell)
        tiles[:2, k] = np.fmin.reduceat(np.fmin.reduce(rows, axis=0), cols).T
        tiles[2:4, k] = np.fmax.reduceat(np.fmax.reduce(rows, axis=0), cols).T
        largest = np.maximum.reduceat(np.maximum.reduce(row_cell, axis=0), cols)
        tiles[4, k] = CAPTURE_FACTOR * np.fmax(largest, 1e-12)
    return cell, tiles


@dataclass
class ShootingGrid:
    """Endpoint grid of one shooting problem, reusable across its targets.

    The grid carries the problem, start and config it was built from, so
    shooting reads all of them from the grid alone.
    """

    problem: ProblemDefinition
    q0: tuple[float, float]
    config: ShootingConfig
    alphas: np.ndarray  # (n_alpha,) chart headings
    times: np.ndarray  # (n_time,) ascending from 0; a prefix of the config's if rows stop early
    positions: np.ndarray  # (n_alpha, n_time, 2); nan where integration halted
    cell: np.ndarray = field(init=False)  # (n_alpha, n_time) local endpoint spacing
    tiles: np.ndarray = field(init=False, repr=False)  # (5, n_tile_alpha, n_tile_time) boxes

    def __post_init__(self):
        self.cell, self.tiles = _grid_index(self.positions)


@dataclass(frozen=True)
class ValueSample:
    """Minimal transfer time to one target, with the achieving heading."""

    target: tuple[float, float]
    t_min: float  # inf marks an unreachable target within the scan horizon
    heading0: float | None
    flag: str  # "interior" | "via-abnormal" | "unreachable"
    n_candidates: int = 0  # Newton lanes polished for this target
    residual: float = math.inf  # landing error of the achieving lane; inf if none landed
    n_newton: int = 0  # Newton iterations of the achieving lane, both stages

    @property
    def reachable(self) -> bool:
        return math.isfinite(self.t_min)


@dataclass
class Wavefront:
    """Endpoint-map image of the heading circle at one fixed time."""

    problem: ProblemDefinition
    q0: tuple[float, float]
    t: float
    alpha0: np.ndarray
    positions: np.ndarray  # (n, 2); nan rows where the trajectory left the domain
    tags: list[ExtremalTag]
    ok: np.ndarray


@dataclass
class SphereAndBall:
    """Sphere filter over a wavefront plus the fan's abnormal boundary arcs."""

    front: Wavefront
    t_min: np.ndarray
    is_sphere: np.ndarray
    abnormal_arcs: list[GeodesicTrajectory]


@dataclass(frozen=True)
class JumpReport:
    """One detected discontinuity of the sampled value function."""

    index: int  # sample index immediately left of the maximal gap
    s: float  # arclength at the gap midpoint
    t_left: float
    t_right: float
    position: tuple[float, float]


@dataclass
class ValueScan:
    s: np.ndarray
    positions: np.ndarray
    samples: list[ValueSample]
    jumps: list[JumpReport]


@dataclass(frozen=True)
class SeparatingPoint:
    """Equal-time crossing of two distinct minimizing geodesics."""

    t: float
    position: tuple[float, float]
    heading_a: float
    heading_b: float
    confirmed: bool


@dataclass
class CutLocusEstimate:
    arcs: list[GeodesicTrajectory]
    arc_headings: tuple[float, ...]
    separating_points: list[SeparatingPoint]


# -- shooting ----------------------------------------------------------------


def _heading_circle(n: int) -> np.ndarray:
    """``n`` evenly spaced headings in (-pi, pi], ending at pi: the circle a front images."""
    if n < 8:
        raise ValueError("wavefront needs at least 8 headings")
    return -math.pi + 2.0 * math.pi * np.arange(1, n + 1) / n


def _arrival_bound(times: np.ndarray, reached_by: float) -> float:
    """The latest grid time of a candidate for a target reached by ``reached_by``.

    An arrival by then has a candidate within ``CAPTURE_FACTOR`` local
    cells, so at most that many grid time steps later.
    """
    return reached_by + CAPTURE_FACTOR * times[1]


def build_shooting_grid(
    problem: ProblemDefinition,
    q0,
    config: ShootingConfig | None = None,
    *,
    reached_by: float = math.inf,
) -> ShootingGrid:
    """Dense endpoint grid over evenly spaced headings and times up to t_max.

    The grid only seeds the first Newton stage, so it samples the endpoint
    map that stage iterates on, integrated at ``COARSE_CONTROL``.  When
    every target is known to be reached by ``reached_by``, the rows stop
    one time past the arrival bound, the last candidate time: the times are
    a prefix of the full grid's, and every candidate keeps its time
    neighbours.  ``config.t_max`` stays the Newton horizon.
    """
    config = config or ShootingConfig()
    alphas = _heading_circle(config.n_alpha)
    times = np.linspace(0.0, config.t_max, config.n_time)
    k = np.count_nonzero(times <= _arrival_bound(times, reached_by))
    times = times[: k + 1]
    q0 = (float(q0[0]), float(q0[1]))
    positions = endpoints(problem, q0, alphas, times[None, :], COARSE_CONTROL)
    return ShootingGrid(problem, q0, config, alphas, times, positions)


def _tile_nodes(grid: ShootingGrid, tx: float, ty: float) -> np.ndarray:
    """Flat ids of the nodes of every tile whose box, widened by its radius, holds the target.

    The test forms ``lo - target`` and ``target - hi``, as the capture test
    forms ``node - target``; rounding is monotone, so every node within its
    capture radius of the target lies in a tile that is hit.  Nan boxes are
    never hit.
    """
    x0, y0, x1, y1, radius = grid.tiles
    hit = (np.maximum(x0 - tx, tx - x1) <= radius) & (np.maximum(y0 - ty, ty - y1) <= radius)
    n_alpha, n_time = grid.cell.shape
    step = np.arange(TILE)
    rows, cols = (i[:, None] * TILE + step for i in np.nonzero(hit))
    inside = (rows < n_alpha)[:, :, None] & (cols < n_time)[:, None, :]
    return (rows[:, :, None] * n_time + cols[:, None, :])[inside]


def _candidate_nodes(grid: ShootingGrid, target, reached_by: float = math.inf):
    """Grid nodes that plausibly bracket an arrival at the target.

    A candidate lies within its capture radius of the target, no later than
    the arrival bound of ``reached_by``, and none of its heading neighbours
    (which wrap) or time neighbours (which do not) is closer.  Rows
    ``(i_heading, i_time)`` come in row-major order, cut to the
    ``MAX_CANDIDATES`` nearest; there may be none.
    """
    tx, ty = float(target[0]), float(target[1])
    n_alpha, n_time = grid.cell.shape
    n_node = n_alpha * n_time
    flat = grid.positions.reshape(-1, 2)
    xs, ys = flat[:, 0], flat[:, 1]  # strided views: a 1-d gather from each beats a row gather

    def distance(nodes):
        d = np.hypot(xs[nodes] - tx, ys[nodes] - ty)
        return np.where(np.isfinite(d), d, np.inf)

    nodes = _tile_nodes(grid, tx, ty)
    d = distance(nodes)
    keep = d <= CAPTURE_FACTOR * np.fmax(grid.cell.reshape(-1)[nodes], 1e-12)
    if reached_by < math.inf:  # value scans know no bound: every time is kept
        keep &= grid.times[nodes % n_time] <= _arrival_bound(grid.times, reached_by)
    nodes, d = nodes[keep], d[keep]
    # each test keeps the nodes no farther than one neighbour; the heading
    # neighbours reject most, so the time neighbours see only the survivors
    for neighbour in (
        lambda v: (v + n_time) % n_node,
        lambda v: (v - n_time) % n_node,
        lambda v: v - (v % n_time > 0),  # a node at the first or last time meets itself
        lambda v: v + (v % n_time < n_time - 1),
    ):
        keep = d <= distance(neighbour(nodes))
        nodes, d = nodes[keep], d[keep]
    order = np.argsort(nodes)
    nodes, d = nodes[order], d[order]
    if nodes.shape[0] > MAX_CANDIDATES:
        nodes = nodes[np.argsort(d)[:MAX_CANDIDATES]]
    return np.stack(np.divmod(nodes, n_time), axis=-1)


def _newton_polish(
    problem: ProblemDefinition,
    q0,
    targets,
    a0,
    t0,
    position_tol: float,
    t_max: float,
    control: StepControl | None = None,
):
    """Damped Newton on the 2-d endpoint map, one target per lane.

    Lane ``i`` starts at ``(a0[i], t0[i])`` and aims at ``targets[i]``, on
    the endpoint map integrated at ``control``.  Each lane keeps its own
    stopping state and step length, so its result does not depend on the
    other lanes of the batch.  The line search tries the step lengths
    ``0.5**i``, i < ``LINE_SEARCH_STEPS``, in blocks of 1, 1, 2, 4, ...
    lengths, one endpoint batch per block (6 blocks for the 20 lengths),
    and a lane takes the first length in its block that lowers its
    residual.  That is the iterate halving one length per batch would give:
    the lengths are exact and a lane's endpoint does not depend on its
    batch.  A line-search trial past ``2 * t_max`` is not integrated and
    counts as no better.

    The finite-difference Jacobian at an iterate needs the endpoints one
    step ``h`` along each of its two columns.  Every lane takes them with
    its starting point, and a lane whose last accepted step was the full
    one takes them with its next full-step trial, in the same batch: if
    that trial is accepted, the next iteration needs no Jacobian batch for
    the lane.  A lane that backtracked takes its Jacobian in a separate
    batch before its trial, until a full step is accepted again; near a
    fold, where lanes backtrack on most iterations, carried columns would
    mostly be thrown away.  So a run whose lanes all take full steps makes one batch per
    iteration and one to start.  Returns (headings, times, residuals,
    iterations): times clamped to [0, inf), residuals the final landing
    errors, iterations the Newton steps each lane took.
    """
    targets = np.asarray(targets, dtype=float)
    h = 1e-7

    def endpoint_batch(headings, times):
        return endpoints(problem, q0, headings, times[:, None], control)[:, 0]

    def steps(headings, times):
        """The points one step along each Jacobian column: heading steps, then time steps."""
        return np.concatenate((headings + h, headings)), np.concatenate((times, times + h))

    def with_columns(headings, times, carry):
        """Endpoints at the points, and at the steps of the points ``carry`` selects."""
        step_al, step_tt = steps(headings[carry], times[carry])
        out = endpoint_batch(np.concatenate((headings, step_al)), np.concatenate((times, step_tt)))
        n = headings.shape[0]
        return out[:n], out[n:].reshape(2, -1, 2)

    al = np.asarray(a0, dtype=float).copy()
    tt = np.asarray(t0, dtype=float).copy()
    n_lane = al.shape[0]
    # columns[:, i] are the endpoints at lane i's steps, valid at its iterate where fresh[i]
    f, columns = with_columns(al, tt, np.ones(n_lane, dtype=bool))
    f -= targets
    fresh = np.ones(n_lane, dtype=bool)
    carry = np.ones(n_lane, dtype=bool)  # the last accepted step was the full step
    done = np.zeros(n_lane, dtype=bool)
    iterations = np.zeros(n_lane, dtype=int)
    for _ in range(MAX_NEWTON):
        norm = np.hypot(f[:, 0], f[:, 1])
        done |= norm <= position_tol
        ia = np.nonzero(~done & np.isfinite(norm))[0]
        if ia.shape[0] == 0:
            break
        iterations[ia] += 1
        stale = ia[~fresh[ia]]
        if stale.shape[0]:
            columns[:, stale] = endpoint_batch(*steps(al[stale], tt[stale])).reshape(2, -1, 2)
        fa, ta = f[ia], targets[ia]
        ja = (columns[0, ia] - ta - fa) / h
        jt = (columns[1, ia] - ta - fa) / h
        det = ja[:, 0] * jt[:, 1] - ja[:, 1] * jt[:, 0]
        ok = np.abs(det) > 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            da = np.where(ok, (-fa[:, 0] * jt[:, 1] + fa[:, 1] * jt[:, 0]) / det, 0.0)
            dt = np.where(ok, (-ja[:, 0] * fa[:, 1] + ja[:, 1] * fa[:, 0]) / det, 0.0)
        carried = carry[ia]
        fresh[ia] = carry[ia] = False  # until a full step is accepted
        start = 0  # first step-length exponent of the next block
        while ia.shape[0] > 0 and start < LINE_SEARCH_STEPS:
            stop = min(max(2 * start, 1), LINE_SEARCH_STEPS)
            lam = np.ldexp(1.0, -np.arange(start, stop))
            trial_al = al[ia, None] + lam * da[:, None]
            trial_tt = np.maximum(tt[ia, None] + lam * dt[:, None], 0.0)
            # a time far past the horizon costs a long integration and cannot be a value
            fits = trial_tt <= 2.0 * t_max
            f_trial = np.full(trial_al.shape + (2,), np.inf)
            if start == 0:  # the full step: the carrying lanes take their steps with it
                ride = fits[:, 0] & carried
                values, columns[:, ia[ride]] = with_columns(
                    trial_al[fits], trial_tt[fits], ride[fits[:, 0]]
                )
            else:
                values = endpoint_batch(trial_al[fits], trial_tt[fits])
            f_trial[fits] = values - np.broadcast_to(targets[ia, None], f_trial.shape)[fits]
            better = np.hypot(f_trial[..., 0], f_trial[..., 1]) < norm[ia, None]
            hit = better.any(axis=1)
            first = better[hit].argmax(axis=1)
            sel = ia[hit]
            al[sel], tt[sel] = trial_al[hit, first], trial_tt[hit, first]
            f[sel] = f_trial[hit, first]
            if start == 0:
                fresh[sel], carry[sel] = ride[hit], True
            ia, da, dt = ia[~hit], da[~hit], dt[~hit]
            start = stop
        done[ia] = True  # converged or stuck; final residual decides below
    return al, tt, np.hypot(f[:, 0], f[:, 1]), iterations


def _value_samples(grid: ShootingGrid, targets, reached_at=None) -> list[ValueSample]:
    """:func:`value_function` at every target, with one Newton batch for all of them.

    ``reached_at`` holds, per target, a time at which the target is known
    to be reached, so its value is no later.  A candidate node past that
    time's arrival bound is not polished.
    """
    problem, q0, config = grid.problem, grid.q0, grid.config
    samples: list[ValueSample | None] = []
    shots = []  # (sample slot, target, candidate nodes) of the targets that need Newton
    for n, target in enumerate(targets):
        tgt = (float(target[0]), float(target[1]))
        problem.check_domain(problem.radius_of(tgt))
        gap = math.hypot(tgt[0] - q0[0], tgt[1] - q0[1])
        if gap <= config.position_tol:
            samples.append(ValueSample(tgt, 0.0, None, "interior", 0, gap))
            continue
        idx = _candidate_nodes(grid, tgt, math.inf if reached_at is None else reached_at[n])
        if idx.shape[0] == 0:
            samples.append(ValueSample(tgt, UNREACHABLE, None, "unreachable"))
            continue
        shots.append((len(samples), tgt, idx))
        samples.append(None)
    if not shots:
        return samples

    idx = np.concatenate([nodes for _, _, nodes in shots])
    counts = [nodes.shape[0] for _, _, nodes in shots]
    lane_targets = np.repeat([tgt for _, tgt, _ in shots], counts, axis=0)
    al, tt = grid.alphas[idx[:, 0]], grid.times[idx[:, 1]]
    residual = np.full(idx.shape[0], math.inf)
    n_newton = np.zeros(idx.shape[0], dtype=int)
    # stage 1 brings every lane near its target on the cheap coarse map; stage 2
    # polishes only the lanes that landed, at the default control
    active = np.arange(idx.shape[0])
    landing = max(COARSE_LANDING, config.position_tol)
    for control, tol in ((COARSE_CONTROL, landing), (None, config.position_tol)):
        al[active], tt[active], residual[active], its = _newton_polish(
            problem, q0, lane_targets[active], al[active], tt[active], tol, config.t_max, control
        )
        n_newton[active] += its
        active = active[residual[active] <= tol]
    heads = abnormal_headings(problem, problem.radius_of(q0))
    lanes = np.split(np.arange(idx.shape[0]), np.cumsum(counts)[:-1])
    for (slot, tgt, _), lane in zip(shots, lanes):
        valid = (residual[lane] <= config.position_tol) & (tt[lane] <= config.t_max + 1e-9)
        if not np.any(valid):
            samples[slot] = ValueSample(tgt, UNREACHABLE, None, "unreachable", lane.shape[0])
            continue
        best = lane[np.nonzero(valid)[0][np.argmin(tt[lane][valid])]]
        heading = float(wrap_angle(al[best]))
        via = any(abs(float(wrap_angle(heading - h))) <= ABNORMAL_MATCH_TOL for h in heads)
        samples[slot] = ValueSample(
            tgt, float(tt[best]), heading, "via-abnormal" if via else "interior",
            lane.shape[0], float(residual[best]), int(n_newton[best]),
        )
    return samples


def value_function(
    problem: ProblemDefinition,
    q0,
    target,
    config: ShootingConfig | None = None,
    grid: ShootingGrid | None = None,
) -> ValueSample:
    """Minimal transfer time from ``q0`` to ``target`` by shooting and Newton polish.

    Pass a prebuilt :class:`ShootingGrid` when evaluating many targets from
    the same start; one built for another problem, start or config raises
    ``ValueError``, and so does one whose rows stop at an arrival bound
    short of ``t_max``: it would report a later arrival as unreachable.
    """
    config = config or ShootingConfig()
    if grid is None:
        grid = build_shooting_grid(problem, q0, config)
    elif (grid.problem, grid.q0, grid.config) != (problem, (float(q0[0]), float(q0[1])), config):
        raise ValueError("shooting grid was built for another problem, start or config")
    elif grid.times[-1] < config.t_max:
        raise ValueError("shooting grid stops short of t_max; build it without reached_by")
    return _value_samples(grid, [target])[0]


# -- wavefronts, spheres and balls -------------------------------------------


def wavefront(
    problem: ProblemDefinition,
    q0,
    t: float,
    n_alpha: int,
    include_headings=(),
    control: StepControl | None = None,
) -> Wavefront:
    """Endpoint-map image of ``n_alpha`` evenly spaced headings at time ``t``.

    Each point is tagged by the classification of its initial state; points
    whose trajectory leaves the domain before ``t`` are kept as nan rows and
    marked not-ok.  ``include_headings`` lets callers pin extra headings
    (e.g. the abnormal ones) onto the front exactly.
    """
    base = _heading_circle(n_alpha)
    if not 0.0 < t < math.inf:
        raise ValueError(f"wavefront time t must be positive and finite, got {t!r}")
    x0, y0 = float(q0[0]), float(q0[1])
    extra = np.asarray(wrap_angle(np.asarray(list(include_headings), dtype=float)))
    alphas = np.sort(np.concatenate((base, np.atleast_1d(extra)))) if extra.size else base
    alphas = alphas[np.concatenate(([True], np.diff(alphas) > 1e-15))]

    positions = endpoints(problem, (x0, y0), alphas, (float(t),), control)[:, 0]
    ok = np.isfinite(positions[:, 0])
    tags = [classify(problem, ExtendedState(x0, y0, h)).tag for h in alphas]
    return Wavefront(problem, (x0, y0), float(t), alphas, positions, tags, ok)


def _cusp_time(problem: ProblemDefinition, state0: ExtendedState, t_max: float) -> float:
    """Forward cusp time of the abnormal from ``state0``; inf if none.

    Analytic for the historical problem, else searched numerically up to ``t_max``.
    """
    if problem.family == "historical":
        cp = cusp_historical(state0)
    else:
        cp = cusp_numeric(problem, state0, t_max)
    return math.inf if cp is None else cp.t_cusp


def _abnormal_arc(problem: ProblemDefinition, state0: ExtendedState, t_arc: float):
    """The abnormal from ``state0`` up to ``t_arc``, which callers cut at its cusp."""
    if problem.family == "historical":
        return closed_form_trajectory(problem, state0, t_arc, n_samples=256)
    return integrate_numeric(problem, state0, t_arc)


def sphere_and_ball(
    problem: ProblemDefinition,
    q0,
    t: float,
    n_alpha: int,
    config: ShootingConfig | None = None,
) -> SphereAndBall:
    """Time-minimal sphere filter over the wavefront, plus the fan's boundary arcs.

    A front point belongs to the sphere when its minimal time equals the
    front time within ``SPHERE_TOL * (1 + t)``.  In the strong-current case
    the two abnormal arcs (the cusped one truncated at its cusp) complete the
    ball boundary; in the weak case there are none.
    """
    config = config or ShootingConfig()
    if config.t_max < 1.5 * t:
        config = dataclasses.replace(config, t_max=1.5 * t)
    heads = abnormal_headings(problem, problem.radius_of(q0))
    front = wavefront(problem, q0, t, n_alpha, include_headings=heads)
    t_min = np.full(front.alpha0.shape[0], UNREACHABLE)
    points = front.positions[front.ok]
    samples = _value_samples(
        build_shooting_grid(problem, q0, config, reached_by=t),
        points,
        reached_at=np.full(points.shape[0], t),
    )
    t_min[front.ok] = [sample.t_min for sample in samples]
    is_sphere = np.abs(t_min - t) <= SPHERE_TOL * (1.0 + t)
    starts = [ExtendedState(q0[0], q0[1], h) for h in heads]
    arcs = [_abnormal_arc(problem, s, min(t, _cusp_time(problem, s, t))) for s in starts]
    return SphereAndBall(front=front, t_min=t_min, is_sphere=is_sphere, abnormal_arcs=arcs)


# -- geodesic self-intersections ---------------------------------------------


def self_intersections(traj: GeodesicTrajectory):
    """Transversal self-crossings of a trajectory's position trace.

    Returns ``(t1, t2, (c1, c2))`` tuples with ``t1 < t2``.  Polyline
    crossings are polished against the exact flow; where polishing fails,
    the polyline estimate stands.
    """
    if len(traj) < 2:
        raise ValueError("trajectory needs at least two samples")
    hits = polyline_self_intersections(traj.positions, traj.t)
    if not hits:
        return hits
    out = []
    for t1, t2, pos in hits:
        polished = refine_curve_intersection(
            lambda u: state_at(traj, u).position, t1, t2, (0.0, traj.t_end)
        )
        out.append(polished if polished is not None else (t1, t2, pos))
    return out


# -- value-function scans ------------------------------------------------------


def discontinuity_scan(
    problem: ProblemDefinition,
    q0,
    segment: tuple[tuple[float, float], tuple[float, float]],
    n_samples: int,
    config: ShootingConfig | None = None,
) -> ValueScan:
    """Sample the value function along a segment and flag its jumps.

    Adjacent differences exceeding ten times their median (plus a tiny
    absolute floor) are discontinuity candidates; consecutive candidates
    merge into one jump event whose left-limit is read at the sample just
    left of the event's maximal gap.
    """
    config = config or ShootingConfig()
    a = np.asarray(segment[0], dtype=float)
    b = np.asarray(segment[1], dtype=float)
    for endpoint in (a, b):
        problem.check_domain(problem.radius_of(endpoint))
    length = float(np.hypot(*(b - a)))
    if length == 0.0 or n_samples < 2:
        points = a[None, :]
        s = np.zeros(1)
    else:
        frac = np.linspace(0.0, 1.0, int(n_samples))
        points = a[None, :] + frac[:, None] * (b - a)[None, :]
        s = frac * length
    samples = _value_samples(build_shooting_grid(problem, q0, config), points)
    t_vals = np.array([smp.t_min for smp in samples])

    jumps: list[JumpReport] = []
    if t_vals.shape[0] >= 2:
        with np.errstate(invalid="ignore"):  # inf - inf between two unreachable samples
            diffs = np.abs(np.diff(t_vals))
        finite = np.isfinite(diffs)
        med = float(np.median(diffs[finite])) if np.any(finite) else 0.0
        both_inf = ~np.isfinite(t_vals[:-1]) & ~np.isfinite(t_vals[1:])
        flagged = np.where(both_inf, False, ~finite | (diffs > 10.0 * med + 1e-7))
        # runs [i, j) of flagged differences, from the edges of the padded mask
        runs = np.flatnonzero(np.diff(np.concatenate(([False], flagged, [False]))))
        for i, j in runs.reshape(-1, 2):
            gaps = diffs[i:j]
            edge = int(i + np.argmax(np.where(np.isfinite(gaps), gaps, np.inf)))
            mid = 0.5 * (points[edge] + points[edge + 1])
            jumps.append(
                JumpReport(
                    index=edge,
                    s=float(0.5 * (s[edge] + s[edge + 1])),
                    t_left=float(t_vals[edge]),
                    t_right=float(t_vals[edge + 1]),
                    position=(float(mid[0]), float(mid[1])),
                )
            )
    return ValueScan(s=s, positions=points, samples=samples, jumps=jumps)


# -- cut locus ---------------------------------------------------------------


def cut_locus_estimate(
    problem: ProblemDefinition,
    q0,
    t_max: float | None = None,
    n_alpha: int = 128,
    config: ShootingConfig | None = None,
) -> CutLocusEstimate:
    """Cut-locus estimate at a strong-current start.

    The two abnormal arcs (the cusped one truncated at its cusp) form the
    estimate's backbone; equal-time self-crossings of intermediate
    wavefronts are collected as separating-line candidates and confirmed
    when the value function matches the front time at the crossing.
    ``t_max`` defaults to 1.5x the forward cusp time (the adapted
    neighborhood this estimate is valid in).
    """
    if t_max is not None and not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    config = config or ShootingConfig()
    radius = problem.radius_of(q0)
    if float(current_norm(problem, radius)) <= 1.0:
        raise ValueError("cut-locus estimation is only supported at strong-current starts")
    heads = abnormal_headings(problem, radius)
    starts = [ExtendedState(q0[0], q0[1], h) for h in heads]
    cusp_times = [_cusp_time(problem, s, 20.0 if t_max is None else t_max) for s in starts]
    if t_max is None:
        t_cusp = min(cusp_times, default=math.inf)
        if math.isinf(t_cusp):
            raise ValueError(
                "no forward cusp found to size the adapted neighborhood; pass t_max explicitly"
            )
        t_max = 1.5 * t_cusp
    if config.t_max < t_max:
        config = dataclasses.replace(config, t_max=float(t_max))
    arcs = [_abnormal_arc(problem, s, min(t_max, tc)) for s, tc in zip(starts, cusp_times)]

    alphas = _heading_circle(n_alpha)
    par = np.concatenate((alphas, alphas[:1] + 2.0 * math.pi))  # closes each front
    crossings = []  # (t_k, heading a, heading b, position) over every front
    for t_k in np.linspace(0.35, 1.0, N_FRONT_TIMES) * t_max:
        front = endpoints(problem, q0, alphas, (float(t_k),))[:, 0]
        if not np.all(np.isfinite(front[:, 0])):  # a lane left the domain
            continue
        pts = np.vstack((front, front[:1]))
        crossings += [(float(t_k), *hit) for hit in polyline_self_intersections(pts, par)]
    reached_at = [t_k for t_k, *_ in crossings]
    samples = _value_samples(
        build_shooting_grid(problem, q0, config, reached_by=max(reached_at, default=0.0)),
        [pos for *_, pos in crossings],
        reached_at=reached_at,
    )
    separating = [
        SeparatingPoint(
            t=t_k,
            position=pos,
            heading_a=float(wrap_angle(a1)),
            heading_b=float(wrap_angle(a2)),
            confirmed=sample.reachable
            and abs(sample.t_min - t_k) <= SPHERE_TOL * (1.0 + t_k) * 100.0,
        )
        for (t_k, a1, a2, pos), sample in zip(crossings, samples)
    ]
    return CutLocusEstimate(arcs=arcs, arc_headings=tuple(heads), separating_points=separating)
