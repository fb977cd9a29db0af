"""Wavefronts, spheres, shooting, discontinuity scan, cut locus."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from zermelo import (
    ExtendedState,
    ExtremalTag,
    ShootingConfig,
    abnormal_headings,
    build_shooting_grid,
    closed_form_trajectory,
    cusp_historical,
    cut_locus_estimate,
    discontinuity_scan,
    endpoints,
    integrate_closed_form_historical,
    integrate_numeric,
    self_intersections,
    sphere_and_ball,
    value_function,
    wavefront,
    wrap_angle,
)
from zermelo import closedform, make_historical, make_powerlaw, make_vortex, reachability
from zermelo.closedform import historical_positions
from zermelo.geometry import polyline_self_intersections
from zermelo.reachability import (
    LINE_SEARCH_STEPS,
    MAX_NEWTON,
    TILE,
    _candidate_nodes,
    _grid_index,
    _newton_polish,
    _value_samples,
)

Q0_STRONG = (0.0, 2.0)
Q0_WEAK = (0.0, 0.5)
CUSPED_HEADING = -2.0 * math.pi / 3.0


def brute_force_min_time(problem, q0, target, t_max, n_alpha=2000, n_time=3000, radius=2e-3):
    """Independent oracle: dense endpoint grid, min time landing within ``radius``.

    No refinement at all; accuracy is the grid cell, so compare loosely.
    """
    assert problem.family == "historical"
    alphas = np.linspace(-math.pi, math.pi, n_alpha, endpoint=False)
    times = np.linspace(0.0, t_max, n_time)
    pos = historical_positions(q0[0], q0[1], alphas, times)
    d = np.hypot(pos[..., 0] - target[0], pos[..., 1] - target[1])
    hit = d <= radius
    if not np.any(hit):
        return math.inf
    return float(times[np.nonzero(np.any(hit, axis=0))[0][0]])


def reach(problem, q0, heading, t):
    """Position reached from ``q0`` at time ``t`` with initial ``heading``."""
    x, y = endpoints(problem, q0, [heading], [t])[0, 0]
    return (float(x), float(y))


def winding_count(points, center):
    """Turns of the closed polygon through ``points`` around ``center``."""
    v = np.asarray(points) - np.asarray(center)
    ang = np.arctan2(v[:, 1], v[:, 0])
    turn = wrap_angle(np.diff(np.append(ang, ang[0])))
    return round(float(np.sum(turn)) / (2.0 * math.pi))


def abnormal_point(t):
    end = integrate_closed_form_historical(ExtendedState(0.0, 2.0, CUSPED_HEADING), t)
    return end.position


# -- wavefront -----------------------------------------------------------------


def test_wavefront_small_time_first_order(historical):
    # points sit within O(t^2) of the circle of radius t around q0 + t * drift
    for t in (1e-2, 1e-3):
        front = wavefront(historical, Q0_STRONG, t, 32)
        center = np.array([Q0_STRONG[0] + t * Q0_STRONG[1], Q0_STRONG[1]])
        radii = np.hypot(*(front.positions - center).T)
        assert np.all(np.abs(radii - t) <= 5.0 * t * t)


def test_wavefront_validation(historical):
    with pytest.raises(ValueError):
        wavefront(historical, Q0_STRONG, 0.3, 4)
    with pytest.raises(ValueError):
        wavefront(historical, Q0_STRONG, -0.1, 32)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="time t"):
            wavefront(historical, Q0_STRONG, t, 32)


def test_wavefront_counts_and_order(historical):
    front = wavefront(historical, Q0_STRONG, 0.3, 64)
    assert front.alpha0.shape[0] == 64
    assert np.all(np.diff(front.alpha0) > 0.0)
    assert front.ok.all()


def test_wavefront_winding_weak_vs_strong(historical):
    # weak current: the small-time front encloses the start (locally controllable);
    # strong current: it does not
    weak = wavefront(historical, Q0_WEAK, 0.2, 128)
    assert winding_count(weak.positions, Q0_WEAK) != 0
    strong = wavefront(historical, Q0_STRONG, 0.2, 128)
    assert winding_count(strong.positions, Q0_STRONG) == 0


def test_wavefront_abnormal_endpoints_coincide(historical):
    heads = abnormal_headings(historical, Q0_STRONG[1])
    t = 0.3
    front = wavefront(historical, Q0_STRONG, t, 48, include_headings=heads)
    for h in heads:
        i = int(np.argmin(np.abs(front.alpha0 - h)))
        assert front.tags[i] is ExtremalTag.ABNORMAL
        arc_end = integrate_closed_form_historical(
            ExtendedState(Q0_STRONG[0], Q0_STRONG[1], h), t
        )
        assert np.hypot(*(front.positions[i] - np.array(arc_end.position))) <= 1e-9


def test_wavefront_domain_exit_marked(vortex):
    # headings pointing into the vortex leave the domain before t
    front = wavefront(vortex, (0.15, 0.0), 0.4, 32)
    assert (~front.ok).any()
    assert np.isnan(front.positions[~front.ok]).all()
    assert front.ok.any()


# -- value function -------------------------------------------------------------


def test_value_at_start_is_zero(historical):
    sample = value_function(historical, Q0_STRONG, Q0_STRONG)
    assert sample.t_min == 0.0 and sample.flag == "interior"


def test_value_on_abnormal_matches_traversal_time(historical):
    config = ShootingConfig(t_max=3.0, position_tol=1e-10)
    grid = build_shooting_grid(historical, Q0_STRONG, config)
    for t_star in (0.4, 1.0):
        target = abnormal_point(t_star)
        sample = value_function(historical, Q0_STRONG, target, config, grid)
        assert abs(sample.t_min - t_star) < 1e-4
        oracle = brute_force_min_time(historical, Q0_STRONG, target, 3.0)
        # the oracle's capture radius lets it undershoot near the fold by
        # O(sqrt(radius)); it can never overshoot by more than its time cell
        assert oracle - 2e-3 <= sample.t_min <= oracle + 5e-2


def test_value_agrees_with_brute_force_interior(historical):
    config = ShootingConfig(t_max=3.0)
    grid = build_shooting_grid(historical, Q0_STRONG, config)
    rng = np.random.default_rng(3)
    for _ in range(5):
        heading = rng.uniform(-0.6, 0.6)
        t_ref = rng.uniform(0.3, 1.5)
        target = reach(historical, Q0_STRONG, heading, t_ref)
        sample = value_function(historical, Q0_STRONG, target, config, grid)
        oracle = brute_force_min_time(historical, Q0_STRONG, target, 3.0)
        assert sample.reachable
        assert sample.t_min <= t_ref + 1e-9
        assert abs(sample.t_min - oracle) < 2e-2


def test_value_reintegration_closure(historical):
    config = ShootingConfig(t_max=3.0)
    grid = build_shooting_grid(historical, Q0_STRONG, config)
    for target in (abnormal_point(0.8), (1.2, 2.3), (1.0, 1.5)):
        sample = value_function(historical, Q0_STRONG, target, config, grid)
        assert sample.reachable
        landed = reach(historical, Q0_STRONG, sample.heading0, sample.t_min)
        assert math.hypot(landed[0] - target[0], landed[1] - target[1]) <= config.position_tol


def test_value_unreachable_marker(historical):
    config = ShootingConfig(t_max=0.2, n_time=60)
    sample = value_function(historical, Q0_STRONG, (-40.0, 2.0), config)
    assert not sample.reachable
    assert sample.flag == "unreachable"


def test_value_via_abnormal_flag(historical):
    config = ShootingConfig(t_max=2.0, position_tol=1e-12)
    grid = build_shooting_grid(historical, Q0_STRONG, config)
    sample = value_function(historical, Q0_STRONG, abnormal_point(0.6), config, grid)
    assert sample.flag == "via-abnormal"


def test_wavefront_upper_bounds_value(historical):
    # every front point is reachable within the front time
    t = 0.6
    config = ShootingConfig(t_max=1.2)
    grid = build_shooting_grid(historical, Q0_STRONG, config)
    front = wavefront(historical, Q0_STRONG, t, 24)
    for pos in front.positions[::4]:
        sample = value_function(historical, Q0_STRONG, pos, config, grid)
        assert sample.t_min <= t + 1e-6


def test_value_function_rejects_grid_from_other_start(historical, vortex):
    config = ShootingConfig(t_max=1.0, n_alpha=64, n_time=64)
    grid = build_shooting_grid(historical, Q0_WEAK, config)
    with pytest.raises(ValueError, match="grid was built for another"):
        value_function(historical, Q0_STRONG, (0.3, 2.0), config, grid)
    # a grid of another problem or config would give a plausible but wrong value
    with pytest.raises(ValueError, match="grid was built for another"):
        value_function(historical, Q0_WEAK, (0.3, 0.5), ShootingConfig(t_max=2.0), grid)
    q0 = (0.5, 0.5)  # a start in both domains
    with pytest.raises(ValueError, match="grid was built for another"):
        value_function(vortex, q0, (0.6, 0.5), config, build_shooting_grid(historical, q0, config))
    assert value_function(historical, Q0_WEAK, (0.3, 0.5), config, grid).reachable


def test_value_function_rejects_a_grid_cut_at_an_arrival_bound(historical):
    # rows that stop at a sphere's arrival bound would report a later arrival as unreachable
    config = ShootingConfig(t_max=1.0, n_alpha=64, n_time=64)
    target = reach(historical, Q0_STRONG, 0.3, 0.7)
    grid = build_shooting_grid(historical, Q0_STRONG, config, reached_by=0.2)
    with pytest.raises(ValueError, match="stops short of t_max"):
        value_function(historical, Q0_STRONG, target, config, grid)
    grid = build_shooting_grid(historical, Q0_STRONG, config)
    assert value_function(historical, Q0_STRONG, target, config, grid).reachable


def test_value_sample_reports_candidates_and_residual(historical):
    config = ShootingConfig(t_max=3.0)
    grid = build_shooting_grid(historical, Q0_STRONG, config)
    target = reach(historical, Q0_STRONG, 0.3, 0.7)
    sample = value_function(historical, Q0_STRONG, target, config, grid)
    assert sample.n_candidates == _candidate_nodes(grid, target).shape[0] >= 1
    landed = reach(historical, Q0_STRONG, sample.heading0, sample.t_min)
    assert sample.residual <= config.position_tol
    assert math.isclose(
        math.hypot(landed[0] - target[0], landed[1] - target[1]), sample.residual,
        rel_tol=1e-6, abs_tol=1e-15,
    )
    start = value_function(historical, Q0_STRONG, Q0_STRONG, config, grid)
    assert (start.n_candidates, start.residual) == (0, 0.0)
    lost = value_function(historical, Q0_STRONG, (-40.0, 2.0), config, grid)
    assert not lost.reachable and lost.residual == math.inf
    assert lost.n_candidates == _candidate_nodes(grid, (-40.0, 2.0)).shape[0]


def _full_scan_candidates(grid, target, reached_by=math.inf):
    """Candidate search over every grid node: the oracle of the hashed search."""
    diff = grid.positions - np.asarray(target, dtype=float)
    d = np.hypot(diff[..., 0], diff[..., 1])
    d = np.where(np.isfinite(d), d, np.inf)

    local = (d <= np.roll(d, 1, axis=0)) & (d <= np.roll(d, -1, axis=0))
    local[:, 1:] &= d[:, 1:] <= d[:, :-1]
    local[:, :-1] &= d[:, :-1] <= d[:, 1:]
    capture = reachability.CAPTURE_FACTOR * np.fmax(grid.cell, 1e-12)
    mask = local & np.isfinite(d) & (d <= capture)
    mask &= grid.times <= reached_by + reachability.CAPTURE_FACTOR * grid.times[1]
    idx = np.argwhere(mask)
    if idx.shape[0] > reachability.MAX_CANDIDATES:
        order = np.argsort(d[idx[:, 0], idx[:, 1]])[: reachability.MAX_CANDIDATES]
        idx = idx[order]
    return idx


@pytest.mark.parametrize(
    "family, q0, config",
    [
        ("historical", Q0_STRONG, ShootingConfig()),
        ("historical", Q0_WEAK, ShootingConfig()),
        ("vortex", (0.15, 0.0), ShootingConfig(t_max=0.4, n_alpha=64, n_time=64)),
        ("powerlaw", (0.5, 0.0), ShootingConfig(t_max=1.0, n_alpha=64, n_time=64)),
        ("historical", Q0_STRONG, ShootingConfig(n_alpha=67, n_time=13)),  # ragged last tiles
    ],
)
def test_candidate_index_matches_full_scan(historical, vortex, family, q0, config):
    problem = {
        "historical": historical, "vortex": vortex, "powerlaw": make_powerlaw(1.0, -3.0, 1.0)
    }[family]
    grid = build_shooting_grid(problem, q0, config)
    finite = np.isfinite(grid.positions[..., 0])
    if family != "historical":
        assert not finite.all()  # domain exits leave nan nodes
    rng = np.random.default_rng(17)
    nodes = grid.positions[finite]
    # near nodes, at a few local cells; anywhere in the grid's box; far outside it
    spread = np.median(grid.cell) * rng.uniform(0.0, 4.0, (60, 1))
    near = nodes[rng.integers(0, nodes.shape[0], 60)] + rng.normal(size=(60, 2)) * spread
    box = rng.uniform(nodes.min(axis=0), nodes.max(axis=0), (20, 2))
    far = np.array([[1e6, -1e6], [1e300, 0.0], [-1e-300, 5e200]])
    sizes = []
    # every other target is known to be reached early: the arrival bound drops
    # the later nodes before the MAX_CANDIDATES cut
    bounds = (math.inf, grid.times[grid.times.shape[0] // 3])
    for i, target in enumerate(np.vstack((near, box, far))):
        expected = _full_scan_candidates(grid, target, bounds[i % 2])
        found = _candidate_nodes(grid, target, bounds[i % 2])
        assert found.dtype == expected.dtype
        np.testing.assert_array_equal(found, expected)
        sizes.append(found.shape[0])
    assert max(sizes) > 1
    assert sizes[-3:] == [0, 0, 0]  # far targets have no candidate


def _roll_local_cell(positions):
    """``np.roll`` / ``np.linalg.norm`` form of the local cell: the oracle of the grid's cells."""
    step_a = np.linalg.norm(positions - np.roll(positions, 1, axis=0), axis=-1)
    step_t = np.abs(np.diff(positions, axis=1)).max(axis=-1)
    step_t = np.concatenate((step_t, step_t[:, -1:]), axis=1)
    return np.fmax(
        np.where(np.isfinite(step_a), step_a, 0.0),
        np.where(np.isfinite(step_t), step_t, 0.0),
    )


def _sliced_tiles(positions, cell):
    """Each tile's box and radius from its own ``[i:i+TILE, j:j+TILE]`` slices: the tiles' oracle."""
    n_alpha, n_time = cell.shape
    tiles = np.full((5, -(-n_alpha // TILE), -(-n_time // TILE)), np.nan)
    for a in range(tiles.shape[1]):
        for b in range(tiles.shape[2]):
            i, j = a * TILE, b * TILE
            for c in (0, 1):
                v = positions[i : i + TILE, j : j + TILE, c]
                v = v[np.isfinite(v)]
                if v.size:
                    tiles[c, a, b], tiles[2 + c, a, b] = v.min(), v.max()
            largest = cell[i : i + TILE, j : j + TILE].max()
            tiles[4, a, b] = reachability.CAPTURE_FACTOR * max(largest, 1e-12)
    return tiles


INDEX_CASES = [
    ("historical", Q0_STRONG, ShootingConfig()),
    ("historical", Q0_WEAK, ShootingConfig()),
    ("vortex", (0.15, 0.0), ShootingConfig(t_max=0.4, n_alpha=64, n_time=64)),
    ("powerlaw", (0.5, 0.0), ShootingConfig(t_max=1.0, n_alpha=64, n_time=64)),
    ("historical", Q0_STRONG, ShootingConfig(n_time=8)),
    ("historical", Q0_STRONG, ShootingConfig(n_alpha=67, n_time=13)),  # ragged last tiles
    # whole blocks of tile rows, then a ragged last one
    ("historical", Q0_STRONG, ShootingConfig(n_alpha=723, n_time=601)),
]


def _index_grids(historical, vortex, family, q0, config):
    """The case's grid, and the same grid cut at the arrival bounds of 1/3 and 1/20 of its horizon.

    The default historical grid cut at 1/20 is the 720x34 grid of ``ball
    --q0 0,2 --t 0.3``: short rows, many tile rows to a block.
    """
    problem = {
        "historical": historical, "vortex": vortex, "powerlaw": make_powerlaw(1.0, -3.0, 1.0)
    }[family]
    whole, *cuts = (
        build_shooting_grid(problem, q0, config, reached_by=r)
        for r in (math.inf, config.t_max / 3, config.t_max / 20)
    )
    assert all(cut.times.shape[0] < whole.times.shape[0] for cut in cuts)
    if family != "historical":
        assert np.isnan(whole.positions).any()  # steps that touch a nan node count as 0
    return whole, *cuts


def _index_in_any_block(grid, monkeypatch):
    """The grid's cell and tiles, once indexing it in blocks of other sizes gave the same bytes.

    The blocks hold one tile row, three tile rows and the whole plane.
    """
    n_alpha, n_time = grid.cell.shape
    for nodes in (TILE * n_time, 3 * TILE * n_time, n_alpha * n_time):
        with monkeypatch.context() as m:
            m.setattr(closedform, "BLOCK", nodes)
            cell, tiles = _grid_index(grid.positions)
        assert cell.tobytes() == grid.cell.tobytes()
        assert tiles.tobytes() == grid.tiles.tobytes()
    return grid.cell, grid.tiles


@pytest.mark.parametrize("family, q0, config", INDEX_CASES)
def test_local_cell_matches_roll_form(historical, vortex, monkeypatch, family, q0, config):
    for grid in _index_grids(historical, vortex, family, q0, config):
        cell, _ = _index_in_any_block(grid, monkeypatch)
        np.testing.assert_array_equal(cell, _roll_local_cell(grid.positions))


@pytest.mark.parametrize("family, q0, config", INDEX_CASES)
def test_tiles_match_their_sliced_boxes(historical, vortex, monkeypatch, family, q0, config):
    for grid in _index_grids(historical, vortex, family, q0, config):
        cell, tiles = _index_in_any_block(grid, monkeypatch)
        np.testing.assert_array_equal(tiles, _sliced_tiles(grid.positions, cell))


def _traced_peak(build):
    """Peak bytes traced while ``build()`` runs, above what was live before it, and its result."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        result = build()
        return tracemalloc.get_traced_memory()[1] - live, result
    finally:
        tracemalloc.stop()


def test_local_cell_works_in_plane_sized_arrays(historical):
    # the index walks one tile row and the closed form one block of headings
    # at a time, so each traces its result plus a work allowance of sixteen
    # blocks (2 MB), less than one (720, 600) plane of the grid
    work = 16 * closedform.BLOCK * 8
    peak, grid = _traced_peak(lambda: build_shooting_grid(historical, Q0_STRONG, ShootingConfig()))
    assert grid.cell.nbytes > work
    kept = grid.positions.nbytes + grid.cell.nbytes + grid.tiles.nbytes
    assert peak <= kept + work
    peak, (cell, tiles) = _traced_peak(lambda: _grid_index(grid.positions))
    assert peak <= cell.nbytes + tiles.nbytes + work
    peak, positions = _traced_peak(lambda: historical_positions(*Q0_STRONG, grid.alphas, grid.times))
    assert peak <= positions.nbytes + work
    np.testing.assert_array_equal(positions, grid.positions)


def test_tile_lookup_stays_local_on_the_default_vortex_grid(vortex, monkeypatch):
    # lanes diving toward the vortex wind the chart angle far from the rest of
    # the grid; that inflates only their own tiles, not every lookup.  The
    # lookup takes its distances once, over the hit tiles with their rims, so
    # that one window counts the tiles it reads
    q0 = (0.5, 0.0)
    grid = build_shooting_grid(vortex, q0, ShootingConfig(t_max=0.5))
    front = wavefront(vortex, q0, 0.15, 32, include_headings=abnormal_headings(vortex, q0[0]))
    windows = []

    class Numpy:  # the module's numpy, with its distance windows recorded
        def __getattr__(self, name):
            return getattr(np, name)

        def hypot(self, *args):
            windows.append(np.hypot(*args))
            return windows[-1]

    monkeypatch.setattr(reachability, "np", Numpy())
    for target in front.positions[front.ok]:
        windows.clear()
        _candidate_nodes(grid, target)
        (window,) = windows
        assert window.shape[1:] == (TILE + 2, TILE + 2)
        assert window.shape[0] * TILE * TILE < 0.05 * grid.cell.size


def _vortex_case(vortex):
    """Problem, start, config, grid, targets and fold-target indices of a vortex batch."""
    q0 = (0.5, 0.0)
    config = ShootingConfig(t_max=0.5, n_alpha=96, n_time=64)
    heads = abnormal_headings(vortex, q0[0])
    targets = [
        reach(vortex, q0, heads[0], 0.2),
        (3.0, 0.0),
        q0,
        reach(vortex, q0, 0.9, 0.3),
        reach(vortex, q0, heads[1], 0.1),
    ]
    return vortex, q0, config, build_shooting_grid(vortex, q0, config), targets, (0, 4)


def _powerlaw_case():
    """The powerlaw (1, -3, 1) counterpart of :func:`_vortex_case`."""
    problem = make_powerlaw(1.0, -3.0, 1.0)
    q0 = (0.5, 0.0)
    config = ShootingConfig(t_max=0.6, n_alpha=96, n_time=64)
    heads = abnormal_headings(problem, q0[0])
    targets = [
        reach(problem, q0, heads[0], 0.1),
        reach(problem, q0, heads[1], 0.2),
        reach(problem, q0, 0.9, 0.3),
        reach(problem, q0, 2.0, 0.25),
    ]
    return problem, q0, config, build_shooting_grid(problem, q0, config), targets, (0, 1)


@pytest.mark.parametrize(
    "problem, q0, t, mirror",
    [
        (make_historical(), (0.0, 2.0), 0.3, (-1.0, 1.0)),
        (make_vortex(1.0), (0.5, 0.0), 0.15, (1.0, -1.0)),
        (make_powerlaw(1.0, -3.0, 1.0), (0.5, 0.0), 0.3, (1.0, -1.0)),
    ],
    ids=["historical", "vortex", "powerlaw"],
)
def test_value_is_dual_under_time_reversal(problem, q0, t, mirror):
    # T(q0 -> q1) = T(s q1 -> s q0), where the mirror s reverses the current:
    # x -> -x for the shear, theta -> -theta in the polar chart.  The reverse
    # value starts elsewhere, builds its own grid and polishes other lanes.
    # The q1 are the 8 hyperbolic points of a 24-heading front farthest in
    # heading from the abnormals (off the fold); every grid is 240 x 160 with
    # t_max = 2t, cut at the arrival bound of t.  Measured worst: 2.8e-10
    # (historical), 2.2e-9 (vortex), 7.2e-10 (powerlaw), in about 1.5 s
    config = ShootingConfig(n_alpha=240, n_time=160, t_max=2.0 * t)
    front = wavefront(problem, q0, t, 24)
    heads = np.array(abnormal_headings(problem, problem.radius_of(q0)))
    gap = np.min(np.abs(wrap_angle(front.alpha0[:, None] - heads)), axis=1)
    hyperbolic = np.array([tag is ExtremalTag.HYPERBOLIC for tag in front.tags]) & front.ok
    assert np.count_nonzero(hyperbolic) >= 8
    points = front.positions[np.argsort(np.where(hyperbolic, -gap, np.inf))[:8]]
    grid = build_shooting_grid(problem, q0, config, reached_by=t)
    forward = _value_samples(grid, points, reached_at=[t] * 8)
    s = np.array(mirror)
    for point, sample in zip(points, forward):
        grid = build_shooting_grid(problem, tuple(s * point), config, reached_by=t)
        back = _value_samples(grid, [tuple(s * q0)], reached_at=[t])[0]
        assert sample.t_min <= t + 1e-9
        assert abs(sample.t_min - back.t_min) <= 5e-8


def test_value_samples_batch_equals_singles(historical, vortex):
    config = ShootingConfig(t_max=3.0)
    grid = build_shooting_grid(historical, Q0_STRONG, config)
    targets = [
        abnormal_point(0.4),
        Q0_STRONG,
        (-40.0, 2.0),
        reach(historical, Q0_STRONG, 0.3, 0.7),
        abnormal_point(1.0),
        reach(historical, Q0_STRONG, -1.0, 0.5),
    ]
    batch = _value_samples(grid, targets)
    singles = [value_function(historical, Q0_STRONG, tgt, config, grid) for tgt in targets]
    assert batch == singles
    assert [s.flag for s in batch].count("unreachable") == 1
    assert batch[1].t_min == 0.0

    _, q0, config, grid, targets, _ = _vortex_case(vortex)
    batch = _value_samples(grid, targets)
    assert batch == [value_function(vortex, q0, tgt, config, grid) for tgt in targets]
    assert [s.reachable for s in batch] == [True, False, True, True, True]


def test_powerlaw_value_samples_batch_equals_singles():
    # powerlaw profiles are powers of r: equal results need the lane kernel
    # and the scalar stepper, which finishes its last lanes, to agree bit for bit
    problem, q0, config, grid, targets, _ = _powerlaw_case()
    batch = _value_samples(grid, targets)
    assert batch == [value_function(problem, q0, tgt, config, grid) for tgt in targets]
    assert all(s.reachable for s in batch)


def _one_stage(problem, q0, targets, config, grid):
    """Per target (t_min, heading0, Newton iterations) from one Newton batch at the default control.

    The reference of the two-stage polish: every candidate of every target
    iterates on the default-control endpoint map straight to ``position_tol``.
    """
    counts = [_candidate_nodes(grid, tgt).shape[0] for tgt in targets]
    nodes = np.concatenate([_candidate_nodes(grid, tgt) for tgt in targets])
    lane_targets = np.repeat(np.asarray(targets, dtype=float), counts, axis=0)
    al, tt, residual, its = _newton_polish(
        problem, q0, lane_targets, grid.alphas[nodes[:, 0]], grid.times[nodes[:, 1]],
        config.position_tol, config.t_max,
    )
    out = []
    for lane in np.split(np.arange(nodes.shape[0]), np.cumsum(counts)[:-1]):
        valid = lane[(residual[lane] <= config.position_tol) & (tt[lane] <= config.t_max + 1e-9)]
        if valid.shape[0] == 0:
            out.append((math.inf, None, 0))
            continue
        best = valid[np.argmin(tt[valid])]
        out.append((float(tt[best]), float(reachability.wrap_angle(al[best])), int(its[best])))
    return out


@pytest.mark.parametrize("family", ["vortex", "powerlaw"])
def test_two_stage_polish_matches_one_stage(vortex, family):
    problem, q0, config, grid, targets, folds = (
        _vortex_case(vortex) if family == "vortex" else _powerlaw_case()
    )
    moving = [i for i, tgt in enumerate(targets) if tgt != q0]
    samples = _value_samples(grid, [targets[i] for i in moving])
    reference = _one_stage(problem, q0, [targets[i] for i in moving], config, grid)
    assert [s.reachable for s in samples] == [math.isfinite(t) for t, _, _ in reference]
    assert any(s.reachable for s in samples)
    for i, sample, (t_ref, _, _) in zip(moving, samples, reference):
        if sample.reachable:
            # the endpoint map folds along the abnormal headings: Newton stops
            # anywhere in a sqrt(position_tol)-wide time window there
            assert abs(sample.t_min - t_ref) <= (1e-6 if i in folds else 1e-8)


def test_second_stage_polishes_only_landed_lanes(vortex, monkeypatch):
    problem, q0, config, grid, targets, _ = _vortex_case(vortex)
    calls = []
    real = reachability._newton_polish

    def spy(problem, q0, targets, a0, t0, position_tol, t_max, control=None):
        result = real(problem, q0, targets, a0, t0, position_tol, t_max, control)
        calls.append((np.array(targets), np.array(a0), np.array(t0), position_tol, control, result))
        return result

    monkeypatch.setattr(reachability, "_newton_polish", spy)
    _value_samples(grid, targets)
    (targets_1, _, _, tol_1, control_1, (al, tt, residual, _)), second = calls
    assert control_1 == reachability.COARSE_CONTROL
    assert tol_1 == max(reachability.COARSE_LANDING, config.position_tol)
    landed = residual <= tol_1
    assert 0 < np.count_nonzero(landed) < landed.shape[0]
    targets_2, a0_2, t0_2, tol_2, control_2, _ = second
    assert (tol_2, control_2) == (config.position_tol, None)
    for got, want in ((targets_2, targets_1), (a0_2, al), (t0_2, tt)):
        np.testing.assert_array_equal(got, want[landed])


def test_loose_landing_tolerance_still_lands(vortex):
    # a position_tol above COARSE_LANDING makes both stages stop at position_tol
    q0 = (0.5, 0.0)
    config = ShootingConfig(t_max=0.5, n_alpha=96, n_time=64, position_tol=1e-4)
    assert config.position_tol > reachability.COARSE_LANDING
    target = reach(vortex, q0, 0.9, 0.3)
    sample = value_function(vortex, q0, target, config)
    assert sample.reachable and sample.residual <= config.position_tol
    landed = reach(vortex, q0, sample.heading0, sample.t_min)
    assert math.hypot(landed[0] - target[0], landed[1] - target[1]) <= config.position_tol


def test_value_sample_counts_newton_iterations(historical):
    # the closed form ignores the step control, so the two stages iterate as
    # one Newton run would, and the counts add up to that run's
    config = ShootingConfig(t_max=3.0)
    grid = build_shooting_grid(historical, Q0_STRONG, config)
    targets = [reach(historical, Q0_STRONG, 0.3, 0.7), abnormal_point(0.4)]
    samples = _value_samples(grid, targets)
    for sample, (t_ref, heading_ref, its) in zip(
        samples, _one_stage(historical, Q0_STRONG, targets, config, grid)
    ):
        assert sample.n_newton == its >= 1
        assert sample.t_min == t_ref and sample.heading0 == heading_ref
    for still in (Q0_STRONG, (-40.0, 2.0)):  # the start point; an unreachable target
        assert value_function(historical, Q0_STRONG, still, config, grid).n_newton == 0


def test_newton_trials_stay_below_twice_t_max(vortex, monkeypatch):
    # the target lies on the t = 0.6 front, beyond t_max; Newton steps of its
    # candidates ask for times far past the horizon, whose integration would
    # cost seconds and could not give a value
    q0 = (0.5, 0.0)
    config = ShootingConfig(t_max=0.5, n_alpha=240, n_time=160)
    grid = build_shooting_grid(vortex, q0, config)
    asked = []
    real = reachability.endpoints

    def spy(problem, q0, headings, ts, control=None):
        asked.append(float(np.max(ts, initial=0.0)))
        return real(problem, q0, headings, ts, control)

    monkeypatch.setattr(reachability, "endpoints", spy)
    sample = value_function(vortex, q0, (0.627, 4.373), config, grid)
    assert sample.n_candidates > 0
    assert sample.flag == "unreachable"
    assert asked and max(asked) <= 2.0 * config.t_max


def test_target_without_candidates_runs_no_newton(historical, monkeypatch):
    config = ShootingConfig(t_max=3.0)
    grid = build_shooting_grid(historical, Q0_STRONG, config)
    calls = []
    real = reachability.endpoints

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(reachability, "endpoints", spy)
    sample = value_function(historical, Q0_STRONG, (-40.0, 2.0), config, grid)
    assert sample.flag == "unreachable" and not sample.reachable
    assert (sample.n_candidates, sample.n_newton) == (0, 0)
    assert calls == []


def _halving_polish(problem, q0, targets, a0, t0, position_tol, t_max, control=None):
    """``_newton_polish`` with one step halving per ``endpoints`` batch: the line-search oracle."""
    targets = np.asarray(targets, dtype=float)

    def endpoint_batch(headings, times):
        return reachability.endpoints(problem, q0, headings, times[:, None], control)[:, 0]

    al = np.asarray(a0, dtype=float).copy()
    tt = np.asarray(t0, dtype=float).copy()
    f = endpoint_batch(al, tt) - targets
    h = 1e-7
    done = np.zeros(al.shape[0], dtype=bool)
    iterations = np.zeros(al.shape[0], dtype=int)
    for _ in range(MAX_NEWTON):
        norm = np.hypot(f[:, 0], f[:, 1])
        done |= norm <= position_tol
        ia = np.nonzero(~done & np.isfinite(norm))[0]
        if ia.shape[0] == 0:
            break
        iterations[ia] += 1
        fa, ta = f[ia], targets[ia]
        n_a = ia.shape[0]
        shifted = endpoint_batch(
            np.concatenate((al[ia] + h, al[ia])), np.concatenate((tt[ia], tt[ia] + h))
        )
        ja = (shifted[:n_a] - ta - fa) / h
        jt = (shifted[n_a:] - ta - fa) / h
        det = ja[:, 0] * jt[:, 1] - ja[:, 1] * jt[:, 0]
        ok = np.abs(det) > 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            da = np.where(ok, (-fa[:, 0] * jt[:, 1] + fa[:, 1] * jt[:, 0]) / det, 0.0)
            dt = np.where(ok, (-ja[:, 0] * fa[:, 1] + ja[:, 1] * fa[:, 0]) / det, 0.0)
        lam = 1.0
        for _ in range(LINE_SEARCH_STEPS):
            trial_al = al[ia] + lam * da
            trial_tt = np.maximum(tt[ia] + lam * dt, 0.0)
            fits = trial_tt <= 2.0 * t_max
            f_trial = np.full((ia.shape[0], 2), np.inf)
            f_trial[fits] = endpoint_batch(trial_al[fits], trial_tt[fits]) - targets[ia[fits]]
            better = np.hypot(f_trial[:, 0], f_trial[:, 1]) < norm[ia]
            sel = ia[better]
            al[sel], tt[sel], f[sel] = trial_al[better], trial_tt[better], f_trial[better]
            ia, da, dt = ia[~better], da[~better], dt[~better]
            if ia.shape[0] == 0:
                break
            lam *= 0.5
        done[ia] = True
    return al, tt, np.hypot(f[:, 0], f[:, 1]), iterations


@pytest.mark.parametrize("case", ["value-segment", "unit-current", "vortex", "powerlaw"])
def test_block_line_search_matches_halving(historical, vortex, monkeypatch, case):
    if case in ("vortex", "powerlaw"):
        problem, q0, config, grid, targets, _ = (
            _vortex_case(vortex) if case == "vortex" else _powerlaw_case()
        )
        targets = [tgt for tgt in targets if tgt != q0]
    else:
        problem, config = historical, ShootingConfig()
        if case == "value-segment":  # the README value command: its lanes halve up to 19 times
            q0 = Q0_STRONG
            a, b = np.array([1.039, 1.298]), np.array([0.879, 1.180])
            targets = a + np.linspace(0.0, 1.0, 40)[:, None] * (b - a)
        else:  # on the strong/weak boundary some lanes run all MAX_NEWTON iterations
            q0 = (0.0, 1.0)
            targets = wavefront(historical, q0, 0.3, 16).positions
        grid = build_shooting_grid(problem, q0, config)
    nodes = [_candidate_nodes(grid, tgt) for tgt in targets]
    idx = np.concatenate(nodes)
    lane_targets = np.repeat(np.asarray(targets, dtype=float), [n.shape[0] for n in nodes], axis=0)
    args = (
        problem, q0, lane_targets, grid.alphas[idx[:, 0]], grid.times[idx[:, 1]],
        config.position_tol, config.t_max,
    )
    reference = _halving_polish(*args)
    calls = []
    real = reachability.endpoints

    def spy(*call_args, **kwargs):
        calls.append(1)
        return real(*call_args, **kwargs)

    monkeypatch.setattr(reachability, "endpoints", spy)
    result = _newton_polish(*args)
    for got, want in zip(result, reference):  # headings, times, residuals, iterations
        np.testing.assert_array_equal(got, want)
    # one initial batch, then per iteration at most one Jacobian batch (none
    # for lanes whose columns rode along with their full step) and 6 trial blocks
    assert len(calls) <= 1 + int(result[3].max()) * (1 + 6)
    if case == "unit-current":
        assert np.any(result[3] == MAX_NEWTON)


def _endpoint_calls(monkeypatch):
    """Spy on ``endpoints``: a list that fills with the (headings, times) of each call."""
    calls = []
    real = reachability.endpoints

    def spy(problem, q0, headings, ts, control=None):
        calls.append((np.array(headings), np.array(ts).reshape(-1)))
        return real(problem, q0, headings, ts, control)

    monkeypatch.setattr(reachability, "endpoints", spy)
    return calls


def test_newton_full_steps_take_one_batch_per_iteration(historical, monkeypatch):
    # every lane lands by full steps, so each iteration reuses the Jacobian
    # columns that rode along with the step before it
    config = ShootingConfig(t_max=1.0, n_alpha=96, n_time=64)
    grid = build_shooting_grid(historical, Q0_STRONG, config)
    targets = [reach(historical, Q0_STRONG, heading, 0.5) for heading in (0.3, 1.0, -1.0)]
    nodes = [_candidate_nodes(grid, tgt) for tgt in targets]
    idx = np.concatenate(nodes)
    lane_targets = np.repeat(np.asarray(targets), [n.shape[0] for n in nodes], axis=0)
    calls = _endpoint_calls(monkeypatch)
    _, _, residual, iterations = _newton_polish(
        historical, Q0_STRONG, lane_targets, grid.alphas[idx[:, 0]], grid.times[idx[:, 1]],
        config.position_tol, config.t_max,
    )
    assert idx.shape[0] > 1 and np.all(residual <= config.position_tol)
    assert iterations.max() >= 3
    assert len(calls) == 1 + iterations.max()


def _call_kind(headings, times, h=1e-7):
    """``J``: one lane's Jacobian batch; ``C``: a point with its Jacobian steps; else ``T``."""
    n = headings.shape[0]
    if n == 2 and (headings[0], times[1]) == (headings[1] + h, times[0] + h):
        return "J"
    if n == 3:
        a, t = headings[0], times[0]
        if [*headings, *times] == [a, a + h, a, t, t, t + h]:
            return "C"
    return "T"


@pytest.mark.parametrize(
    "target, node",
    [(13, (669, 43)), (14, (13, 70))],  # lands after two backtracks; stalls on the fold
)
def test_newton_lane_carries_no_columns_right_after_a_backtrack(
    historical, monkeypatch, target, node
):
    q0 = (0.0, 1.0)  # on the strong/weak boundary
    config = ShootingConfig()
    grid = build_shooting_grid(historical, q0, config)
    lane_target = wavefront(historical, q0, 0.3, 16).positions[target : target + 1]
    calls = _endpoint_calls(monkeypatch)
    _, _, _, (its,) = _newton_polish(
        historical, q0, lane_target, grid.alphas[[node[0]]], grid.times[[node[1]]],
        config.position_tol, config.t_max,
    )
    kinds = "".join(_call_kind(*call) for call in calls)
    # the start carries its columns; then each iteration is an optional Jacobian
    # batch, the full-step trial, and the backtracking blocks
    assert kinds[0] == "C"
    steps = re.findall("J?[CT]T*", kinds[1:])
    assert "".join(steps) == kinds[1:] and len(steps) == its
    backtracks = 0
    for before, after in zip(steps, steps[1:]):
        trials = before.lstrip("J")
        if len(trials) > 1:  # backtracked: a Jacobian batch, and a trial alone
            backtracks += 1
            assert after.startswith("JT")
        else:  # a full step: the next trial carries columns, and needs no
            # Jacobian batch if this one carried them
            assert after.startswith("C" if trials == "C" else "JC")
    assert backtracks >= 2


@pytest.mark.parametrize("n_samples", [20, 80])
def test_scan_endpoint_calls_do_not_grow_with_samples(historical, monkeypatch, n_samples):
    # one Newton batch for the whole scan: at most one initial evaluation, then
    # per iteration two Jacobian columns and the line-search trials
    config = ShootingConfig(t_max=4.5)
    grid = build_shooting_grid(historical, Q0_STRONG, config)
    monkeypatch.setattr(reachability, "build_shooting_grid", lambda *args: grid)
    calls = []
    real = reachability.endpoints

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(reachability, "endpoints", spy)
    segment, _ = _crossing_segment()
    scan = discontinuity_scan(historical, Q0_STRONG, segment, n_samples, config)
    assert len(scan.samples) == n_samples
    assert 0 < len(calls) <= 1 + MAX_NEWTON * (2 + reachability.LINE_SEARCH_STEPS)


# -- sphere and ball -------------------------------------------------------------


def test_sphere_strong_current_keeps_hyperbolic_sector(historical):
    result = sphere_and_ball(historical, Q0_STRONG, 0.3, 48, ShootingConfig(t_max=1.0))
    tags = np.array([tag.value for tag in result.front.tags])
    assert np.all(tags[result.is_sphere] == "hyperbolic")
    assert result.is_sphere[tags == "hyperbolic"].all()
    # elliptic endpoints are reached strictly faster than the front time
    elliptic_T = result.t_min[tags == "elliptic"]
    assert np.all(elliptic_T < 0.3 - 1e-3)
    assert len(result.abnormal_arcs) == 2


def test_sphere_weak_current_is_whole_front(historical):
    result = sphere_and_ball(historical, Q0_WEAK, 0.3, 24, ShootingConfig(t_max=1.0))
    assert result.is_sphere.all()
    assert result.abnormal_arcs == []


def test_fan_endpoints_delimit_sphere_sector(historical):
    # with membership loosened to the shooting fold error, the minimizing
    # sector's extreme headings are exactly the abnormal ones
    t = 0.3
    result = sphere_and_ball(historical, Q0_STRONG, t, 48, ShootingConfig(t_max=1.0))
    near = result.t_min >= t - 1e-4
    heads = abnormal_headings(historical, Q0_STRONG[1])
    lo, hi = min(heads), max(heads)
    sector = result.front.alpha0[near]
    assert math.isclose(min(sector), lo, abs_tol=1e-12)
    assert math.isclose(max(sector), hi, abs_tol=1e-12)
    for h in heads:
        i = int(np.argmin(np.abs(result.front.alpha0 - h)))
        arc_end = integrate_closed_form_historical(
            ExtendedState(Q0_STRONG[0], Q0_STRONG[1], h), t
        )
        assert np.hypot(*(result.front.positions[i] - np.array(arc_end.position))) <= 1e-9


def test_sphere_excludes_post_cusp_abnormal(historical):
    # beyond the cusp the abnormal endpoint is reached strictly faster
    t_cusp = cusp_historical(ExtendedState(0.0, 2.0, CUSPED_HEADING)).t_cusp
    t = 2.0
    assert t > t_cusp
    target = abnormal_point(t)
    config = ShootingConfig(t_max=3.0)
    sample = value_function(historical, Q0_STRONG, target, config)
    assert sample.t_min < t - 1e-3


def test_monotone_balls(historical):
    t1, t2 = 0.25, 0.4
    config = ShootingConfig(t_max=1.0)
    grid = build_shooting_grid(historical, Q0_STRONG, config)
    result = sphere_and_ball(historical, Q0_STRONG, t1, 24, config)
    for pos in result.front.positions[result.is_sphere]:
        sample = value_function(historical, Q0_STRONG, pos, config, grid)
        assert sample.t_min <= t2 + 1e-9


# -- self-intersections -----------------------------------------------------------


def test_abnormal_trace_is_simple(historical):
    # the abnormal curve reverses at its cusp but never crosses itself: its
    # first coordinate is strictly monotone along the flow
    traj = closed_form_trajectory(
        historical, ExtendedState(0.0, 2.0, CUSPED_HEADING), 2.0 * math.sqrt(3.0), 600
    )
    assert np.all(np.diff(traj.positions[:, 0]) > -1e-12)
    assert self_intersections(traj) == []


def test_vertical_trajectory_is_simple(historical):
    traj = closed_form_trajectory(historical, ExtendedState(0.0, 2.0, math.pi / 2), 2.0, 200)
    assert self_intersections(traj) == []


def test_hyperbolic_near_abnormal_loops_once(historical):
    traj = closed_form_trajectory(
        historical, ExtendedState(0.0, 2.0, CUSPED_HEADING + 0.05), 4.0, 800
    )
    hits = self_intersections(traj)
    assert len(hits) == 1
    t1, t2, pos = hits[0]
    assert t1 < t2
    # the polished crossing really is a point the curve visits twice
    p1 = integrate_closed_form_historical(
        ExtendedState(0.0, 2.0, CUSPED_HEADING + 0.05), t1
    )
    p2 = integrate_closed_form_historical(
        ExtendedState(0.0, 2.0, CUSPED_HEADING + 0.05), t2
    )
    assert math.hypot(p1.c1 - p2.c1, p1.c2 - p2.c2) < 1e-8
    assert math.hypot(p1.c1 - pos[0], p1.c2 - pos[1]) < 1e-6


def test_crossing_next_to_the_trajectory_end_stays_inside_its_span():
    # the second crossing time lies within one finite-difference step of
    # t_end: the polish must not ask for the state past the end of the span
    problem = make_powerlaw(1.0, -2.0, 0.5)
    start = ExtendedState(0.5335213697303894, 0.829825906713785, -math.pi / 8)
    traj = integrate_numeric(problem, start, 1.2867129035842624)
    hits = self_intersections(traj)
    assert len(hits) == 1
    t1, t2, _ = hits[0]
    assert 0.0 <= t1 < t2 <= traj.t_end
    assert abs(t1 - 0.61915) < 1e-4 and abs(t2 - 1.28663) < 1e-4


# -- discontinuity scan ------------------------------------------------------------


def _crossing_segment(t_star=1.0, h=1e-3):
    """Segment crossing the cusped abnormal arc at its time-t_star point.

    Ordered fan-side first, with the crossing landing exactly on a sample of
    a 200-point scan (index 99).
    """
    end = integrate_closed_form_historical(
        ExtendedState(0.0, 2.0, CUSPED_HEADING), t_star
    )
    p_star = np.array(end.position)
    vel = np.array([end.c2 + math.cos(end.heading), math.sin(end.heading)])
    normal = np.array([-vel[1], vel[0]])
    normal /= math.hypot(*normal)
    if normal[0] < 0:
        normal = -normal  # fan side of the lower arc
    return (tuple(p_star + 99.0 * h * normal), tuple(p_star - 100.0 * h * normal)), p_star


def test_discontinuity_scan_across_abnormal(historical):
    segment, p_star = _crossing_segment()
    scan = discontinuity_scan(historical, Q0_STRONG, segment, 200, ShootingConfig(t_max=4.5))
    assert len(scan.jumps) == 1
    jump = scan.jumps[0]
    # the left limit is the time along the abnormal to the crossing (t* = 1)
    assert abs(jump.t_left - 1.0) < 5e-3
    assert jump.t_right > jump.t_left + 1.0
    assert math.hypot(jump.position[0] - p_star[0], jump.position[1] - p_star[1]) < 2e-3


def test_discontinuity_scan_weak_region_no_jumps(historical):
    scan = discontinuity_scan(
        historical, Q0_WEAK, ((0.30, 0.35), (0.45, 0.45)), 200, ShootingConfig(t_max=3.0)
    )
    assert scan.jumps == []
    assert all(s.reachable for s in scan.samples)


def test_discontinuity_scan_degenerate_segment(historical):
    scan = discontinuity_scan(
        historical, Q0_WEAK, ((0.3, 0.3), (0.3, 0.3)), 200, ShootingConfig(t_max=2.0)
    )
    assert len(scan.samples) == 1
    assert scan.jumps == []


def test_discontinuity_scan_across_unreachable_samples_is_silent(vortex):
    # neighbouring unreachable samples differ by inf - inf, which numpy warns about
    segment = ((0.6, 0.1), (0.55, 0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = discontinuity_scan(vortex, (0.5, 0.0), segment, 40, ShootingConfig(t_max=1.0))
    unreachable = [not s.reachable for s in scan.samples]
    assert any(a and b for a, b in zip(unreachable, unreachable[1:]))
    assert len(scan.jumps) == 1


# -- cut locus ----------------------------------------------------------------------


def test_cut_locus_arcs(historical):
    t_cusp = cusp_historical(ExtendedState(0.0, 2.0, CUSPED_HEADING)).t_cusp
    x_cusp = cusp_historical(ExtendedState(0.0, 2.0, CUSPED_HEADING)).position[0]
    estimate = cut_locus_estimate(
        historical, Q0_STRONG, 2.5, n_alpha=96, config=ShootingConfig(t_max=2.5)
    )
    assert len(estimate.arcs) == 2
    by_heading = dict(zip(estimate.arc_headings, estimate.arcs))
    cusped = by_heading[min(estimate.arc_headings)]
    other = by_heading[max(estimate.arc_headings)]
    # the cusped arc stops at its cusp, the other runs to t_max
    assert math.isclose(cusped.t_end, t_cusp, rel_tol=1e-12)
    assert np.allclose(cusped.positions[-1], (x_cusp, 1.0), atol=1e-9)
    assert math.isclose(other.t_end, 2.5)
    # separating candidates, if any, carry an oracle-confirmable flag
    config = ShootingConfig(t_max=2.5)
    grid = build_shooting_grid(historical, Q0_STRONG, config)
    for point in estimate.separating_points:
        sample = value_function(historical, Q0_STRONG, point.position, config, grid)
        expected = sample.reachable and (
            abs(sample.t_min - point.t) <= reachability.SPHERE_TOL * (1.0 + point.t) * 100.0
        )
        assert point.confirmed == expected


def test_cut_locus_fronts_are_not_classified(historical, monkeypatch):
    # the fronts only feed crossings; tagging their headings would be thrown away
    calls = []
    for name in ("classify", "wavefront"):
        real = getattr(reachability, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(reachability, name, spy)
    estimate = cut_locus_estimate(
        historical, Q0_STRONG, 2.5, n_alpha=96, config=ShootingConfig(t_max=2.5)
    )
    assert calls == []
    assert len(estimate.arcs) == 2


def _per_time_crossings(problem, q0, alphas, front_times):
    """Crossings, as the estimate reports them, of fronts integrated one time at a time.

    Also returns the lanes each front loses to a domain exit.
    """
    par = np.concatenate((alphas, alphas[:1] + 2.0 * math.pi))
    crossings, lost = [], []
    for t_k in front_times:
        front = endpoints(problem, q0, alphas, (float(t_k),))[:, 0]
        lost.append(int(np.count_nonzero(~np.isfinite(front[:, 0]))))
        pts = np.vstack((front, front[:1]))
        crossings += [
            (float(t_k), float(wrap_angle(a)), float(wrap_angle(b)), pos)
            for a, b, pos in polyline_self_intersections(pts, par)
        ]
    return crossings, lost


@pytest.mark.parametrize(
    "family, q0, t_max, n_alpha",
    [("historical", Q0_STRONG, 2.5, 96), ("vortex", (0.7, 0.0), None, 32)],
)
def test_cut_locus_fronts_are_one_shared_row(
    historical, vortex, monkeypatch, family, q0, t_max, n_alpha
):
    # the five fronts are sampled by one endpoint call on a shared row of
    # times, and give the crossings that fronts of one time each give
    problem = {"historical": historical, "vortex": vortex}[family]
    rows = []
    real = reachability.endpoints

    def spy(*args):  # (problem, q0, headings, ts[, control])
        rows.append(np.array(args[3], dtype=float))
        return real(*args)

    monkeypatch.setattr(reachability, "endpoints", spy)
    # the crossings do not depend on the shooting config: a small one will do
    estimate = cut_locus_estimate(
        problem, q0, t_max, n_alpha=n_alpha, config=ShootingConfig(n_alpha=64, n_time=64)
    )
    shared = [ts for ts in rows if ts.shape == (reachability.N_FRONT_TIMES,)]
    assert len(shared) == 1
    front_times = shared[0]
    assert not any(ts.size == 1 and ts.item() in front_times for ts in rows)
    got = [(p.t, p.heading_a, p.heading_b, p.position) for p in estimate.separating_points]
    alphas = reachability._heading_circle(n_alpha)
    expected, lost = _per_time_crossings(problem, q0, alphas, front_times)
    assert len(got) == len(expected) >= 2
    if family == "historical":  # the closed form: the same bits
        assert lost == [0] * 5
        assert repr(got) == repr(expected)
    else:  # the continuous extension: within its error; the later fronts lose lanes
        assert lost == [0, 0, 5, 9, 11]
        for (t, *rest), (t_e, *rest_e) in zip(got, expected):
            assert t == t_e
            np.testing.assert_allclose(np.hstack(rest), np.hstack(rest_e), rtol=0.0, atol=1e-8)


def test_cut_locus_truncates_at_t_max(historical):
    estimate = cut_locus_estimate(
        historical, Q0_STRONG, 0.5, n_alpha=96, config=ShootingConfig(t_max=1.0)
    )
    for arc in estimate.arcs:
        assert arc.t_end <= 0.5 + 1e-12


def test_cut_locus_rejects_weak_start(historical):
    with pytest.raises(ValueError):
        cut_locus_estimate(historical, Q0_WEAK, 1.0)


def test_cut_locus_default_horizon_is_adapted_neighborhood(historical):
    # with no horizon given, arcs run to 1.5x the forward cusp time
    t_cusp = cusp_historical(ExtendedState(0.0, 2.0, CUSPED_HEADING)).t_cusp
    estimate = cut_locus_estimate(
        historical, Q0_STRONG, n_alpha=96, config=ShootingConfig(t_max=3.0)
    )
    assert math.isclose(max(arc.t_end for arc in estimate.arcs), 1.5 * t_cusp, rel_tol=1e-12)


# -- generic (non-closed-form) shooting path ---------------------------------------


def test_vortex_value_function_generic_path(vortex):
    q0 = (0.5, 0.0)  # strong region r < k
    config = ShootingConfig(t_max=1.2, n_alpha=240, n_time=200)
    grid = build_shooting_grid(vortex, q0, config)
    # domain exits leave nan rows but most of the grid is usable
    assert 0.5 < np.isfinite(grid.positions[..., 0]).mean() < 1.0
    target = reach(vortex, q0, 0.9, 0.4)
    sample = value_function(vortex, q0, target, config, grid)
    assert sample.reachable
    assert sample.t_min <= 0.4 + 1e-8
    landed = reach(vortex, q0, sample.heading0, sample.t_min)
    assert math.hypot(landed[0] - target[0], landed[1] - target[1]) <= config.position_tol


def test_vortex_sphere_fan(vortex):
    # the strong-current fan is not specific to the linear-shear problem
    result = sphere_and_ball(
        vortex, (0.5, 0.0), 0.15, 32, ShootingConfig(t_max=0.5, n_alpha=240, n_time=160)
    )
    tags = np.array([tag.value for tag in result.front.tags])
    assert np.all(tags[result.is_sphere] == "hyperbolic")
    assert result.is_sphere[tags == "hyperbolic"].all()
    assert not result.is_sphere[tags == "elliptic"].any()
    assert len(result.abnormal_arcs) == 2


# -- known arrival bound ---------------------------------------------------------


def _first_stage_starts(monkeypatch):
    """Spy on the coarse Newton stage: a list that fills with (lane targets, start times)."""
    starts = []
    real = reachability._newton_polish

    def spy(problem, q0, targets, a0, t0, position_tol, t_max, control=None):
        if control == reachability.COARSE_CONTROL:
            starts.append((np.array(targets), np.array(t0)))
        return real(problem, q0, targets, a0, t0, position_tol, t_max, control)

    monkeypatch.setattr(reachability, "_newton_polish", spy)
    return starts


def test_sphere_polishes_no_candidate_past_the_front_time(vortex, monkeypatch):
    # every front point is reached at the front time t, so a candidate node
    # more than CAPTURE_FACTOR grid time steps past t cannot give its value
    starts = _first_stage_starts(monkeypatch)
    config = ShootingConfig(t_max=0.5, n_alpha=240, n_time=160)
    t = 0.15
    sphere_and_ball(vortex, (0.5, 0.0), t, 8, config)
    (_, t0), = starts
    slack = reachability.CAPTURE_FACTOR * config.t_max / (config.n_time - 1)
    assert t0.shape[0] > 0 and np.max(t0) <= t + slack


def test_cut_locus_polishes_no_candidate_past_its_crossing_time(historical, monkeypatch):
    starts = _first_stage_starts(monkeypatch)
    config = ShootingConfig(t_max=2.5)
    estimate = cut_locus_estimate(historical, Q0_STRONG, 2.5, n_alpha=96, config=config)
    (targets, t0), = starts
    crossing_time = {point.position: point.t for point in estimate.separating_points}
    bound = np.array([crossing_time[tuple(tgt)] for tgt in targets.tolist()])
    slack = reachability.CAPTURE_FACTOR * config.t_max / (config.n_time - 1)
    assert t0.shape[0] > 0 and np.all(t0 <= bound + slack)


def _powerlaw13():
    return make_powerlaw(1.0, -3.0, 1.0)


@pytest.mark.parametrize(
    "family, q0, t, config",
    [
        ("vortex", (0.5, 0.0), 0.15, ShootingConfig(t_max=0.5, n_alpha=240, n_time=160)),
        ("historical", Q0_STRONG, 0.3, ShootingConfig(t_max=1.0)),
        ("powerlaw", (0.5, 0.0), 0.1, ShootingConfig(t_max=0.5, n_alpha=240, n_time=160)),
    ],
)
def test_arrival_bound_only_drops_lanes_that_cannot_win(historical, vortex, family, q0, t, config):
    # the kept lanes give the bits they give unbounded, so t_min can only rise,
    # and only where a dropped lane landed on the same arrival a little earlier
    problem = {"historical": historical, "vortex": vortex}.get(family) or _powerlaw13()
    result = sphere_and_ball(problem, q0, t, 16, config)
    points = result.front.positions[result.front.ok]
    grid = build_shooting_grid(problem, q0, config)
    bounded = _value_samples(grid, points, reached_at=np.full(points.shape[0], t))
    unbounded = _value_samples(grid, points)
    t_bounded = np.array([s.t_min for s in bounded])
    t_free = np.array([s.t_min for s in unbounded])
    assert t_bounded.tolist() == result.t_min[result.front.ok].tolist()
    assert np.all(t_bounded >= t_free)
    assert [s.reachable for s in bounded] == [s.reachable for s in unbounded]
    on_sphere = np.abs(t_free - t) <= reachability.SPHERE_TOL * (1.0 + t)
    assert result.is_sphere[result.front.ok].tolist() == on_sphere.tolist()
    assert all(0 < s.n_candidates <= u.n_candidates for s, u in zip(bounded, unbounded))


def _grids(monkeypatch, bounded=True):
    """Record the grids shooting builds; with ``bounded=False`` every grid runs to t_max."""
    built = []

    def build(problem, q0, config=None, *, reached_by=math.inf):
        built.append(
            build_shooting_grid(problem, q0, config, reached_by=reached_by if bounded else math.inf)
        )
        return built[-1]

    monkeypatch.setattr(reachability, "build_shooting_grid", build)
    return built


def _assert_cut_at(grid, whole, reached_by):
    """``grid`` holds ``whole``'s times up to one past the arrival bound of ``reached_by``."""
    n = grid.times.shape[0]
    np.testing.assert_array_equal(grid.times, whole.times[:n])
    bound = reached_by + reachability.CAPTURE_FACTOR * whole.times[1]
    assert grid.times[-2] <= bound < grid.times[-1] < whole.times[-1]
    assert grid.positions.shape == (whole.alphas.shape[0], n, 2)


@pytest.mark.parametrize(
    "family, q0, t, config",
    [
        ("vortex", (0.5, 0.0), 0.15, ShootingConfig(t_max=0.5, n_alpha=240, n_time=160)),
        ("historical", Q0_STRONG, 0.3, ShootingConfig(t_max=1.0)),
        ("powerlaw", (0.5, 0.0), 0.1, ShootingConfig(t_max=0.5, n_alpha=240, n_time=160)),
    ],
)
def test_sphere_on_rows_cut_at_the_arrival_bound_equals_the_full_grid(
    historical, vortex, monkeypatch, family, q0, t, config
):
    problem = {"historical": historical, "vortex": vortex}.get(family) or _powerlaw13()
    wholes = _grids(monkeypatch, bounded=False)
    full = sphere_and_ball(problem, q0, t, 16, config)
    grids = _grids(monkeypatch)
    result = sphere_and_ball(problem, q0, t, 16, config)
    (whole,), (grid,) = wholes, grids
    _assert_cut_at(grid, whole, t)
    assert result.t_min.tolist() == full.t_min.tolist()
    assert result.is_sphere.tolist() == full.is_sphere.tolist()
    assert result.is_sphere.any() and not result.is_sphere.all()


def test_cut_locus_on_rows_cut_at_the_arrival_bound_equals_the_full_grid(historical, monkeypatch):
    # the last front is at 2.5, far inside the config's horizon of 6
    config = ShootingConfig()
    samples = []
    real = reachability._value_samples

    def spy(*args, **kwargs):
        samples.append(real(*args, **kwargs))
        return samples[-1]

    monkeypatch.setattr(reachability, "_value_samples", spy)
    wholes = _grids(monkeypatch, bounded=False)
    full = cut_locus_estimate(historical, Q0_STRONG, 2.5, n_alpha=96, config=config)
    grids = _grids(monkeypatch)
    estimate = cut_locus_estimate(historical, Q0_STRONG, 2.5, n_alpha=96, config=config)
    (whole,), (grid,) = wholes, grids
    _assert_cut_at(grid, whole, max(point.t for point in estimate.separating_points))
    assert estimate.separating_points == full.separating_points
    # each crossing's polished value, not only its confirmed flag
    assert samples[1] == samples[0] and any(sample.reachable for sample in samples[1])
