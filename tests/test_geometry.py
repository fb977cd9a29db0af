import math

import numpy as np
import pytest

from zermelo import make_powerlaw
from zermelo.geometry import (
    REFINE_MAX_ITER,
    REFINE_TOL,
    polyline_self_intersections,
    refine_curve_intersection,
)
from zermelo.reachability import wavefront


def _figure_eight(u):
    # lissajous with exactly one transversal self-crossing at the origin
    return (math.sin(2.0 * u), math.sin(u))


# a bow tie whose crossing segments are five parameter steps apart: the
# middle edge runs down x = 2 in four steps
BOW_TIE = np.array(
    [[0.0, 0.0], [2.0, 2.0], [2.0, 1.5], [2.0, 1.0], [2.0, 0.5], [2.0, 0.0], [0.0, 2.0]]
)


def test_simple_crossing_detected():
    par = np.arange(7.0)
    hits = polyline_self_intersections(BOW_TIE, par)
    assert len(hits) == 1
    u1, u2, (x, y) = hits[0]
    assert 0.0 < u1 < 1.0 < 5.0 < u2 < 6.0
    assert math.isclose(x, 1.0) and math.isclose(y, 1.0)


def test_monotone_polyline_has_no_crossings():
    t = np.linspace(0.0, 3.0, 50)
    pts = np.column_stack((t, np.sin(t)))
    assert polyline_self_intersections(pts, t) == []


def test_adjacent_touch_is_not_a_crossing():
    # sharp corner: consecutive segments share a vertex but do not cross
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.1], [0.0, 0.2]])
    par = np.arange(4.0)
    assert polyline_self_intersections(pts, par) == []


def test_figure_eight_crossing_and_refinement():
    # origin passages at u = pi and u = 2*pi are both interior to this window
    u = np.linspace(0.5 * math.pi, 2.5 * math.pi, 400)
    pts = np.array([_figure_eight(v) for v in u])
    hits = polyline_self_intersections(pts, u)
    assert len(hits) == 1
    u1, u2, _ = hits[0]
    refined = refine_curve_intersection(
        _figure_eight, u1, u2, (float(u[0]), float(u[-1]))
    )
    assert refined is not None
    r1, r2, (x, y) = refined
    assert math.hypot(x, y) < 1e-9
    assert math.isclose(r1, math.pi, abs_tol=1e-7)
    assert math.isclose(r2, 2.0 * math.pi, abs_tol=1e-7)


def _refine_evaluating_both_points(eval_fn, u1, u2, bounds):
    """The crossing polish that evaluates both curve points for every gap it forms.

    The reference of ``refine_curve_intersection``, which keeps the points of
    its iterate and must take the same iterates with fewer evaluations.
    """
    lo, hi = bounds
    u = np.array([u1, u2], dtype=float)

    def gap(v):
        return np.asarray(eval_fn(v[0]), dtype=float) - np.asarray(eval_fn(v[1]), dtype=float)

    f = gap(u)
    h = 1e-7 * max(1.0, hi)

    def column(i):
        step = -h if u[i] + h > hi else h
        v = u.copy()
        v[i] += step
        return (gap(v) - f) / step

    for _ in range(REFINE_MAX_ITER):
        norm = float(np.hypot(*f))
        if norm <= REFINE_TOL:
            p = np.asarray(eval_fn(u[0]), dtype=float)
            return float(u[0]), float(u[1]), (float(p[0]), float(p[1]))
        jac = np.column_stack((column(0), column(1)))
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        for _ in range(20):
            trial = u + lam * step
            if trial[0] < lo or trial[1] > hi or trial[0] >= trial[1]:
                lam *= 0.5
                continue
            f_trial = gap(trial)
            if float(np.hypot(*f_trial)) < norm:
                u, f = trial, f_trial
                break
            lam *= 0.5
        else:
            return None
    return None


@pytest.mark.parametrize(
    "u1, u2, hi",
    [
        (3.0, 6.4, 2.5 * math.pi),
        (2.9, 6.1, 2.5 * math.pi),
        (3.1, 6.28, 2.0 * math.pi + 5e-8),  # u2 + h passes hi: the column steps inward
        (math.pi, 2.0 * math.pi, 2.5 * math.pi),  # starts within the tolerance
    ],
)
def test_crossing_polish_evaluates_each_curve_point_once(u1, u2, hi):
    calls = {"kept": [], "both": []}

    def counted(name):
        def eval_fn(u):
            calls[name].append(u)
            return _figure_eight(u)
        return eval_fn

    bounds = (0.5 * math.pi, hi)
    kept = refine_curve_intersection(counted("kept"), u1, u2, bounds)
    both = _refine_evaluating_both_points(counted("both"), u1, u2, bounds)
    assert kept is not None
    assert repr(kept) == repr(both)  # the same iterates, bit for bit
    # two points per Newton iteration (the unmoved side of each Jacobian
    # column) and the converged point are no longer evaluated again
    saved = len(calls["both"]) - len(calls["kept"])
    assert saved >= 1 and saved % 2 == 1


def test_param_gap_filter():
    # a crossing no more than three of the largest parameter steps apart is
    # dropped: the bow tie's crossing (u2 - u1 = 5) goes once its middle edge
    # is one step, or once a step of 2 (a far tail point) joins the polyline
    par = np.arange(7.0)
    assert len(polyline_self_intersections(BOW_TIE, par)) == 1
    assert polyline_self_intersections(BOW_TIE[[0, 1, 5, 6]], np.arange(4.0)) == []
    tail = np.vstack((BOW_TIE, [[10.0, 10.0]]))
    assert polyline_self_intersections(tail, np.append(par, 8.0)) == []


@pytest.mark.filterwarnings("error")
def test_nan_vertex_drops_only_its_own_segments():
    # a nan vertex (a front lane that left the domain) ends the two segments
    # that touch it, and only those: with a finite vertex there both segments
    # cross the polyline, and the bow tie's crossing far from it stays
    tail = [[1.0, 4.0], [1.0, 6.0], [2.0, 7.0], [3.0, 6.0], [3.0, 5.0], [3.0, 4.0], [0.0, 5.0]]
    pts = np.vstack((BOW_TIE, tail, [[0.5, 2.0], [0.5, 1.0]]))
    par = np.arange(16.0)
    finite = polyline_self_intersections(pts, par)
    pts[13] = np.nan
    hits = polyline_self_intersections(pts, par)
    touching = [hit for hit in finite if any(12.0 <= u <= 14.0 for u in hit[:2])]
    assert len(touching) == 2  # one crossing on each segment of vertex 13
    assert hits == [hit for hit in finite if hit not in touching]
    assert hits[0] == (0.5, 5.5, (1.0, 1.0))  # the bow tie
    assert len(hits) == 2  # segment 14, which starts past the nan vertex, still crosses


def _all_pairs_reference(points, params):
    """Self-intersections screened over all n(n-1)/2 segment pairs in row-major order."""
    pts = np.asarray(points, dtype=float)
    par = np.asarray(params, dtype=float)
    n = pts.shape[0]
    if n < 4:
        return []
    min_param_gap = 3.0 * float(np.max(np.diff(par)))
    a, b = pts[:-1], pts[1:]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    ii, jj = np.triu_indices(n - 1, k=2)
    overlap = (
        (lo[ii, 0] <= hi[jj, 0])
        & (lo[jj, 0] <= hi[ii, 0])
        & (lo[ii, 1] <= hi[jj, 1])
        & (lo[jj, 1] <= hi[ii, 1])
    )
    ii, jj = ii[overlap], jj[overlap]
    d1, d2, rr = b[ii] - a[ii], b[jj] - a[jj], a[jj] - a[ii]
    den = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (rr[:, 0] * d2[:, 1] - rr[:, 1] * d2[:, 0]) / den
        w = (rr[:, 0] * d1[:, 1] - rr[:, 1] * d1[:, 0]) / den
    eps = 1e-9
    good = (np.abs(den) > 0.0) & (s >= -eps) & (s <= 1.0 + eps) & (w >= -eps) & (w <= 1.0 + eps)
    out = []
    for idx in np.nonzero(good)[0]:
        i, j = int(ii[idx]), int(jj[idx])
        u1 = par[i] + float(s[idx]) * (par[i + 1] - par[i])
        u2 = par[j] + float(w[idx]) * (par[j + 1] - par[j])
        if u2 - u1 > min_param_gap:
            p = a[i] + float(s[idx]) * d1[idx]
            out.append((float(u1), float(u2), (float(p[0]), float(p[1]))))
    out.sort()
    return out


def _assert_same_hits(points, params):
    hits = polyline_self_intersections(points, params)
    # repr tells 0.0 from -0.0: equal crossings found by two pairs keep their order
    assert repr(hits) == repr(_all_pairs_reference(points, params))
    return len(hits)


@pytest.mark.parametrize("with_nan", [False, True])
def test_sweep_matches_the_all_pairs_screen_on_random_walks(with_nan):
    rng = np.random.default_rng(11)
    found = 0
    for trial in range(300):
        n = int(rng.integers(2, 160))
        pts = np.cumsum(rng.normal(size=(n, 2)), axis=0)
        if trial % 2 == 0:  # integer vertices: tied x-extents, collinear overlaps
            pts = np.round(pts)
        if trial % 3 == 0:
            pts[:, 0] = np.round(pts[:, 0] / 3.0)  # long vertical runs on one x
        if with_nan and n > 3:
            pts[rng.integers(0, n, 1 + n // 20)] = np.nan
        par = np.cumsum(rng.uniform(0.1, 1.0, n))
        found += _assert_same_hits(pts, par)
    assert found > 1000


def test_sweep_matches_the_all_pairs_screen_on_closed_fronts():
    # a closed wavefront polygon as cut_locus_estimate builds it
    problem, found = make_powerlaw(2.0, -2.0, 1.0), 0
    for t in (0.6, 1.0):
        front = wavefront(problem, (1.5, 0.0), t, 256)
        pts = np.vstack((front.positions, front.positions[:1]))
        par = np.concatenate((front.alpha0, front.alpha0[:1] + 2.0 * math.pi))
        found += _assert_same_hits(pts, par)
    assert found >= 2
