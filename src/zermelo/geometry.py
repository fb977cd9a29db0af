"""Planar polyline intersection helpers.

Used to find self-intersections of geodesic traces and wavefront polygons.
Candidate segment pairs come from a sweep and prune on x (Cohen, Lin,
Manocha & Ponamgi, "I-COLLIDE", I3D 1995): only pairs whose x-extents
overlap are formed, never all n(n-1)/2.  They are screened with vectorized
bounding boxes, solved exactly as line segments, and optionally polished
against the true curve by a small damped Newton iteration on the two curve
parameters.
"""

from __future__ import annotations

import numpy as np

__all__ = ["polyline_self_intersections", "refine_curve_intersection"]

# crossing polish: residual |eval(u1) - eval(u2)| to reach, and Newton iterations
REFINE_TOL = 1e-10
REFINE_MAX_ITER = 40


def polyline_self_intersections(
    points: np.ndarray, params: np.ndarray
) -> list[tuple[float, float, tuple[float, float]]]:
    """Transversal self-intersections of an open polyline.

    ``points`` is (n, 2), ``params`` the matching strictly increasing curve
    parameter.  Returns tuples ``(u1, u2, (x, y))`` with ``u1 < u2``, the
    parameters linearly interpolated within the intersecting segments.  A
    pair no more than three of the largest parameter steps apart
    (``u2 - u1 <= 3 * max(diff(params))``) is dropped, so that mere sample
    adjacency never counts as a crossing.  A segment with a nan end (a
    lane that left the domain) crosses nothing, since every comparison with
    nan is false; the rest of the polyline keeps its crossings.
    """
    pts = np.asarray(points, dtype=float)
    par = np.asarray(params, dtype=float)
    n = pts.shape[0]
    if n < 4:
        return []
    min_param_gap = 3.0 * float(np.max(np.diff(par)))

    a = pts[:-1]
    b = pts[1:]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    nseg = n - 1
    # sweep and prune on x: after a stable sort of the segments by low x,
    # the segments that follow one in that order and start at or before its
    # high x are exactly the later ones whose x-extent meets its own
    order = np.argsort(lo[:, 0], kind="stable")
    start = np.arange(1, nseg + 1)
    count = np.searchsorted(lo[order, 0], hi[order, 0], side="right") - start
    offset = np.cumsum(count) - count
    first = np.repeat(order, count)
    second = order[np.arange(int(count.sum())) - np.repeat(offset - start, count)]
    ii, jj = np.minimum(first, second), np.maximum(first, second)
    overlap = (
        (jj - ii >= 2)
        & (lo[ii, 0] <= hi[jj, 0])
        & (lo[jj, 0] <= hi[ii, 0])
        & (lo[ii, 1] <= hi[jj, 1])
        & (lo[jj, 1] <= hi[ii, 1])
    )
    ii, jj = ii[overlap], jj[overlap]
    if ii.size == 0:
        return []
    # row-major pair order: crossings that compare equal (two pairs meeting
    # at a shared vertex, 0.0 against -0.0) leave the stable sort below in
    # one fixed order
    ii, jj = np.divmod(np.sort(ii * nseg + jj), nseg)

    d1 = b[ii] - a[ii]
    d2 = b[jj] - a[jj]
    rr = a[jj] - a[ii]
    den = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (rr[:, 0] * d2[:, 1] - rr[:, 1] * d2[:, 0]) / den
        w = (rr[:, 0] * d1[:, 1] - rr[:, 1] * d1[:, 0]) / den
    eps = 1e-9
    good = (
        (np.abs(den) > 0.0)
        & (s >= -eps)
        & (s <= 1.0 + eps)
        & (w >= -eps)
        & (w <= 1.0 + eps)
    )
    out = []
    for idx in np.nonzero(good)[0]:
        i, j = int(ii[idx]), int(jj[idx])
        si, wj = float(s[idx]), float(w[idx])
        u1 = par[i] + si * (par[i + 1] - par[i])
        u2 = par[j] + wj * (par[j + 1] - par[j])
        if u2 - u1 <= min_param_gap:
            continue
        p = a[i] + si * d1[idx]
        out.append((float(u1), float(u2), (float(p[0]), float(p[1]))))
    out.sort()
    return out


def refine_curve_intersection(
    eval_fn,
    u1: float,
    u2: float,
    bounds: tuple[float, float],
) -> tuple[float, float, tuple[float, float]] | None:
    """Polish a polyline crossing against the true curve ``eval_fn(u) -> (x, y)``.

    Damped Newton on F(u1, u2) = eval(u1) - eval(u2) with a finite-difference
    Jacobian that evaluates no parameter past ``hi``; returns ``None`` if the
    iteration leaves ``bounds`` or fails to converge, in which case the
    caller keeps the polyline estimate.  Each curve point is evaluated once:
    the two points of the current iterate are kept, and each Jacobian column
    evaluates only the side it moves.
    """
    lo, hi = bounds
    u = np.array([u1, u2], dtype=float)

    def point(v):
        return np.asarray(eval_fn(v), dtype=float)

    p = [point(u[0]), point(u[1])]  # the curve points of the current iterate
    f = p[0] - p[1]
    h = 1e-7 * max(1.0, hi)

    def column(i):  # a forward difference, taken inward where u[i] + h would pass hi
        step = -h if u[i] + h > hi else h
        moved = p.copy()
        moved[i] = point(u[i] + step)  # only this side moves
        return (moved[0] - moved[1] - f) / step

    for _ in range(REFINE_MAX_ITER):
        norm = float(np.hypot(*f))
        if norm <= REFINE_TOL:
            return float(u[0]), float(u[1]), (float(p[0][0]), float(p[0][1]))
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
            p_trial = [point(trial[0]), point(trial[1])]
            f_trial = p_trial[0] - p_trial[1]
            if float(np.hypot(*f_trial)) < norm:
                u, f, p = trial, f_trial, p_trial
                break
            lam *= 0.5
        else:
            return None
    return None
