"""Exact trajectories of the linear-shear problem in its Cartesian chart.

With ``m == 1`` and ``mu(y) = y`` the extended dynamics reads

    x' = y + cos(gamma),  y' = sin(gamma),  gamma' = -cos(gamma)^2,

and integrates in closed form.  Writing ``u(t) = tan(gamma_0) - t`` and
``s = sign(cos(gamma_0))``, the heading obeys ``cos(gamma) = s / sqrt(1 + u^2)``
and ``sin(gamma) = s u / sqrt(1 + u^2)``: the sign of ``cos(gamma)`` never
changes along the flow.  Integrating with ``root = sqrt(1 + u^2)`` and
``w = asinh(u_0) - asinh(u)`` gives

    y = y_0 + s t (u_0 + u) / (root_0 + root)
    x = x_0 + y_0 t + s/2 [t (cosh(w) + 1 + t (u_0 + u)) / (root_0 + root) + w]

where ``cosh(w) = root_0 root - u_0 u``.  Every term stays bounded as the
heading turns vertical (``u_0 -> inf``), so no large terms cancel and both
lines keep full accuracy there; an exactly vertical heading (``tan`` of the
float nearest ``pi/2``) needs no special case.

The endpoint entry points fill their result a block of headings (about
``BLOCK`` elements) at a time: every element takes the operations of one
whole-array evaluation, so the bits are the same, and the work arrays stay
one block in size.
"""

from __future__ import annotations

import math

import numpy as np

from .problems import ExtendedState, wrap_angle

__all__ = [
    "cusp_time",
    "historical_endpoints",
    "historical_positions",
    "historical_state",
]

BLOCK = 1 << 14  # elements per closed-form evaluation block (2**14 and 2**16 measure the same)


def cusp_time(g0: float) -> float:
    """Time at which the heading reaches 0 mod pi along the flow: tan(gamma_0)."""
    return math.tan(float(wrap_angle(g0)))


def _flow(x0: float, y0: float, g0, t, heading: bool = False) -> np.ndarray:
    """Flow of ``(x0, y0, g0)`` over ``t``; ``g0`` and ``t`` broadcast together.

    Returns positions ``(..., 2)``, with the heading as a third column when
    ``heading`` is set.
    """
    g0 = np.asarray(g0, dtype=float)
    t = np.asarray(t, dtype=float)
    s = np.copysign(1.0, np.cos(g0))
    u0 = np.tan(g0)
    u = u0 - t
    w = np.arcsinh(u0) - np.arcsinh(u)
    q = t / (np.hypot(1.0, u0) + np.hypot(1.0, u))
    g = wrap_angle(np.arctan2(s * u, s)) if heading else None  # -pi -> pi
    u += u0  # u0 + u from here on
    y = y0 + s * q * u
    x = x0 + y0 * t + 0.5 * s * (q * (np.cosh(w) + 1.0 + t * u) + w)
    return np.stack((x, y, g) if heading else (x, y), axis=-1)


def historical_state(state: ExtendedState, t: float) -> ExtendedState:
    """Closed-form flow of a single state over time ``t``."""
    return ExtendedState(*_flow(state.c1, state.c2, state.heading, float(t), heading=True))


def _flow_blocks(x0: float, y0: float, g0s, ts) -> np.ndarray:
    """``_flow`` positions over ``broadcast(g0s, ts)``, a block of headings (first axis) at a time.

    A block holds as many headings as fit in ``BLOCK`` elements, at least
    one; an operand of length 1 on the heading axis serves every block.
    """
    g0s, ts = np.asarray(g0s, dtype=float), np.asarray(ts, dtype=float)
    shape = np.broadcast_shapes(g0s.shape, ts.shape)
    if not shape:  # one heading and one time
        return _flow(x0, y0, g0s, ts)
    g0s, ts = (a.reshape((1,) * (len(shape) - a.ndim) + a.shape) for a in (g0s, ts))
    rows = max(1, BLOCK // max(1, math.prod(shape[1:])))
    out = np.empty(shape + (2,))
    for i in range(0, shape[0], rows):
        g, t = (a[i : i + rows] if a.shape[0] > 1 else a for a in (g0s, ts))
        out[i : i + rows] = _flow(x0, y0, g, t)
    return out


def historical_endpoints(x0: float, y0: float, g0s, ts) -> np.ndarray:
    """Endpoint positions for initial headings ``g0s`` broadcast against times ``ts``.

    Returns an array of shape ``broadcast(g0s, ts).shape + (2,)``.
    """
    return _flow_blocks(x0, y0, g0s, ts)


def historical_positions(x0: float, y0: float, g0s, ts) -> np.ndarray:
    """Endpoint positions for a grid of initial headings and times.

    Returns an array of shape ``(len(g0s), len(ts), 2)``; vectorized by
    blocks, which is what makes dense shooting over the heading circle cheap.
    """
    return _flow_blocks(x0, y0, np.reshape(g0s, (-1, 1)), np.reshape(ts, (1, -1)))
