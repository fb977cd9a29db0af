"""Low-level integration kernels for the extended heading flow.

The hot inner loops live here: the right-hand side of the canonical
``(r, theta, alpha)`` dynamics and a Dormand-Prince 5(4) adaptive stepper,
once storing every accepted step and once sampling at caller-given times.
The right-hand side reads the family profiles from
``problems.profile_table``, compiled here as ``profile``.

The kernels are compiled with numba when it is importable.  Setting the
environment variable ``ZERMELO_DISABLE_NUMBA=1`` before import selects the
pure-python/numpy fallback: the very same functions, undecorated.
``BACKEND`` names the active path.  The benchmark in ``perfbench/`` measures
the kernels and records the backend of each run.
"""

import math
import os

from .problems import profile_table

NUMBA_ENV_FLAG = "ZERMELO_DISABLE_NUMBA"

try:
    if os.environ.get(NUMBA_ENV_FLAG, "").strip().lower() in {"1", "true", "yes"}:
        raise ImportError("numba disabled by environment flag")
    from numba import njit as _njit

    BACKEND = "numba"
except ImportError:  # fallback: identical code, no compilation
    BACKEND = "numpy"

    def _njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def decorate(func):
            return func

        return decorate


# integration outcomes
STATUS_OK = 0
STATUS_DOMAIN_EXIT = 1
STATUS_STEP_COLLAPSE = 2
STATUS_MAX_STEPS = 3

# Dormand-Prince 5(4) tableau
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
# error weights: 5th-order propagated solution minus the embedded 4th-order one
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

_H_FLOOR = 1e-14


profile = _njit(cache=True)(profile_table)


@_njit(cache=True)
def rhs(code, k, a, b, r, alpha):
    """Canonical dynamics (dr, dtheta, dalpha) at radius r and heading alpha."""
    m, mp, mu, mup = profile(code, k, a, b, r)
    sa = math.sin(alpha)
    return math.cos(alpha), mu + sa / m, mup * m * sa * sa - mp * sa / m


@_njit(cache=True)
def _classify_halt(r, t, dom_lo, dom_hi):
    """Step-size underflow: domain exit if hugging a finite boundary, else collapse."""
    dist = min(r - dom_lo, dom_hi - r)
    if dist < 1e-3 * (1.0 + abs(r)):
        return STATUS_DOMAIN_EXIT
    return STATUS_STEP_COLLAPSE


@_njit(cache=True)
def _attempt_step(code, k, a, b, r, th, al, h, rtol, atol):
    """One trial Dormand-Prince step; returns (r5, th5, al5, err)."""
    k1r, k1t, k1a = rhs(code, k, a, b, r, al)

    k2r, k2t, k2a = rhs(code, k, a, b, r + h * _A21 * k1r, al + h * _A21 * k1a)
    k3r, k3t, k3a = rhs(
        code, k, a, b, r + h * (_A31 * k1r + _A32 * k2r), al + h * (_A31 * k1a + _A32 * k2a)
    )
    k4r, k4t, k4a = rhs(
        code,
        k,
        a,
        b,
        r + h * (_A41 * k1r + _A42 * k2r + _A43 * k3r),
        al + h * (_A41 * k1a + _A42 * k2a + _A43 * k3a),
    )
    k5r, k5t, k5a = rhs(
        code,
        k,
        a,
        b,
        r + h * (_A51 * k1r + _A52 * k2r + _A53 * k3r + _A54 * k4r),
        al + h * (_A51 * k1a + _A52 * k2a + _A53 * k3a + _A54 * k4a),
    )
    k6r, k6t, k6a = rhs(
        code,
        k,
        a,
        b,
        r + h * (_A61 * k1r + _A62 * k2r + _A63 * k3r + _A64 * k4r + _A65 * k5r),
        al + h * (_A61 * k1a + _A62 * k2a + _A63 * k3a + _A64 * k4a + _A65 * k5a),
    )

    r5 = r + h * (_B1 * k1r + _B3 * k3r + _B4 * k4r + _B5 * k5r + _B6 * k6r)
    th5 = th + h * (_B1 * k1t + _B3 * k3t + _B4 * k4t + _B5 * k5t + _B6 * k6t)
    al5 = al + h * (_B1 * k1a + _B3 * k3a + _B4 * k4a + _B5 * k5a + _B6 * k6a)

    if not (math.isfinite(r5) and math.isfinite(th5) and math.isfinite(al5)):
        return r5, th5, al5, math.inf

    k7r, k7t, k7a = rhs(code, k, a, b, r5, al5)

    er = h * (_E1 * k1r + _E3 * k3r + _E4 * k4r + _E5 * k5r + _E6 * k6r + _E7 * k7r)
    et = h * (_E1 * k1t + _E3 * k3t + _E4 * k4t + _E5 * k5t + _E6 * k6t + _E7 * k7t)
    ea = h * (_E1 * k1a + _E3 * k3a + _E4 * k4a + _E5 * k5a + _E6 * k6a + _E7 * k7a)

    sr = atol + rtol * max(abs(r), abs(r5))
    st = atol + rtol * max(abs(th), abs(th5))
    sa = atol + rtol * max(abs(al), abs(al5))
    err = math.sqrt(((er / sr) ** 2 + (et / st) ** 2 + (ea / sa) ** 2) / 3.0)
    if not math.isfinite(err):
        err = math.inf
    return r5, th5, al5, err


@_njit(cache=True)
def _next_h(h, err, max_step):
    if err == 0.0:
        factor = 5.0
    else:
        factor = 0.9 * err ** -0.2
        if factor > 5.0:
            factor = 5.0
        elif factor < 0.2:
            factor = 0.2
    return min(h * factor, max_step)


@_njit(cache=True)
def rk45_trajectory(
    code, k, a, b, r0, th0, al0, t_final, rtol, atol, max_step, dom_lo, dom_hi, pad, out_t, out_y
):
    """Integrate to ``t_final`` storing every accepted step.

    ``out_t`` (n_max,) and ``out_y`` (n_max, 3) are caller-allocated; row 0
    receives the initial state.  Returns ``(n_stored, status)``.
    """
    n_max = out_t.shape[0]
    out_t[0] = 0.0
    out_y[0, 0] = r0
    out_y[0, 1] = th0
    out_y[0, 2] = al0
    n = 1
    t, r, th, al = 0.0, r0, th0, al0
    h = min(max_step, t_final, 1e-3)
    status = STATUS_OK
    while t < t_final:
        if n >= n_max:
            status = STATUS_MAX_STEPS
            break
        if h < _H_FLOOR * max(1.0, abs(t)):
            status = _classify_halt(r, t, dom_lo, dom_hi)
            break
        h_try = min(h, t_final - t)
        r5, th5, al5, err = _attempt_step(code, k, a, b, r, th, al, h_try, rtol, atol)
        if err > 1.0:
            h = h_try * max(0.2, 0.9 * err ** -0.2) if math.isfinite(err) else 0.5 * h_try
            continue
        t = t + h_try
        r, th, al = r5, th5, al5
        out_t[n] = t
        out_y[n, 0] = r
        out_y[n, 1] = th
        out_y[n, 2] = al
        n += 1
        if r <= dom_lo + pad or r >= dom_hi - pad:
            status = STATUS_DOMAIN_EXIT
            break
        h = _next_h(h_try, err, max_step)
    return n, status


@_njit(cache=True)
def rk45_at_times(
    code, k, a, b, r0, th0, al0, ts, rtol, atol, max_step, dom_lo, dom_hi, pad, max_steps, out_y
):
    """Integrate hitting each time of the ascending array ``ts`` exactly.

    ``out_y`` has shape (len(ts), 3); rows past a premature halt are left
    untouched (callers pre-fill with nan).  Returns ``(n_filled, status)``.
    """
    t, r, th, al = 0.0, r0, th0, al0
    h = min(max_step, 1e-3)
    status = STATUS_OK
    filled = 0
    steps = 0
    for i in range(ts.shape[0]):
        target = ts[i]
        if target < t:
            status = STATUS_STEP_COLLAPSE
            break
        halted = False
        while t < target:
            steps += 1
            if steps > max_steps:
                status = STATUS_MAX_STEPS
                halted = True
                break
            if h < _H_FLOOR * max(1.0, abs(t)):
                status = _classify_halt(r, t, dom_lo, dom_hi)
                halted = True
                break
            h_try = min(h, target - t)
            r5, th5, al5, err = _attempt_step(code, k, a, b, r, th, al, h_try, rtol, atol)
            if err > 1.0:
                h = h_try * max(0.2, 0.9 * err ** -0.2) if math.isfinite(err) else 0.5 * h_try
                continue
            t = t + h_try
            r, th, al = r5, th5, al5
            if r <= dom_lo + pad or r >= dom_hi - pad:
                status = STATUS_DOMAIN_EXIT
                halted = True
                break
            h = _next_h(h_try, err, max_step)
        if halted:
            break
        out_y[i, 0] = r
        out_y[i, 1] = th
        out_y[i, 2] = al
        filled = i + 1
    return filled, status
