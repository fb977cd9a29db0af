"""Low-level integration kernels for the extended heading flow.

The hot inner loops live here: the right-hand side of the canonical
``(r, theta, alpha)`` dynamics and one Dormand-Prince 5(4) adaptive step,
driven three ways.  The scalar stepper runs one lane, storing every accepted
step (``rk45_trajectory``) or landing on each of a row of times in turn
(``rk45_at_times``); both take their trial steps through one step policy,
``_advance``.  The scalar step is "first same as last" (FSAL; Dormand &
Prince, J. Comput. Appl. Math. 6, 1980): the RHS at an accepted step's end
is the next step's first stage, and a rejected trial keeps the first stage
it was given, so a trial step evaluates the RHS 6 times and a lane once
more at its start.  ``rk45_trajectory`` can also stop at the radial turn,
the first accepted step whose ``cos(alpha)`` has the opposite sign to the
start's.  The lane kernel ``rk45_lanes`` samples N lanes at
once: one numpy loop advances every running lane by one trial step.  Its
lanes share one ascending row of times, or take one time each.  The
running lanes' (t, r, theta, alpha, h) and the RHS at their state are the
columns of one (8, N) array, beside their indices and targets: the lane
step is FSAL too, so a pass makes 6 RHS evaluations.  Each pass records
the status of every lane that stops (all targets filled, a step size below
the floor, ``MAX_STEPS`` passed, a domain exit), and one statement drops
them.  Both steppers name a floor halt by ``_floor_halt``.  A shared row
runs in the numpy loop until every lane stops; lanes of one time each
finish in the scalar stepper once fewer than ``TAIL_LANES`` run.  The
right-hand side reads the family profiles from ``problems.profile_table``.

The scalar stepper lands on every time it is given.  Only the lane kernel
steps past the times of a shared row, by one landing rule for every trial
step, a rejected one's retry included: a step that would hold two or more
of the row's remaining times is taken whole, or lands on the row's last
time if it would hold that; a step that would hold one time lands on it.
The times strictly inside an accepted step are read from the
Dormand-Prince continuous extension (Hairer, Norsett & Wanner, *Solving
ODEs I*, II.6), built from the accepted step's own stages, with no further
RHS evaluation.  A lane with one time never fills, so it takes the steps
the scalar stepper gives it alone, and the times of a step that halts stay
nan.

Each driver takes one tolerance ``tol``, relative and absolute alike, and
the domain ``(dom_lo, dom_hi)``, and returns the samples it allocates.  The
stepper's limits are the module constants ``H_START``, ``MAX_STEP``,
``MAX_STEPS`` and ``BOUNDARY_PAD``, and every driver halts by one step
rule: a lane that takes more than ``MAX_STEPS`` trial steps stops with
``STATUS_MAX_STEPS``.

A lane's samples must not depend on the batch it runs in, so the numpy
step and the scalar step produce the same bits.  ``+ - * /``, ``sqrt``,
``sin`` and ``cos`` agree between numpy and ``math``; numpy's own array
power does not agree with the C library's ``pow`` in the last bit.  So
every power goes through the C library's ``pow``: a Python float's ``**``
in the scalar step, ``numpy.float_power`` in the lane step.  The scalar
stepper must therefore be given Python floats, not numpy scalars, whose
``**`` is numpy's.

``BACKEND`` names the kernels' implementation; the benchmark in
``perfbench/`` records it with each run.
"""

import math

import numpy as np

from .problems import profile_table

BACKEND = "numpy"

# integration outcomes
STATUS_OK = 0
STATUS_DOMAIN_EXIT = 1
STATUS_STEP_COLLAPSE = 2
STATUS_MAX_STEPS = 3
STATUS_RADIAL_TURN = 4  # rk45_trajectory(stop_at_turn=True) stopped at the radial turn

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

# continuous extension (Hairer, Norsett & Wanner, Solving ODEs I, II.6)
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075.0 / 11282082432.0,
    87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0,
    701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0,
    69997945.0 / 29380423.0,
)

_H_FLOOR = 1e-14

# fixed limits of the adaptive 5(4) stepper: the first trial step, the
# largest step, the trial steps a lane may take, and the distance from the
# domain boundary that halts a lane
H_START = 1e-3
MAX_STEP = 0.25
MAX_STEPS = 200_000
BOUNDARY_PAD = 1e-6

# a numpy step of the lane kernel costs about as much as 16 scalar steps
# (about 200 us against 13 us on a 2-vCPU x86 VM), so below this many
# running lanes the scalar stepper finishes a batch of one-time lanes
TAIL_LANES = 16


def rhs(code, k, a, b, r, alpha):
    """Canonical dynamics (dr, dtheta, dalpha) at radius r and heading alpha."""
    m, mp, mu, mup = profile_table(code, k, a, b, r)
    sa = math.sin(alpha)
    return math.cos(alpha), mu + sa / m, mup * m * sa * sa - mp * sa / m


def _floor_halt(r, dom_lo, dom_hi):
    """Status of a lane whose step size fell below the floor at radius ``r``
    (a float or an array): a domain exit next to a finite boundary, else a
    step collapse."""
    near = np.minimum(r - dom_lo, dom_hi - r) < 1e-3 * (1.0 + np.abs(r))
    return np.where(near, STATUS_DOMAIN_EXIT, STATUS_STEP_COLLAPSE)


def _attempt_step(code, k, a, b, r, th, al, h, tol, k1):
    """One trial Dormand-Prince step from ``(r, th, al)``, where the RHS is ``k1``.

    Returns ``(r5, th5, al5, err, k7)``: ``k7`` is the RHS at the 5th-order
    state, the next step's ``k1`` if this one is accepted.  Where the trial
    state is not finite, ``err`` is inf and ``k7`` is ``None``.
    """
    k1r, k1t, k1a = k1

    k2r, k2t, k2a = rhs(code, k, a, b, r + h * _A21 * k1r, al + h * _A21 * k1a)
    k3r, k3t, k3a = rhs(
        code, k, a, b, r + h * (_A31 * k1r + _A32 * k2r), al + h * (_A31 * k1a + _A32 * k2a)
    )
    k4r, k4t, k4a = rhs(
        code, k, a, b,
        r + h * (_A41 * k1r + _A42 * k2r + _A43 * k3r),
        al + h * (_A41 * k1a + _A42 * k2a + _A43 * k3a),
    )
    k5r, k5t, k5a = rhs(
        code, k, a, b,
        r + h * (_A51 * k1r + _A52 * k2r + _A53 * k3r + _A54 * k4r),
        al + h * (_A51 * k1a + _A52 * k2a + _A53 * k3a + _A54 * k4a),
    )
    k6r, k6t, k6a = rhs(
        code, k, a, b,
        r + h * (_A61 * k1r + _A62 * k2r + _A63 * k3r + _A64 * k4r + _A65 * k5r),
        al + h * (_A61 * k1a + _A62 * k2a + _A63 * k3a + _A64 * k4a + _A65 * k5a),
    )

    r5 = r + h * (_B1 * k1r + _B3 * k3r + _B4 * k4r + _B5 * k5r + _B6 * k6r)
    th5 = th + h * (_B1 * k1t + _B3 * k3t + _B4 * k4t + _B5 * k5t + _B6 * k6t)
    al5 = al + h * (_B1 * k1a + _B3 * k3a + _B4 * k4a + _B5 * k5a + _B6 * k6a)

    if not (math.isfinite(r5) and math.isfinite(th5) and math.isfinite(al5)):
        return r5, th5, al5, math.inf, None

    k7 = rhs(code, k, a, b, r5, al5)
    k7r, k7t, k7a = k7

    er = h * (_E1 * k1r + _E3 * k3r + _E4 * k4r + _E5 * k5r + _E6 * k6r + _E7 * k7r)
    et = h * (_E1 * k1t + _E3 * k3t + _E4 * k4t + _E5 * k5t + _E6 * k6t + _E7 * k7t)
    ea = h * (_E1 * k1a + _E3 * k3a + _E4 * k4a + _E5 * k5a + _E6 * k6a + _E7 * k7a)

    sr = tol + tol * max(abs(r), abs(r5))
    st = tol + tol * max(abs(th), abs(th5))
    sa = tol + tol * max(abs(al), abs(al5))
    err = math.sqrt(((er / sr) ** 2 + (et / st) ** 2 + (ea / sa) ** 2) / 3.0)
    if not math.isfinite(err):
        err = math.inf
    return r5, th5, al5, err, k7


def _new_h(h_try, err):
    """Step size after a trial step ``h_try`` with error norm ``err``, capped at ``MAX_STEP``.

    The factor is ``0.9 err^-0.2`` clipped to [0.2, 5] (Dormand & Prince,
    J. Comput. Appl. Math. 6, 1980), and 0.5 at err = inf.
    """
    if err == 0.0:
        factor = 5.0
    elif err == math.inf:
        factor = 0.5
    else:
        factor = min(max(0.9 * err ** -0.2, 0.2), 5.0)
    return min(h_try * factor, MAX_STEP)


def _advance(code, k, a, b, t, r, th, al, h, steps, target, tol, dom_lo, dom_hi, k1):
    """Trial steps from time ``t`` toward ``target`` until one is accepted or the lane halts.

    ``k1`` is the RHS at ``(r, al)``.  Each trial step of length ``h``
    lands on ``target`` if it would pass it.  Returns ``(t, r, th, al, h,
    steps, status, k1)``: ``steps`` counts the lane's trial steps against
    ``MAX_STEPS``, the status is ``STATUS_DOMAIN_EXIT`` if the accepted
    radius is within ``BOUNDARY_PAD`` of the domain boundary, and ``k1`` is
    the RHS at the returned state.  A halt before any step is accepted
    returns the state it was given.
    """
    while True:
        steps += 1
        if steps > MAX_STEPS:
            return t, r, th, al, h, steps, STATUS_MAX_STEPS, k1
        if h < _H_FLOOR * max(1.0, abs(t)):
            return t, r, th, al, h, steps, int(_floor_halt(r, dom_lo, dom_hi)), k1
        h_try = min(h, target - t)
        r5, th5, al5, err, k7 = _attempt_step(code, k, a, b, r, th, al, h_try, tol, k1)
        h = _new_h(h_try, err)
        if err <= 1.0:
            break
    if r5 <= dom_lo + BOUNDARY_PAD or r5 >= dom_hi - BOUNDARY_PAD:
        return t + h_try, r5, th5, al5, h, steps, STATUS_DOMAIN_EXIT, k7
    return t + h_try, r5, th5, al5, h, steps, STATUS_OK, k7


def _land_on(code, k, a, b, t, r, th, al, h, steps, target, tol, dom_lo, dom_hi, k1):
    """:func:`_advance` until the lane reaches ``target`` or halts, with the
    same arguments and returns; a lane already at or past ``target`` is
    returned as it was given."""
    status = STATUS_OK
    while t < target and status == STATUS_OK:
        t, r, th, al, h, steps, status, k1 = _advance(
            code, k, a, b, t, r, th, al, h, steps, target, tol, dom_lo, dom_hi, k1
        )
    return t, r, th, al, h, steps, status, k1


def rk45_trajectory(code, k, a, b, r0, th0, al0, t_final, tol, dom_lo, dom_hi, stop_at_turn=False):
    """Integrate to ``t_final`` storing every accepted step.

    Returns ``(n_stored, status, t, y)``: the times (n_stored,) and states
    (n_stored, 3) of the start and of every accepted step, the one that
    leaves the domain included.  With ``stop_at_turn`` the lane ends with
    ``STATUS_RADIAL_TURN`` after storing the first accepted step whose
    radial velocity ``cos(alpha)`` has the opposite sign to the start's;
    the steps before it do not depend on ``t_final``.
    """
    out_t = [0.0]
    out_y = [r0, th0, al0]
    t, r, th, al = 0.0, r0, th0, al0
    h = H_START
    k1 = rhs(code, k, a, b, r, al)
    radial0 = k1[0]  # cos(alpha0)
    steps = 0
    status = STATUS_OK
    while t < t_final:
        t_new, r, th, al, h, steps, status, k1 = _advance(
            code, k, a, b, t, r, th, al, h, steps, t_final, tol, dom_lo, dom_hi, k1
        )
        if t_new > t:  # a step was accepted; a halt leaves t where it was
            t = t_new
            out_t.append(t)
            out_y += (r, th, al)
            if stop_at_turn and status == STATUS_OK and radial0 * k1[0] < 0.0:
                status = STATUS_RADIAL_TURN
        if status != STATUS_OK:
            break
    return len(out_t), status, np.array(out_t), np.array(out_y).reshape(-1, 3)


def rk45_at_times(code, k, a, b, r0, th0, al0, ts, tol, dom_lo, dom_hi):
    """Integrate sampling the state at each time of the ascending array ``ts``.

    Returns ``(n_filled, status, y)``: ``y`` (len(ts), 3) holds the state at
    each time, nan in the rows past a premature halt.  A step lands on each
    time in turn.  Nothing here checks that ``ts`` ascends;
    :func:`zermelo.flow.endpoints` rejects a row that does not.
    """
    y = np.full((ts.shape[0], 3), np.nan)
    t, r, th, al, h, steps = 0.0, r0, th0, al0, H_START, 0
    k1 = rhs(code, k, a, b, r, al)
    # Python floats: a numpy scalar's ``**`` is not the C library's
    for i, target in enumerate(ts.tolist()):
        t, r, th, al, h, steps, status, k1 = _land_on(
            code, k, a, b, t, r, th, al, h, steps, target, tol, dom_lo, dom_hi, k1
        )
        if status != STATUS_OK:
            return i, status, y
        y[i] = r, th, al
    return ts.shape[0], STATUS_OK, y


def _dense_terms(y0, y5, h, k1, k3, k4, k5, k6, k7):
    """Coefficients of the Dormand-Prince continuous extension of one step.

    ``y0`` and ``y5`` are the step's start and 5th-order end, ``k1`` ...
    ``k7`` its stages (floats or arrays alike).  Hairer, Norsett & Wanner,
    *Solving ODEs I*, section II.6, in the form of their code DOPRI5.
    """
    ydiff = y5 - y0
    bspl = h * k1 - ydiff
    return (
        ydiff,
        bspl,
        ydiff - h * k7 - bspl,
        h * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6 + _D7 * k7),
    )


def _dense(y0, terms, theta):
    """The continuous extension at the fraction ``theta`` of the step."""
    c1, c2, c3, c4 = terms
    theta1 = 1.0 - theta
    return y0 + theta * (c1 + theta1 * (c2 + theta * (c3 + theta1 * c4)))


# -- the lane kernel: numpy only, the same arithmetic as the scalar step ------


def _lane_rhs(code, k, a, b, y, out):
    """:func:`rhs` of every lane of the (3, N) state ``y``, written to ``out``."""
    m, mp, mu, mup = profile_table(code, k, a, b, y[0])
    sa = np.sin(y[2])
    np.cos(y[2], out=out[0])
    np.add(mu, sa / m, out=out[1])
    np.subtract(mup * m * sa * sa, mp * sa / m, out=out[2])


def _attempt_lanes(code, k, a, b, y, h, tol, k1):
    """:func:`_attempt_step` on every lane of ``y`` (3, N) with steps ``h`` (N,).

    ``k1`` (3, N) is the RHS at ``y``.  Returns the 5th-order states (3, N),
    the error norms (N,), inf where the trial state is not finite, and the
    stages 2 to 7 (6, 3, N); the last is the RHS at the 5th-order state.
    Each entry is computed by the same operations, in the same order, as in
    :func:`_attempt_step`.
    """
    k2, k3, k4, k5, k6, k7 = stages = np.empty((6,) + y.shape)
    _lane_rhs(code, k, a, b, y + h * _A21 * k1, k2)
    _lane_rhs(code, k, a, b, y + h * (_A31 * k1 + _A32 * k2), k3)
    _lane_rhs(code, k, a, b, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3), k4)
    _lane_rhs(code, k, a, b, y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4), k5)
    _lane_rhs(
        code, k, a, b,
        y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5),
        k6,
    )
    y5 = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
    _lane_rhs(code, k, a, b, y5, k7)
    e = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
    q = np.float_power(e / (tol + tol * np.maximum(np.abs(y), np.abs(y5))), 2.0)
    err = np.sqrt((q[0] + q[1] + q[2]) / 3.0)
    err[~(np.isfinite(y5).all(axis=0) & np.isfinite(err))] = math.inf
    return y5, err, stages


def _fill_inside(row, rows, nxt, t0, h, t_new, y0, terms, out_y):
    """Fill the targets inside the accepted steps of the lanes ``rows`` from
    their continuous extensions; returns each lane's next target index.

    Each lane fills the times of the shared ascending ``row`` from ``nxt``
    on that lie before ``t_new`` and are not the row's last; one search
    finds where each lane stops.
    """
    end = np.minimum(np.searchsorted(row, t_new), row.shape[0] - 1)
    count = end - nxt
    i = np.repeat(np.arange(count.shape[0]), count)
    cols = np.arange(i.shape[0]) + (end - np.cumsum(count))[i]
    theta = (row[cols] - t0[i]) / h[i]
    out_y[rows[i], cols] = _dense(y0[:, i], [c[:, i] for c in terms], theta).T
    return end


def rk45_lanes(code, k, a, b, r0, th0, al0, ts, tol, dom_lo, dom_hi):
    """N lanes sampled at once.

    Lane ``i`` starts at ``(r0, th0, al0)`` (each a scalar or an (N,) array)
    and samples the times ``ts``: one ascending row shared by every lane,
    (1, M), or one time per lane, (N, 1).  A lane's samples do not depend
    on its batch: a lane of one time takes the steps :func:`rk45_at_times`
    gives it alone, bit for bit, and a lane of a shared row takes the steps
    of the landing rule and fills the times inside them from the continuous
    extension.  Returns ``(status, y)``: the status of each lane (N,) and
    the states (N, M, 3), nan past a lane's halt.
    """
    n_t = ts.shape[1]
    n = np.broadcast_shapes(np.shape(r0), np.shape(th0), np.shape(al0), ts.shape[:1])[0]
    ts = np.broadcast_to(ts, (n, n_t))
    status = np.full(n, STATUS_OK)
    out_y = np.full((n, n_t, 3), np.nan)
    if n_t == 0:
        return status, out_y
    # the lanes still running: their indices, their states (t, r, theta,
    # alpha, h, and the RHS at the state, the next step's first stage), their
    # next targets; every running lane has taken the same number of
    # trial steps, one per pass of the loop
    lane = np.arange(n)
    s = np.empty((8, n))
    s[0], s[1], s[2], s[3], s[4] = 0.0, r0, th0, al0, H_START
    _lane_rhs(code, k, a, b, s[1:4], s[5:8])
    nxt = np.zeros(n, dtype=np.int64)
    target = ts[:, 0].copy()
    stop = np.full(n, -1)  # the status each lane stops with in this pass; -1 runs on
    steps = 0
    # count_nonzero tests a mask in a third of the time of any() or all()
    with np.errstate(all="ignore"):
        while True:
            while True:  # fill the rows of the targets reached
                run = stop < 0
                reached = run & ~(s[0] < target)
                if not np.count_nonzero(reached):
                    break
                out_y[lane[reached], nxt[reached]] = s[1:4, reached].T
                nxt += reached
                stop[nxt == n_t] = STATUS_OK
                target = ts[lane, np.minimum(nxt, n_t - 1)]
            # the one retirement: record the statuses of the lanes that stop, drop them
            if np.count_nonzero(run) < lane.shape[0]:
                status[lane[~run]] = stop[~run]
                lane, s, nxt, stop = lane[run], s[:, run], nxt[run], stop[run]
                target = target[run]
            if not lane.shape[0] or (n_t == 1 and lane.shape[0] < TAIL_LANES):
                break

            steps += 1
            if steps > MAX_STEPS:
                stop[:] = STATUS_MAX_STEPS
                continue
            t, y, h, k1 = s[0], s[1:4], s[4], s[5:8]
            if n_t == 1:
                h_try = np.minimum(h, target - t)
            else:  # the landing rule of the shared row
                second = np.where(nxt < n_t - 1, ts[0, np.minimum(nxt + 1, n_t - 1)], math.inf)
                h_try = np.minimum(h, np.where(second - t <= h, ts[0, -1], target) - t)
            y5, err, stages = _attempt_lanes(code, k, a, b, y, h_try, tol, k1)
            ok = ~(err > 1.0)
            floor = h < _H_FLOOR * np.maximum(1.0, np.abs(t))
            if np.count_nonzero(floor):  # these lanes halt before their step, where they are
                ok[floor] = False
                stop[floor] = _floor_halt(y[0, floor], dom_lo, dom_hi)
            t_new = t + h_try
            out_of_domain = (y5[0] <= dom_lo + BOUNDARY_PAD) | (y5[0] >= dom_hi - BOUNDARY_PAD)
            if n_t > 1:  # targets of the shared row inside an accepted step that does not halt
                f = np.nonzero(ok & ~out_of_domain & (nxt < n_t - 1) & (target < t_new))[0]
                if f.shape[0]:
                    terms = _dense_terms(y[:, f], y5[:, f], h_try[f], k1[:, f], *stages[1:, :, f])
                    nxt[f] = _fill_inside(
                        ts[0], lane[f], nxt[f], t[f], h_try[f], t_new[f], y[:, f], terms, out_y
                    )
                    target[f] = ts[0, nxt[f]]
            np.copyto(t, t_new, where=ok)
            np.copyto(y, y5, where=ok)
            np.copyto(k1, stages[-1], where=ok)
            # the step size of _new_h: at err = 0 the power is inf and clips to 5
            factor = np.minimum(np.maximum(0.9 * np.float_power(err, -0.2), 0.2), 5.0)
            factor[err == math.inf] = 0.5
            np.minimum(h_try * factor, MAX_STEP, out=h)
            stop[ok & out_of_domain] = STATUS_DOMAIN_EXIT

    # the last few one-time lanes, each in the scalar stepper
    for i, column, t_end in zip(lane.tolist(), s.T.tolist(), target.tolist()):
        t, r, th, al, h, *k1 = column
        _, r, th, al, _, _, status[i], _ = _land_on(
            code, k, a, b, t, r, th, al, h, steps, t_end, tol, dom_lo, dom_hi, k1
        )
        if status[i] == STATUS_OK:
            out_y[i, 0] = r, th, al
    return status, out_y
