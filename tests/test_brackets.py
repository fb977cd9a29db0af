"""Bracket determinants against a finite-difference oracle, plus classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zermelo import (
    ExtendedState,
    ExtremalTag,
    abnormal_headings,
    bracket_data,
    classify,
    current_norm,
    extended_rhs,
    make_historical,
    make_powerlaw,
    make_vortex,
    singular_feedback,
)

from conftest import angle_gap


# -- finite-difference Lie bracket oracle (debug-only; validates transcription) --


def _fd_jacobian(field, q, h=1e-6):
    q = np.asarray(q, dtype=float)
    jac = np.empty((3, 3))
    for j in range(3):
        dq = np.zeros(3)
        dq[j] = h
        jac[:, j] = (np.asarray(field(q + dq)) - np.asarray(field(q - dq))) / (2.0 * h)
    return jac


def _fd_bracket(v, w, q, h=1e-6):
    # convention: [V, W](q) = dV/dq * W - dW/dq * V
    jv = _fd_jacobian(v, q, h)
    jw = _fd_jacobian(w, q, h)
    return jv @ np.asarray(w(q)) - jw @ np.asarray(v(q))


def _fd_determinants(x_field, y_field, q):
    def yx(qq):
        return _fd_bracket(y_field, x_field, qq)

    yx_q = yx(q)
    yxy = _fd_bracket(yx, y_field, q, h=2e-5)
    yxx = _fd_bracket(yx, x_field, q, h=2e-5)
    d = np.linalg.det(np.column_stack([y_field(q), yx_q, yxy]))
    dp = np.linalg.det(np.column_stack([y_field(q), yx_q, yxx]))
    ds = np.linalg.det(np.column_stack([y_field(q), yx_q, x_field(q)]))
    return d, dp, ds


def _chart_fields(problem):
    """Drift and heading fields written in the problem's own chart."""
    if problem.family == "historical":

        def x_field(q):
            _, y, g = q
            return np.array([y + math.cos(g), math.sin(g), 0.0])

    else:

        def x_field(q):
            r, _, a = q
            m, _, mu, _ = problem.profile(r)
            return np.array([math.cos(a), mu + math.sin(a) / m, 0.0])

    def y_field(q):
        return np.array([0.0, 0.0, 1.0])

    return x_field, y_field


@pytest.mark.parametrize(
    "problem,states",
    [
        (make_historical(), [(0.0, 2.0, 0.4), (1.0, -1.7, 2.8), (0.3, 0.4, -1.2)]),
        (make_vortex(1.0), [(0.7, 0.1, 0.9), (1.4, -2.0, -2.1), (0.4, 0.0, 1.8)]),
        (make_powerlaw(0.8, -1.5, 0.5), [(0.9, 0.3, 0.5), (2.2, 1.0, -0.7)]),
    ],
)
def test_bracket_data_matches_fd_oracle(problem, states):
    x_field, y_field = _chart_fields(problem)
    for c1, c2, heading in states:
        state = ExtendedState(c1, c2, heading)
        data = bracket_data(problem, state)
        d, dp, ds = _fd_determinants(x_field, y_field, (c1, c2, heading))
        assert math.isclose(data.D, d, rel_tol=1e-5, abs_tol=1e-7)
        assert math.isclose(data.Dprime, dp, rel_tol=1e-4, abs_tol=1e-5)
        assert math.isclose(data.Dsecond, ds, rel_tol=1e-5, abs_tol=1e-6)


def test_bracket_values_historical(historical):
    d = bracket_data(historical, ExtendedState(0.0, 2.0, 0.0))
    assert (d.D, d.Dprime, d.Dsecond) == (1.0, 1.0, 3.0)
    d = bracket_data(historical, ExtendedState(0.0, 2.0, math.pi))
    assert math.isclose(d.Dsecond, -1.0)
    assert math.isclose(d.Dprime, 1.0)
    d = bracket_data(historical, ExtendedState(0.0, 2.0, -2.0 * math.pi / 3.0))
    assert abs(d.Dsecond) < 1e-15


def test_bracket_gamma_convention(historical):
    # in the Cartesian chart: D = 1, D' = cos^2(gamma), D'' = y cos(gamma) + 1
    rng = np.random.default_rng(7)
    for _ in range(25):
        y = rng.uniform(-3, 3)
        g = rng.uniform(-math.pi, math.pi)
        d = bracket_data(historical, ExtendedState(0.0, y, g))
        assert math.isclose(d.D, 1.0)
        assert math.isclose(d.Dprime, math.cos(g) ** 2, abs_tol=1e-14)
        assert math.isclose(d.Dsecond, y * math.cos(g) + 1.0, abs_tol=1e-14)


def test_classify_examples(historical):
    assert classify(historical, ExtendedState(0.0, 0.5, 1.234)).tag is ExtremalTag.HYPERBOLIC
    assert classify(historical, ExtendedState(0.0, 2.0, math.pi)).tag is ExtremalTag.ELLIPTIC
    state = ExtendedState(0.0, 2.0, math.acos(-0.5))
    assert classify(historical, state).tag is ExtremalTag.ABNORMAL
    with pytest.raises(ValueError):
        classify(historical, state, tol=0.0)


def test_weak_region_always_hyperbolic(historical):
    for y in (-0.9, -0.3, 0.0, 0.5, 0.99):
        for g in np.linspace(-math.pi + 1e-3, math.pi, 9):
            assert classify(historical, ExtendedState(0.0, y, g)).tag is ExtremalTag.HYPERBOLIC


@settings(max_examples=60)
@given(
    st.floats(-3.0, 3.0),
    st.floats(-math.pi, math.pi),
    st.integers(-3, 3),
)
def test_classify_invariant_under_full_turns(y, g, turns):
    problem = make_historical()
    a = classify(problem, ExtendedState(0.0, y, g)).tag
    b = classify(problem, ExtendedState(0.0, y, g + 2.0 * math.pi * turns)).tag
    assert a is b


def test_abnormal_headings_historical(historical):
    # strong current: two headings +-acos(-1/y0)
    for y0 in (1.2, 2.0, 5.0):
        expected = math.acos(-1.0 / y0)
        heads = abnormal_headings(historical, y0)
        assert len(heads) == 2
        assert angle_gap(heads[0], -expected) < 1e-12
        assert angle_gap(heads[1], expected) < 1e-12
        for h in heads:
            d = bracket_data(historical, ExtendedState(0.0, y0, h))
            assert abs(d.Dsecond) <= 1e-12
    assert abnormal_headings(historical, 0.5) == ()
    heads = abnormal_headings(historical, 1.0)
    assert len(heads) == 1
    assert angle_gap(heads[0], math.pi) < 1e-12
    heads = abnormal_headings(historical, -1.0)
    assert len(heads) == 1
    assert angle_gap(heads[0], 0.0) < 1e-12


def test_abnormal_headings_share_heading_sine(vortex2):
    # the two abnormal headings have identical sin(alpha) and opposite cos(alpha)
    for r0 in (0.5, 1.0, 1.5):
        heads = abnormal_headings(vortex2, r0)
        assert len(heads) == 2
        a1, a2 = heads
        assert math.isclose(math.sin(a1), math.sin(a2), abs_tol=1e-12)
        assert math.isclose(math.cos(a1), -math.cos(a2), abs_tol=1e-12)
        for h in heads:
            d = bracket_data(vortex2, ExtendedState(r0, 0.0, h))
            assert abs(d.Dsecond) <= 1e-12


def test_singular_feedback_examples(historical, vortex):
    assert math.isclose(singular_feedback(historical, ExtendedState(0.0, 2.0, 0.0)), -1.0)
    assert abs(singular_feedback(historical, ExtendedState(0.0, 2.0, math.pi / 2.0))) < 1e-30
    got = singular_feedback(vortex, ExtendedState(1.0, 0.0, math.pi / 2.0))
    assert math.isclose(got, -3.0)


@pytest.mark.parametrize("family", ["historical", "vortex", "powerlaw"])
def test_feedback_equals_heading_rate(family):
    # two routes to the same scalar: -D'/D and the heading component of the flow
    problem = {
        "historical": make_historical(),
        "vortex": make_vortex(1.3),
        "powerlaw": make_powerlaw(0.7, -0.5, 2.0),
    }[family]
    rng = np.random.default_rng(11)
    for _ in range(40):
        c2 = rng.uniform(-2.5, 2.5) if family == "historical" else rng.uniform(-3, 3)
        c1 = rng.uniform(-2.5, 2.5) if family == "historical" else rng.uniform(0.3, 3.0)
        state = ExtendedState(c1, c2, rng.uniform(-math.pi, math.pi))
        v = singular_feedback(problem, state)
        rate = extended_rhs(problem, state)[2]
        assert math.isclose(v, rate, rel_tol=1e-12, abs_tol=1e-13)


def test_bracket_regularity_everywhere(historical, vortex):
    # D = 1/m > 0 throughout the domain: the second-order structure never degenerates
    for y in np.linspace(-4, 4, 13):
        assert bracket_data(historical, ExtendedState(0.0, y, 0.3)).D > 0.0
    for r in np.linspace(0.1, 5.0, 13):
        assert bracket_data(vortex, ExtendedState(r, 0.0, 0.3)).D > 0.0


def test_drift_field_degenerates_exactly_on_unit_norm_set(historical):
    # the extended drift vanishes (making it dependent with the heading field)
    # exactly where the current norm is 1
    x_field, _ = _chart_fields(historical)
    for y_boundary in (1.0, -1.0):
        (tangent,) = abnormal_headings(historical, y_boundary)
        vec = x_field((0.0, y_boundary, tangent))
        assert np.linalg.norm(vec) < 1e-15
    for y_off in (0.5, 2.0, -3.0):
        norms = [
            np.linalg.norm(x_field((0.0, y_off, g)))
            for g in np.linspace(-math.pi, math.pi, 181)
        ]
        assert min(norms) > 1e-3 or abs(current_norm(historical, y_off) - 1.0) < 1e-12
