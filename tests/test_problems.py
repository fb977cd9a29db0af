import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zermelo import (
    Chart,
    DomainError,
    ExtendedState,
    ProblemDefinition,
    current_norm,
    make_historical,
    make_powerlaw,
    make_vortex,
    problem_from_descriptor,
    wrap_angle,
)


def test_historical_profiles(historical):
    assert historical.profile(2.0)[2] == 2.0
    assert historical.profile(-5.0)[0] == 1.0
    assert historical.profile(3.0)[1] == 0.0
    assert historical.profile(-7.0)[3] == 1.0
    assert historical.chart is Chart.HISTORICAL_CARTESIAN


def test_vortex_profiles(vortex):
    assert vortex.profile(2.0)[2] == 0.25
    assert vortex.profile(2.0)[0] == 2.0
    assert vortex.profile(1.0)[3] == -2.0
    assert vortex.profile(17.0)[1] == 1.0
    assert vortex.chart is Chart.POLAR


def test_family_fixes_code_chart_and_domain():
    cases = (
        (make_historical(), 0, Chart.HISTORICAL_CARTESIAN, (-math.inf, math.inf)),
        (make_vortex(2.0), 1, Chart.POLAR, (0.0, math.inf)),
        (make_powerlaw(1.0, -3.0, 1.0), 2, Chart.POLAR, (0.0, math.inf)),
    )
    for problem, code, chart, domain in cases:
        assert (problem.code, problem.chart, problem.domain) == (code, chart, domain)
    assert ProblemDefinition("vortex", k=2.0) == make_vortex(2.0)
    with pytest.raises(ValueError, match="unknown problem family"):
        ProblemDefinition("nope")


def test_vortex_rejects_bad_circulation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            make_vortex(bad)


def test_powerlaw_subsumes_builtins(vortex, powerlaw_historical_twin):
    r = np.linspace(0.2, 4.0, 17)
    twin = powerlaw_historical_twin
    assert np.allclose(twin.profile(r)[0], 1.0)
    assert np.allclose(twin.profile(r)[2], r)
    vtwin = make_powerlaw(k=1.0, a=-2.0, b=1.0)
    assert np.allclose(vtwin.profile(r)[0], vortex.profile(r)[0])
    assert np.allclose(vtwin.profile(r)[2], vortex.profile(r)[2])
    assert np.allclose(vtwin.profile(r)[3], vortex.profile(r)[3])


def test_current_norm_values(historical, vortex):
    assert current_norm(historical, 2.0) == 2.0
    assert current_norm(historical, 0.0) == 0.0
    assert current_norm(vortex, 0.5) == 2.0  # |k/r^2| * r = k/r


@given(st.floats(-50.0, 50.0))
def test_current_norm_historical_is_abs_height(y):
    assert current_norm(make_historical(), y) == abs(y)


@given(st.floats(0.01, 50.0))
def test_current_norm_vortex_is_k_over_r(r):
    assert math.isclose(current_norm(make_vortex(1.0), r), 1.0 / r, rel_tol=1e-15)


def test_domain_errors(vortex):
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            vortex.profile(bad)
    with pytest.raises(DomainError):
        current_norm(vortex, -0.5)
    # arrays are validated elementwise
    with pytest.raises(DomainError):
        vortex.profile(np.array([0.5, -0.1]))


@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_wrap_angle_range_and_period(angle):
    w = wrap_angle(angle)
    assert -math.pi < w <= math.pi
    assert math.isclose(
        math.cos(w), math.cos(angle), abs_tol=1e-9
    ) and math.isclose(math.sin(w), math.sin(angle), abs_tol=1e-9)
    assert wrap_angle(w) == w


def test_wrap_angle_boundary():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi


def test_extended_state_normalizes_heading():
    s = ExtendedState(0.0, 2.0, 7.0)
    assert -math.pi < s.heading <= math.pi
    assert math.isclose(s.heading, 7.0 - 2.0 * math.pi)


def test_chart_roundtrip(historical, vortex):
    s = ExtendedState(0.3, 2.0, -1.1)
    for problem in (historical, vortex):
        r, th, al = problem.to_canonical(s)
        back = ExtendedState(*problem.swap(r, th, al))
        assert math.isclose(back.c1, s.c1)
        assert math.isclose(back.c2, s.c2)
        assert math.isclose(back.heading, s.heading)
        h = problem.swap_heading(problem.swap_heading(-2.5))
        assert math.isclose(h, -2.5)
    # (n, 3) arrays of chart states
    rng = np.random.default_rng(3)
    states = np.column_stack(
        (rng.uniform(0.1, 3.0, 64), rng.uniform(-3.0, 3.0, 64), rng.uniform(-3.0, 3.0, 64))
    )
    for problem in (historical, vortex):
        back = np.stack(problem.swap(*problem.swap(*states.T)), axis=-1)
        assert back.shape == states.shape
        assert np.array_equal(back[:, :2], states[:, :2])
        np.testing.assert_allclose(back[:, 2], states[:, 2], rtol=0.0, atol=1e-15)
    r, theta, alpha = historical.swap(*states.T)  # (x, y, gamma) -> (y, x, pi/2 - gamma)
    assert np.array_equal(r, states[:, 1]) and np.array_equal(theta, states[:, 0])
    np.testing.assert_allclose(np.sin(alpha), np.cos(states[:, 2]), rtol=0.0, atol=1e-15)


_PROBLEMS = st.one_of(
    st.just(make_historical()),
    st.floats(0.5, 2.0).map(make_vortex),
    # |k| bounded away from 0 keeps the profiles clear of subnormal round-off
    st.tuples(
        st.floats(-3.0, 3.0).filter(lambda k: abs(k) >= 1e-3),
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0),
    ).map(
        lambda kab: make_powerlaw(*kab)
    ),
)


@given(_PROBLEMS, st.floats(0.2, 4.0))
def test_profile_derivatives_match_central_differences(problem, r):
    m, m_prime, mu, mu_prime = problem.profile(r)
    h = 1e-6 * r
    m_hi, _, mu_hi, _ = problem.profile(r + h)
    m_lo, _, mu_lo, _ = problem.profile(r - h)
    for value, slope, hi, lo in ((m, m_prime, m_hi, m_lo), (mu, mu_prime, mu_hi, mu_lo)):
        # round-off of the difference scales with |f| / r, truncation with h^2
        assert abs((hi - lo) / (2.0 * h) - slope) <= 1e-7 * (abs(value) / r + abs(slope))


@given(_PROBLEMS, st.lists(st.floats(0.2, 4.0), min_size=1, max_size=8))
def test_profile_of_array_matches_scalar_calls(problem, radii):
    r = np.array(radii)
    columns = problem.profile(r)
    for column in columns:
        assert isinstance(column, np.ndarray) and column.shape == r.shape
    for i, ri in enumerate(radii):
        np.testing.assert_allclose([c[i] for c in columns], problem.profile(ri), rtol=1e-15)
    if problem.family == "historical":  # constants broadcast to the radius shape
        assert np.array_equal(columns[0], np.ones_like(r))
        assert np.array_equal(columns[1], np.zeros_like(r))
        assert np.array_equal(columns[3], np.ones_like(r))


def test_descriptor_parsing():
    p = problem_from_descriptor({"family": "historical"})
    assert p.family == "historical"
    v = problem_from_descriptor({"family": "vortex", "k": 2})
    assert v.k == 2.0
    w = problem_from_descriptor({"family": "powerlaw", "k": 1.5, "a": -2, "b": 1})
    assert (w.k, w.a, w.b) == (1.5, -2.0, 1.0)


@pytest.mark.parametrize(
    "descriptor",
    [
        {"family": "spiral"},
        {"family": "historical", "k": 1.0},
        {"family": "vortex", "k": "two"},
        {"family": "powerlaw", "k": 1.0},
        {"family": "vortex", "k": -1.0},
        "historical",
    ],
)
def test_descriptor_rejects_malformed(descriptor):
    with pytest.raises(ValueError):
        problem_from_descriptor(descriptor)
