"""The strong/weak boundary lines drawn under every figure."""

import numpy as np
import pytest

from zermelo import current_norm, make_historical, make_powerlaw, make_vortex
from zermelo.svg import strong_boundary_polylines


@pytest.mark.parametrize(
    "problem,n_lines",
    [
        (make_historical(), 2),
        (make_vortex(2.0), 1),
        (make_powerlaw(1.0, -3.0, 1.0), 1),
        (make_powerlaw(2.0, -2.0, 1.0), 1),
    ],
)
def test_boundary_lines_sit_on_unit_current_norm(problem, n_lines):
    lines = strong_boundary_polylines(problem, (0.1, -2.0), (3.0, 2.0))
    assert len(lines) == n_lines
    for line in lines:
        assert line.shape == (2, 2)
        if problem.family == "historical":  # constant y: horizontal
            level = line[0, 1]
            assert line[1, 1] == level and line[0, 0] < line[1, 0]
        else:  # constant r: vertical
            level = line[0, 0]
            assert line[1, 0] == level and line[0, 1] < line[1, 1]
        assert abs(float(current_norm(problem, level)) - 1.0) <= 1e-12


def test_boundary_levels_outside_the_padded_box_are_dropped():
    historical = make_historical()
    assert strong_boundary_polylines(historical, (0.0, 1.3), (1.0, 3.0)) == []
    (line,) = strong_boundary_polylines(historical, (0.0, 1.1), (1.0, 3.0))
    assert line[0, 1] == 1.0
    vortex = make_vortex(2.0)  # boundary at r = 2
    assert strong_boundary_polylines(vortex, (0.1, -1.0), (1.7, 1.0)) == []
    assert strong_boundary_polylines(vortex, (2.3, -1.0), (3.0, 1.0)) == []


@pytest.mark.parametrize("k,a,b", [(1.0, -1.0, 1.0), (0.0, 1.0, 1.0), (0.0, -3.0, 1.0)])
def test_powerlaw_without_isolated_boundary_draws_no_line(k, a, b):
    # a + b = 0 makes the current norm constant; k = 0 makes it vanish
    problem = make_powerlaw(k, a, b)
    assert strong_boundary_polylines(problem, (0.1, -2.0), (3.0, 2.0)) == []
