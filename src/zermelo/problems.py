"""Problem families for time-minimal navigation in a rotationally symmetric current.

A problem lives on a surface of revolution with metric ``g = dr^2 + m(r)^2 dtheta^2``
in coordinates ``(r, theta)`` and carries a current ``mu(r) d/dtheta`` blowing
along the parallels.  A vehicle moves with unit own-speed relative to the
current, steered by a heading angle.  Where ``|mu(r)| m(r) > 1`` the current is
*strong*: it overpowers the vehicle and small-time controllability is lost.

Three closed families are built in:

* ``historical``   -- flat plane with a linear shear, ``m = 1``, ``mu(y) = y``.
  States read ``(x, y, gamma)`` in a Cartesian chart; the strong region is
  ``|y| > 1``.
* ``vortex``       -- flat plane around a point vortex of circulation ``k``,
  ``m(r) = r``, ``mu(r) = k / r^2`` on the punctured plane.
* ``powerlaw``     -- ``m(r) = r^b``, ``mu(r) = k r^a``; subsumes both built-ins
  up to chart relabeling and keeps the config format closed.

This is the only module that knows the families.  :func:`profile_table`
holds the profile formulas once, for :meth:`ProblemDefinition.profile` and
the integration kernels alike; the problem also gives the radii of
the strong/weak boundary and the chart map to canonical ``(r, theta, alpha)``.
Derivatives of the profiles are analytic, never finite differences:
downstream quantities (the heading feedback and the bracket determinants) are
sensitive to derivative error.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Chart",
    "DomainError",
    "ExtendedState",
    "ProblemDefinition",
    "current_norm",
    "make_historical",
    "make_powerlaw",
    "make_vortex",
    "problem_from_descriptor",
    "profile_table",
    "wrap_angle",
]

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi


class DomainError(ValueError):
    """A radius or state fell outside the open domain of a problem."""


class Chart(enum.Enum):
    """Coordinate convention used to read an :class:`ExtendedState`.

    ``POLAR`` states read ``(r, theta, alpha)`` with ``alpha`` the heading
    measured from the meridian direction.  ``HISTORICAL_CARTESIAN`` states
    read ``(x, y, gamma)`` where ``x`` runs along the current, ``y`` is the
    metric radius and ``gamma = pi/2 - alpha``.
    """

    POLAR = "polar"
    HISTORICAL_CARTESIAN = "historical-cartesian"


def wrap_angle(angle):
    """Normalize an angle (scalar or array) to the half-open interval (-pi, pi]."""
    return math.pi - (math.pi - angle) % TWO_PI


@dataclass(frozen=True)
class ExtendedState:
    """A position plus heading angle, read per the owning problem's chart.

    ``heading`` is normalized to (-pi, pi] at construction; every operation
    that produces a state re-normalizes.
    """

    c1: float
    c2: float
    heading: float

    def __post_init__(self):
        object.__setattr__(self, "c1", float(self.c1))
        object.__setattr__(self, "c2", float(self.c2))
        object.__setattr__(self, "heading", float(wrap_angle(float(self.heading))))

    @property
    def position(self) -> tuple[float, float]:
        return (self.c1, self.c2)


class _Family(NamedTuple):
    code: int  # tag of the family in profile_table and the kernels
    chart: Chart
    domain: tuple[float, float]  # open interval of the radius
    keys: tuple[str, ...]  # the keys a descriptor of the family may carry


_FAMILIES = {
    "historical": _Family(0, Chart.HISTORICAL_CARTESIAN, (-math.inf, math.inf), ("family",)),
    "vortex": _Family(1, Chart.POLAR, (0.0, math.inf), ("family", "k")),
    "powerlaw": _Family(2, Chart.POLAR, (0.0, math.inf), ("family", "k", "a", "b")),
}


def profile_table(code, k, a, b, r):
    """Return ``(m, m', mu, mu')`` for the family tagged by ``code`` at radius r.

    The one table of profile formulas, for a scalar r (the scalar stepper)
    or an array r (the lane kernel); a constant profile stays a scalar.
    """
    if code == 0:  # historical: m = 1, mu = r
        return 1.0, 0.0, r, 1.0
    if code == 1:  # vortex: m = r, mu = k / r^2
        return r, 1.0, k / (r * r), -2.0 * k / (r * r * r)
    if isinstance(r, np.ndarray):
        # numpy's own array power differs in the last bit from the C library's
        # pow, which float_power and a float's ``**`` both call; the lane and
        # scalar integrators must agree bit for bit
        pw = np.float_power
        return pw(r, b), b * pw(r, b - 1.0), k * pw(r, a), k * a * pw(r, a - 1.0)
    return r ** b, b * r ** (b - 1.0), k * r ** a, k * a * r ** (a - 1.0)


@dataclass(frozen=True)
class ProblemDefinition:
    """One family's profiles ``m`` and ``mu`` and its parameters.

    The family fixes the chart and the open ``domain`` of the radius.
    Immutable after construction; all methods are pure and accept scalars or
    numpy arrays.  :meth:`profile` raises :class:`DomainError` outside the
    open ``domain``; :meth:`swap` maps chart states to canonical ones and back.
    """

    family: str
    k: float = 1.0
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown problem family {self.family!r}")

    @property
    def code(self) -> int:
        """Integer family tag consumed by :func:`profile_table` and the kernels."""
        return _FAMILIES[self.family].code

    @property
    def chart(self) -> Chart:
        return _FAMILIES[self.family].chart

    @property
    def domain(self) -> tuple[float, float]:
        return _FAMILIES[self.family].domain

    # -- profile evaluation -------------------------------------------------

    def check_domain(self, r) -> None:
        lo, hi = self.domain
        inside = (r > lo) & (r < hi)
        if not np.all(inside):
            raise DomainError(f"radius {r!r} outside the open domain ({lo}, {hi})")

    def profile(self, r):
        """``(m, m', mu, mu')`` at radius r, from :func:`profile_table`.

        A scalar radius gives four scalars; an array gives four arrays of its
        shape, a family's constant profiles broadcast to it.
        """
        self.check_domain(r)
        values = profile_table(self.code, self.k, self.a, self.b, r)
        if isinstance(r, np.ndarray):
            return tuple(np.broadcast_to(np.asarray(v, dtype=float), r.shape) for v in values)
        return values

    def strong_boundary_radii(self) -> tuple[float, ...]:
        """Radii where ``|mu| m = 1``, the boundary of the strong-current region.

        Empty when the current norm never crosses 1 at an isolated radius
        (a power law with ``k = 0`` or ``a + b = 0``).
        """
        if self.family == "historical":
            return (-1.0, 1.0)
        if self.family == "vortex":
            return (self.k,)  # |mu| m = k / r
        if self.k == 0.0 or self.a + self.b == 0.0:
            return ()
        level = abs(1.0 / self.k) ** (1.0 / (self.a + self.b))
        return (level,) if math.isfinite(level) else ()

    # -- chart conversions --------------------------------------------------

    @property
    def radius_axis(self) -> int:
        """Index of the radius among the chart's two position coordinates."""
        return 0 if self.chart is Chart.POLAR else 1

    @property
    def heading_sign(self) -> float:
        """Chart heading rate per unit alpha rate: +1 (polar) or -1 (Cartesian)."""
        return 1.0 if self.chart is Chart.POLAR else -1.0

    def swap_heading(self, heading):
        """Chart heading <-> canonical alpha, wrapped; the map is its own inverse."""
        if self.chart is Chart.POLAR:
            return wrap_angle(heading)
        return wrap_angle(HALF_PI - heading)

    def swap(self, c1, c2, heading):
        """Chart state <-> canonical ``(r, theta, alpha)``; its own inverse.

        Works on scalars and arrays alike.  The position part is linear, so
        it maps velocities as it maps points.
        """
        if self.chart is Chart.POLAR:
            return c1, c2, self.swap_heading(heading)
        return c2, c1, self.swap_heading(heading)

    def to_canonical(self, state: ExtendedState) -> tuple[float, float, float]:
        """Read a chart state as canonical ``(r, theta, alpha)``."""
        return self.swap(state.c1, state.c2, state.heading)

    def radius_of(self, position) -> float:
        """Canonical radius coordinate of a chart position pair."""
        return float(position[self.radius_axis])


def make_historical() -> ProblemDefinition:
    """Flat plane with linear shear current: m == 1, mu(y) = y, states (x, y, gamma)."""
    return ProblemDefinition("historical")


def make_vortex(k: float) -> ProblemDefinition:
    """Point vortex of circulation k > 0 on the punctured plane: m = r, mu = k/r^2."""
    if not (isinstance(k, (int, float)) and math.isfinite(k) and k > 0.0):
        raise ValueError(f"circulation k must be a positive finite number, got {k!r}")
    return ProblemDefinition("vortex", k=float(k))


def make_powerlaw(k: float, a: float, b: float) -> ProblemDefinition:
    """Power-law family m(r) = r^b, mu(r) = k r^a on r > 0."""
    for name, value in (("k", k), ("a", a), ("b", b)):
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise ValueError(f"power-law parameter {name} must be finite, got {value!r}")
    return ProblemDefinition("powerlaw", k=float(k), a=float(a), b=float(b))


def current_norm(problem: ProblemDefinition, r):
    """Metric norm of the current at radius r, i.e. |mu(r)| * m(r).

    Values above 1 mark the strong-current region, values below 1 the weak
    one; the boundary is exactly where the drift ties the unit own-speed.
    """
    m, _, mu, _ = problem.profile(r)
    return np.abs(mu) * m


def problem_from_descriptor(descriptor: dict) -> ProblemDefinition:
    """Build a problem from the JSON descriptor consumed by the CLI.

    Accepted forms::

        {"family": "historical"}
        {"family": "vortex", "k": 2.0}
        {"family": "powerlaw", "k": 1.0, "a": 1.0, "b": 0.0}

    The format is closed: unknown keys are rejected.
    """
    if not isinstance(descriptor, dict):
        raise ValueError("problem descriptor must be a JSON object")
    family = descriptor.get("family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown problem family {family!r}")
    extra = set(descriptor) - set(_FAMILIES[family].keys)
    if extra:
        raise ValueError(f"unexpected descriptor keys for {family}: {sorted(extra)}")

    def _num(key, default=None):
        value = descriptor.get(key, default)
        if value is None:
            raise ValueError(f"descriptor for {family} requires numeric {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"descriptor key {key!r} must be a number, got {value!r}")
        return float(value)

    if family == "historical":
        return make_historical()
    if family == "vortex":
        return make_vortex(_num("k", 1.0))
    return make_powerlaw(_num("k"), _num("a"), _num("b"))
