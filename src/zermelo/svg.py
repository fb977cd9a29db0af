"""Hand-emitted SVG figures.

No plotting dependency: figures are built from the same arrays that were
written to the sibling CSV, mapped into pixel space with a flipped y-axis
and fixed decimal formatting, so identical data yields identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SvgFigure"]

# figure size and inner margin, in pixels
WIDTH, HEIGHT, MARGIN = 720, 540, 24

_STYLE = """\
  polyline { fill: none; stroke-width: 1.5; }
  .abnormal { stroke: #1a9641; }
  .hyperbolic { stroke: #d7191c; }
  .elliptic { stroke: #2b83ba; stroke-dasharray: 5 3; }
  .boundary { stroke: #888888; stroke-dasharray: 2 3; stroke-width: 1; }
  .sphere { stroke: #000000; stroke-width: 2; }
  .front { stroke: #2b83ba; stroke-dasharray: 5 3; }
  .scan { stroke: #d7191c; }
  .cut { stroke: #1a9641; stroke-width: 2; }
  .marker { fill: #1a9641; stroke: none; }
  .start { fill: #000000; stroke: none; }
"""


@dataclass
class _Layer:
    kind: str  # "polyline" | "points"
    cls: str
    data: np.ndarray


class SvgFigure:
    """Collects polylines and markers in data coordinates, renders to SVG text."""

    def __init__(self):
        self._layers: list[_Layer] = []

    def polyline(self, points, cls: str) -> None:
        pts = np.asarray(points, dtype=float)
        pts = pts[np.all(np.isfinite(pts), axis=1)]
        if pts.shape[0] >= 2:
            self._layers.append(_Layer("polyline", cls, pts))

    def points(self, points, cls: str) -> None:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        pts = pts[np.all(np.isfinite(pts), axis=1)]
        if pts.shape[0] >= 1:
            self._layers.append(_Layer("points", cls, pts))

    def _bbox(self):
        stacked = np.vstack([layer.data for layer in self._layers])
        lo = stacked.min(axis=0)
        hi = stacked.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        return lo, span

    def render(self) -> str:
        if not self._layers:
            return (
                f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
                f'height="{HEIGHT}"></svg>\n'
            )
        lo, span = self._bbox()
        inner_w = WIDTH - 2 * MARGIN
        inner_h = HEIGHT - 2 * MARGIN
        scale = min(inner_w / span[0], inner_h / span[1])

        def to_px(pts: np.ndarray) -> np.ndarray:
            out = np.empty_like(pts)
            out[:, 0] = MARGIN + (pts[:, 0] - lo[0]) * scale
            out[:, 1] = HEIGHT - MARGIN - (pts[:, 1] - lo[1]) * scale
            return out

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}">',
            f"<style>\n{_STYLE}</style>",
        ]
        for layer in self._layers:
            px = to_px(layer.data)
            if layer.kind == "polyline":
                coords = " ".join(f"{p[0]:.3f},{p[1]:.3f}" for p in px)
                parts.append(f'<polyline class="{layer.cls}" points="{coords}" />')
            else:
                for p in px:
                    parts.append(
                        f'<circle class="{layer.cls}" cx="{p[0]:.3f}" cy="{p[1]:.3f}" r="3" />'
                    )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def strong_boundary_polylines(problem, bbox_lo, bbox_hi) -> list[np.ndarray]:
    """Lines where the current norm equals 1, clipped to a bounding box.

    The boundary lies at constant radii, so each level is a straight line
    across the box along the chart's radius axis; no sampling is involved.
    """
    axis = problem.radius_axis
    lines: list[np.ndarray] = []
    for level in problem.strong_boundary_radii():
        if bbox_lo[axis] - 0.2 <= level <= bbox_hi[axis] + 0.2:
            line = np.array([bbox_lo, bbox_hi], dtype=float)
            line[:, axis] = level
            lines.append(line)
    return lines
