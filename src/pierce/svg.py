"""Flat SVG rendering of an instance and an optional transversal.

Pure string assembly, one path per body and one marker per transversal
point, with the reference circle drawn underneath.  Coordinates are flipped
manually so the figure keeps the usual math orientation.
"""

from __future__ import annotations

from .instances import Instance

BODY_FILLS = (
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#b07aa1",
    "#76b7b2",
    "#edc948",
    "#9c755f",
)
SIZE = 480  # side of the square canvas, in px


def _fmt(v: float) -> str:
    return f"{v:.4f}".rstrip("0").rstrip(".")


def render_svg(instance: Instance, transversal=None) -> str:
    """Standalone SVG document for the instance, string-built."""
    bodies = instance.bodies
    curve = instance.curve
    xs = [float(v[0]) for b in bodies for v in b.vertices]
    ys = [float(v[1]) for b in bodies for v in b.vertices]
    cx, cy = curve.center
    xs += [cx - curve.radius, cx + curve.radius]
    ys += [cy - curve.radius, cy + curve.radius]
    pts = list(transversal or [])
    xs += [float(p[0]) for p in pts]
    ys += [float(p[1]) for p in pts]

    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    pad = 0.06 * span
    scale = SIZE / (span + 2 * pad)

    def sx(x: float) -> str:
        return _fmt((x - lo_x + pad) * scale)

    def sy(y: float) -> str:
        return _fmt(SIZE - (y - lo_y + pad) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="#fdfdfb"/>',
        f'<circle class="curve" cx="{sx(cx)}" cy="{sy(cy)}" '
        f'r="{_fmt(curve.radius * scale)}" fill="none" stroke="#999999" '
        f'stroke-width="1" stroke-dasharray="5 4"/>',
    ]
    for k, body in enumerate(bodies):
        fill = BODY_FILLS[k % len(BODY_FILLS)]
        coords = " L ".join(f"{sx(float(x))} {sy(float(y))}" for x, y in body.vertices)
        parts.append(
            f'<path class="body" d="M {coords} Z" fill="{fill}" '
            f'fill-opacity="0.22" stroke="{fill}" stroke-width="1.2"/>'
        )
    for x, y in pts:
        parts.append(
            f'<circle class="transversal" cx="{sx(float(x))}" cy="{sy(float(y))}" '
            f'r="4.5" fill="#1b1b1b" stroke="#ffffff" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
