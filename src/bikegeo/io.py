"""CSV serialization of sampled paths and dependency-free SVG figures.

CSV schema: header ``t,fx,fy,bx,by,theta,kappa``, one row per sample,
floats in shortest round-trip decimal form (Python's repr), so equal
configurations produce byte-identical files and parsing reproduces the
stored arrays bit-exactly.  The back-track columns are derived data;
the frame length is recovered from the first row on parsing.

SVG output draws on a fixed 1200x600 canvas with an equal-aspect world
transform: front tracks in blue, back tracks in red, the directrix as a
dashed green line, frame arrows in black.
"""

import io as _io
import math

import numpy as np

from .core import SampledBikePath

CSV_HEADER = "t,fx,fy,bx,by,theta,kappa"

CANVAS_W = 1200
CANVAS_H = 600
MARGIN = 40.0

FRONT_COLOR = "#1f6fb4"
BACK_COLOR = "#d62728"
DIRECTRIX_COLOR = "#2ca02c"
FRAME_COLOR = "#111111"
SHORTCUT_COLOR = "#ff7f0e"


def path_to_csv(path):
    """Serialize a path to CSV text (shortest round-trip floats)."""
    back = path.back
    out = _io.StringIO()
    out.write(CSV_HEADER + "\n")
    for i in range(len(path)):
        row = (path.t[i], path.front[i, 0], path.front[i, 1],
               back[i, 0], back[i, 1], path.theta[i], path.kappa[i])
        out.write(",".join(repr(float(v)) for v in row) + "\n")
    return out.getvalue()


def path_from_csv(text):
    """Parse CSV text produced by :func:`path_to_csv`.

    The stored columns (t, front, theta, kappa) round-trip bit-exactly;
    the frame length comes from the first row's front/back offset and is
    exact to a few ulp.
    """
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ValueError(f"expected header '{CSV_HEADER}'")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if data.ndim != 2 or data.shape[1] != 7:
        raise ValueError("each row must have 7 columns")
    t = data[:, 0]
    front = data[:, 1:3]
    back = data[:, 3:5]
    theta = data[:, 5]
    kappa = data[:, 6]
    ell = float(np.hypot(front[0, 0] - back[0, 0], front[0, 1] - back[0, 1]))
    return SampledBikePath(t, front, theta, kappa, ell)


def write_path_csv(path, filename):
    with open(filename, "w", newline="") as f:
        f.write(path_to_csv(path))


def read_path_csv(filename):
    with open(filename) as f:
        return path_from_csv(f.read())


class SvgScene:
    """Accumulates world-coordinate drawing elements, then renders an
    SVG with an equal-aspect fit onto the fixed canvas."""

    def __init__(self):
        self._elements = []
        self._points = []

    def _track_points(self, pts):
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        if pts.size:
            self._points.append(pts)

    #: polylines are decimated to this many points; far below canvas
    #: resolution there is nothing to gain from denser sampling
    MAX_POLYLINE_POINTS = 2000

    def polyline(self, pts, color, width=2.0, dash=None, opacity=1.0):
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        if pts.shape[0] > self.MAX_POLYLINE_POINTS:
            idx = np.linspace(0, pts.shape[0] - 1, self.MAX_POLYLINE_POINTS)
            pts = pts[np.round(idx).astype(int)]
        self._track_points(pts)
        self._elements.append(("polyline", pts, color, width, dash, opacity))

    def segment(self, p0, p1, color, width=2.0, dash=None):
        self.polyline(np.array([p0, p1]), color, width, dash)

    def arrow(self, base, tip, color=FRAME_COLOR, width=2.0):
        base = np.asarray(base, dtype=float)
        tip = np.asarray(tip, dtype=float)
        self._track_points(np.stack([base, tip]))
        self._elements.append(("arrow", np.stack([base, tip]), color, width, None, 1.0))

    def _transform(self):
        if not self._points:
            return lambda p: p, 1.0
        allpts = np.concatenate(self._points, axis=0)
        lo = allpts.min(axis=0)
        hi = allpts.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        sx = (CANVAS_W - 2 * MARGIN) / span[0]
        sy = (CANVAS_H - 2 * MARGIN) / span[1]
        s = min(sx, sy)
        mid = 0.5 * (lo + hi)
        center = np.array([CANVAS_W / 2.0, CANVAS_H / 2.0])

        def world_to_screen(p):
            p = np.asarray(p, dtype=float)
            q = (p - mid) * s
            # flip y: SVG grows downward
            return np.stack([center[0] + q[..., 0], center[1] - q[..., 1]], axis=-1)

        return world_to_screen, s

    @staticmethod
    def _fmt(x):
        return f"{x:.3f}"

    def render(self):
        to_screen, _scale = self._transform()
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" '
            f'height="{CANVAS_H}" viewBox="0 0 {CANVAS_W} {CANVAS_H}">',
            f'<rect width="{CANVAS_W}" height="{CANVAS_H}" fill="white"/>',
        ]
        for kind, pts, color, width, dash, opacity in self._elements:
            sp = to_screen(pts)
            if kind == "polyline":
                coords = " ".join(
                    f"{self._fmt(p[0])},{self._fmt(p[1])}" for p in sp)
                dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
                op_attr = f' stroke-opacity="{opacity:g}"' if opacity != 1.0 else ""
                parts.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" '
                    f'stroke-width="{width:g}"{dash_attr}{op_attr}/>')
            else:  # arrow: shaft plus a small head
                base, tip = sp
                d = tip - base
                n = math.hypot(d[0], d[1])
                if n < 1e-9:
                    continue
                u = d / n
                left = tip - 8.0 * u + 4.0 * np.array([-u[1], u[0]])
                right = tip - 8.0 * u - 4.0 * np.array([-u[1], u[0]])
                parts.append(
                    f'<line x1="{self._fmt(base[0])}" y1="{self._fmt(base[1])}" '
                    f'x2="{self._fmt(tip[0])}" y2="{self._fmt(tip[1])}" '
                    f'stroke="{color}" stroke-width="{width:g}"/>')
                parts.append(
                    f'<polygon points="{self._fmt(tip[0])},{self._fmt(tip[1])} '
                    f'{self._fmt(left[0])},{self._fmt(left[1])} '
                    f'{self._fmt(right[0])},{self._fmt(right[1])}" fill="{color}"/>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def path_scene(path, vertices=None, directrix_y=None, arrow_scale=1.0):
    """Standard scene for one path: front and back tracks, optional
    dashed directrix and frame arrows at the given vertices."""
    scene = SvgScene()
    if directrix_y is not None:
        x0, x1 = float(path.front[:, 0].min()), float(path.front[:, 0].max())
        pad = 0.05 * max(x1 - x0, 1.0)
        scene.segment((x0 - pad, directrix_y), (x1 + pad, directrix_y),
                      DIRECTRIX_COLOR, 1.5, dash="8 6")
    scene.polyline(path.front, FRONT_COLOR, 2.0)
    scene.polyline(path.back, BACK_COLOR, 2.0)
    if vertices is not None:
        for v in vertices:
            tip = np.asarray(v.position)
            base = tip - arrow_scale * path.ell * np.array(
                [math.cos(v.theta), math.sin(v.theta)])
            scene.arrow(base, tip)
    return scene


def shortcut_scene(geodesic, cut):
    """Shortcut race scene: the geodesic's front and faded back track,
    and the competing shortcut's front track dashed in orange."""
    scene = SvgScene()
    scene.polyline(geodesic.front, FRONT_COLOR, 2.0)
    scene.polyline(geodesic.back, BACK_COLOR, 1.0, opacity=0.6)
    scene.polyline(cut.front, SHORTCUT_COLOR, 2.0, dash="6 5")
    return scene


def write_svg(scene, filename):
    with open(filename, "w", newline="") as f:
        f.write(scene.render())
