"""CSV serialization of sampled paths and dependency-free SVG figures.

CSV schema: header ``t,fx,fy,bx,by,theta,kappa``, one row per sample,
each float the ``repr`` of one ``%r`` row template, so equal
configurations produce byte-identical files; NumPy's parser reads them
with ``float()``'s correctly rounded conversion, bit-exactly.  The
back-track columns are derived data; the frame length is recovered
from the first row on parsing.

SVG output draws on a fixed 1200x600 canvas with an equal-aspect world
transform: front tracks in blue, back tracks in red, the directrix as a
dashed green line, frame arrows in black.
"""

import io
import math
import os

import numpy as np

from .core import SampledBikePath
from .integrate import MAX_STEPS

CSV_HEADER = "t,fx,fy,bx,by,theta,kappa"
_CSV_ROW = ",".join(["%r"] * 7) + "\n"
# room for MAX_STEPS + 1 rows, the samples of one step budget, each of
# seven reprs of at most 24 characters, six commas and a newline
MAX_CSV_CHARS = len(CSV_HEADER) + 1 + (MAX_STEPS + 1) * 175

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
    table = np.column_stack((path.t, path.front, path.back, path.theta,
                             path.kappa))
    return (CSV_HEADER + "\n"
            + (_CSV_ROW * len(table)) % tuple(table.ravel().tolist()))


def path_from_csv(text):
    """Parse CSV text produced by :func:`path_to_csv`.  The stored columns
    (t, front, theta, kappa) round-trip bit-exactly; the frame length,
    from the first row's front/back offset, is exact to a few ulp."""
    header, _, body = text.strip().partition("\n")
    if header.strip() != CSV_HEADER:
        raise ValueError(f"expected header '{CSV_HEADER}'")
    if not body:
        raise ValueError("CSV has no samples")
    try:
        # bytes, not io.StringIO, which holds four bytes per character; a
        # non-ASCII byte can only make its field fail to parse
        data = np.loadtxt(io.BytesIO(body.encode()), delimiter=",",
                          comments=None, ndmin=2, encoding="latin-1")
        t, fx, fy, bx, by, theta, kappa = data.T  # ValueError unless 7 columns
    except ValueError:
        for n, line in enumerate(body.split("\n"), 2):
            if line.rstrip("\r") and line.count(",") != 6:
                raise ValueError(f"CSV line {n} has {line.count(',') + 1} "
                                 "columns, expected 7") from None
        raise  # every row has 7 fields: a field is not a float
    ell = float(np.hypot(fx[0] - bx[0], fy[0] - by[0]))
    return SampledBikePath(t, data[:, 1:3], theta, kappa, ell)


def write_path_csv(path, filename):
    with open(filename, "w", newline="") as f:
        f.write(path_to_csv(path))


def read_path_csv(filename):
    """A regular file past MAX_CSV_CHARS is refused unread; a pipe or
    device (size 0) is read to one character past the limit at most."""
    with open(filename) as f:
        too_long = os.fstat(f.fileno()).st_size > MAX_CSV_CHARS
        text = "" if too_long else f.read(MAX_CSV_CHARS + 1)
    if too_long or len(text) > MAX_CSV_CHARS:
        raise ValueError(f"CSV input is longer than the limit of "
                         f"{MAX_CSV_CHARS} characters")
    return path_from_csv(text)


class SvgScene:
    """Accumulates world-coordinate drawing elements, then renders an
    SVG with an equal-aspect fit onto the fixed canvas."""

    def __init__(self):
        self._elements = []

    #: polylines are decimated to this many points; far below canvas
    #: resolution there is nothing to gain from denser sampling
    MAX_POLYLINE_POINTS = 2000

    def polyline(self, pts, color, width=2.0, dash=None, opacity=1.0):
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        if pts.shape[0] > self.MAX_POLYLINE_POINTS:
            idx = np.linspace(0, pts.shape[0] - 1, self.MAX_POLYLINE_POINTS)
            pts = pts[np.round(idx).astype(int)]
        self._elements.append(("polyline", pts, color, width, dash, opacity))

    def arrow(self, base, tip):
        """Frame arrow from base to tip, in FRAME_COLOR at width 2."""
        pts = np.stack([np.asarray(base, dtype=float), np.asarray(tip, dtype=float)])
        self._elements.append(("arrow", pts, FRAME_COLOR, 2.0, None, 1.0))

    def _transform(self):
        """World-to-screen map fitting every element onto the canvas."""
        pts = [e[1] for e in self._elements if e[1].size]
        if not pts:
            return lambda p: p
        allpts = np.concatenate(pts, axis=0)
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

        return world_to_screen

    @staticmethod
    def _fmt(x):
        return f"{x:.3f}"

    def render(self):
        to_screen = self._transform()
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


def path_scene(path):
    """Standard scene for one path: its front and back tracks.  The
    ``fig-geod`` preset adds the directrix and frame arrows."""
    scene = SvgScene()
    scene.polyline(path.front, FRONT_COLOR, 2.0)
    scene.polyline(path.back, BACK_COLOR, 2.0)
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
