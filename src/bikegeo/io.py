"""CSV serialization of sampled paths and dependency-free SVG figures.

CSV schema: header ``t,fx,fy,bx,by,theta,kappa``, one row per sample,
each float the ``repr`` of one ``%r`` row template, so equal
configurations produce byte-identical files; NumPy's parser reads them
with ``float()``'s correctly rounded conversion, bit-exactly.  The
back-track columns are derived data; the frame length is recovered
from the first row on parsing.

Both directions stream: the writer formats ``_BLOCK_ROWS`` rows at a
time, and the reader hands NumPy the open file one line at a time, so
neither holds the text of a whole table.  Input is decoded as ASCII
and capped at ``MAX_CSV_CHARS`` bytes.

SVG output draws on a fixed 1200x600 canvas with an equal-aspect world
transform: front tracks in blue, back tracks in red, the directrix as a
dashed green line, frame arrows in black.  Its numbers come from one
``%.3f`` template per element, as the CSV rows come from one ``%r``
template.
"""

import io
import itertools
import math
import os

import numpy as np

from .core import SampledBikePath
from .integrate import MAX_STEPS

CSV_HEADER = "t,fx,fy,bx,by,theta,kappa"
_CSV_ROW = ",".join(["%r"] * 7) + "\n"
_BLOCK_ROWS = 2048  # rows formatted at a time
# one character per byte, and a byte that is not ASCII fails its own
# field; latin-1 would decode 0xA0 to a no-break space, which NumPy
# strips around a field
_DECODING = {"encoding": "ascii", "errors": "surrogateescape"}
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
_ARROW = ('<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="%s" '
          'stroke-width="%g"/>\n<polygon points="%.3f,%.3f %.3f,%.3f %.3f,%.3f" '
          'fill="%s"/>')


def _csv_blocks(path):
    """The header line, then the rows in blocks of _BLOCK_ROWS, each
    block one application of the row template."""
    yield CSV_HEADER + "\n"
    columns = (path.t, path.front, path.back, path.theta, path.kappa)
    for i in range(0, len(path), _BLOCK_ROWS):
        block = np.column_stack([c[i:i + _BLOCK_ROWS] for c in columns])
        yield (_CSV_ROW * len(block)) % tuple(block.ravel().tolist())


def path_to_csv(path):
    """Serialize a path to CSV text (shortest round-trip floats)."""
    return "".join(_csv_blocks(path))


def _too_long():
    return ValueError(f"CSV input is longer than the limit of "
                      f"{MAX_CSV_CHARS} characters")


def _is_float(cell):
    """NumPy's rule for a field: what float() accepts, without
    digit-grouping underscores.  Input is decoded as ASCII, so float()
    already refuses the escape of any other byte."""
    try:
        float(cell)
    except ValueError:
        return False
    return "_" not in cell


def _row_fault(line, n):
    cells = line.rstrip("\n").split(",")
    if len(cells) != 7:
        return f"CSV line {n} has {len(cells)} columns, expected 7"
    cell = next((c for c in cells if not _is_float(c)), line)
    return f"CSV line {n}: could not convert {cell!r} to a float"


def _parse_csv(f):
    """Parse the CSV lines of text file f, one line at a time, reading
    at most one character past MAX_CSV_CHARS.  Lines of whitespace are
    skipped; file lines count from 1 at the header."""
    left, n, line = MAX_CSV_CHARS, 0, ""

    def nonblank_lines():
        nonlocal left, n, line
        readline = f.readline
        # bounded, so that a line with no end stops past the limit too;
        # line keeps the last line read once the input ends
        while chunk := readline(left + 1):
            line = chunk
            left -= len(line)
            if left < 0:
                raise _too_long()
            n += 1
            if not line.isspace():
                yield line

    lines = nonblank_lines()
    if next(lines, "").strip() != CSV_HEADER:
        raise ValueError(f"expected header '{CSV_HEADER}'")
    n = 1  # blank lines before the header are not counted
    first = next(lines, None)
    if first is None:  # loadtxt would warn on an empty input
        raise ValueError("CSV has no samples")
    if first.count(",") != 6:  # NumPy takes its column count from it
        raise ValueError(_row_fault(first, n))
    try:
        # NumPy pulls one line at a time, so the last line read is the
        # one it refused
        data = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                          comments=None, ndmin=2)
    except ValueError:
        if left < 0:  # the size limit
            raise
        raise ValueError(_row_fault(line, n)) from None
    t, fx, fy, bx, by, theta, kappa = data.T
    ell = float(np.hypot(fx[0] - bx[0], fy[0] - by[0]))
    return SampledBikePath(t, data[:, 1:3], theta, kappa, ell)


def path_from_csv(text):
    """Parse CSV text produced by :func:`path_to_csv`.  The stored columns
    (t, front, theta, kappa) round-trip bit-exactly; the frame length,
    from the first row's front/back offset, is exact to a few ulp.  Text
    past MAX_CSV_CHARS bytes is refused like a file."""
    # not io.StringIO, which holds four bytes per character
    return _parse_csv(io.TextIOWrapper(io.BytesIO(text.encode()), **_DECODING))


def write_path_csv(path, filename):
    with open(filename, "w", newline="") as f:
        f.writelines(_csv_blocks(path))


def read_path_csv(filename):
    """A regular file past MAX_CSV_CHARS bytes is refused unread; any
    other input is parsed as it is read, to one character past the
    limit at most."""
    with open(filename, **_DECODING) as f:
        if os.fstat(f.fileno()).st_size > MAX_CSV_CHARS:
            raise _too_long()
        return _parse_csv(f)


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
        # flip y: SVG grows downward
        return lambda p: (p - mid) * (s, -s) + center

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
                coords = " ".join(["%.3f,%.3f"] * len(sp)) % tuple(sp.ravel().tolist())
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
                parts.append(_ARROW % (*base, *tip, color, width, *tip, *left,
                                       *right, color))
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
