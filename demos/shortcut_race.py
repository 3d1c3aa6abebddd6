"""Why periodic geodesics stop minimizing.

A periodic front track advances L per curvature period T with L < T.
Pinning the back wheel and spinning the frame a quarter turn, riding
straight, and spinning back joins the same two configurations with
length pi*ell + N*L, which wins for N > pi*ell / (T - L).  Only lines
and solitons (which have no curvature period: T diverges as a -> 1)
survive as global minimizers.  T - L tends to 0 only in the line limit
a -> infinity, so N* grows without bound there.

Run:  python3 demos/shortcut_race.py
"""

import os

from bikegeo import shortcut_analysis
from bikegeo.io import shortcut_scene, write_svg

OUT = os.environ.get("BIKEGEO_OUTPUT_DIR", "out")
os.makedirs(OUT, exist_ok=True)

print(f"{'a':<7}  {'T':<9}  {'L':<9}  {'N*':<4}  {'geodesic':<10}  "
      f"{'shortcut':<10}  saved")
for a in (0.2, 0.5, 0.8, 1.5, 2.0, 4.0, 100.0, 1000.0):
    report, _geodesic, _cut = shortcut_analysis(a)
    print(f"{a:<7}  {report.T:<9.4g}  {report.L:<9.4g}  {report.N_star:<4}  "
          f"{report.geodesic_length:<10.4f}  {report.shortcut_length:<10.4f}  "
          f"{report.margin:.4f}")

target = os.path.join(OUT, "shortcut_race.svg")
_report, geodesic, cut = shortcut_analysis(0.5)
write_svg(shortcut_scene(geodesic, cut), target)
print(f"\nfigure written to {target}")
