"""Why periodic geodesics stop minimizing.

A periodic front track advances L per curvature period T with L < T.
Pinning the back wheel and spinning the frame a quarter turn, riding
straight, and spinning back joins the same two configurations with
length pi*ell + N*L, which wins for N > pi*ell / (T - L).  Only lines
and solitons (which have no curvature period: T diverges as a -> 1)
survive as global minimizers.

Run:  python3 demos/shortcut_race.py
"""

import os

from bikegeo import shortcut_analysis
from bikegeo.io import shortcut_scene, write_svg

OUT = os.environ.get("BIKEGEO_OUTPUT_DIR", "out")
os.makedirs(OUT, exist_ok=True)

print("a      T         L         N*   geodesic    shortcut    saved")
for a in (0.2, 0.5, 0.8, 1.5, 2.0, 4.0):
    report, _geodesic, _cut = shortcut_analysis(a)
    print(f"{a:<5}  {report.T:<8.4f}  {report.L:<8.4f}  {report.N_star:<3}  "
          f"{report.geodesic_length:<10.4f}  {report.shortcut_length:<10.4f}  "
          f"{report.margin:.4f}")

target = os.path.join(OUT, "shortcut_race.svg")
_report, geodesic, cut = shortcut_analysis(0.5)
write_svg(shortcut_scene(geodesic, cut), target)
print(f"\nfigure written to {target}")
