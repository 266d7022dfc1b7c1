"""Map the stability region in the (field angle, E1) plane.

For |H| = |Hv| = 1 the instability threshold is E1^2 > 1 - |cos(alpha)|,
with alpha the angle between the two fields; this demo runs the ``sweep``
command over the plane, which writes the plot-ready CSV, and prints an
ASCII map drawn from that CSV.
Run: python demos/03_stability_map.py [out.csv]
"""

import csv
import math
import sys
import tempfile
from pathlib import Path

from pvstab.cli import main as pvstab

N_ALPHA, N_E1 = 61, 25
SCENARIO = f"""[state]
H2 = 1
Hv2 = 1

[sweep]
parameter = angle_alpha
min = 0
max = {math.pi!r}
steps = {N_ALPHA}

[sweep]
parameter = E1
min = 0
max = 1.2
steps = {N_E1}
"""


def main():
    out_path = sys.argv[1] if len(sys.argv) > 1 else "stability_map.csv"
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "stability_map.scn"
        scenario.write_text(SCENARIO, encoding="utf-8")
        code = pvstab(["sweep", str(scenario), "--out", out_path])
    if code:
        sys.exit(code)
    with open(out_path, encoding="utf-8", newline="") as fh:
        fh.readline()       # the "# pvstab-csv v1" line
        rows = list(csv.DictReader(fh))
    # in index order: the E1 axis varies fastest
    e1s = [float(row["sweep_E1"]) for row in rows[:N_E1]]

    print("stability map, |H| = |Hv| = 1  ('#' unstable, '.' neutral, 'T' band)")
    print("E1")
    for j in reversed(range(N_E1)):
        cells = []
        for row in rows[j::N_E1]:
            v = row["verdict"]
            cells.append("#" if v == "ViolentlyUnstable"
                         else "T" if v.startswith("Transitional") else ".")
        print(f"{e1s[j]:5.2f} {''.join(cells)}")
    print("      " + "0" + " " * (N_ALPHA // 2 - 2) + "pi/2" + " "
          * (N_ALPHA // 2 - 4) + "pi  (alpha)")
    print()
    print("analytic boundary: E1 = sqrt(1 - |cos alpha|); "
          f"full grid written to {out_path}")


if __name__ == "__main__":
    main()
