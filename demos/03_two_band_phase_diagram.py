"""Braid phase diagram of the two-band chain in the (beta, gamma) plane.

The braid group of two bands is Abelian, so most cells are labelled from
their discriminant winding alone; only the cells near an exceptional line,
where that winding is not well conditioned, are tracked and have their
braid word extracted. Cells that land on an exceptional point are marked
DEGENERATE. The boundaries of the classified regions trace the analytic
exceptional lines gamma = +/-(beta - alpha) and gamma = +/-(beta + alpha).

A 120 x 240 grid takes a few seconds; the acceptance suite runs the full
300 x 600 version.
"""

import time
from collections import Counter
from pathlib import Path

import numpy as np

from bloch_braids import ModelSpec, io, phase_diagram

OUT = Path("demo_output")
OUT.mkdir(exist_ok=True)

template = ModelSpec.dimer(1.0, 1.5, 0.3, 0.0, 1)
t0 = time.perf_counter()
pd = phase_diagram(template, ("beta", 0.0, 3.0, 120), ("gamma", -3.0, 3.0, 240))
print(f"classified {120 * 240} cells in {time.perf_counter() - t0:.1f} s")

counts = Counter(cell.word for row in pd.cells for cell in row)
for word, n in counts.most_common():
    print(f"   {word:10s} {n:6d} cells")

csv_path = OUT / "dimer_phase_diagram.csv"
csv_path.write_text(io.phase_diagram_to_csv(pd))
print(f"grid -> {csv_path}")

# boundary midpoints against the analytic exceptional lines
lines = (lambda b: b - 1.0, lambda b: -(b - 1.0), lambda b: b + 1.0, lambda b: -(b + 1.0))
worst = 0.0
n_pts = 0
for poly in pd.boundary_polylines():
    for beta, gamma in poly["points"]:
        worst = max(worst, min(abs(gamma - line(beta)) for line in lines))
        n_pts += 1
print(f"{n_pts} boundary midpoints; largest distance to an analytic line: {worst:.4f}")
print(f"(cell spacing: {pd.axis1.spacing:.4f} x {pd.axis2.spacing:.4f})")

sample = [(1.5, 1.0), (1.5, -0.2), (1.5, -1.0), (1.5, 2.8)]
for beta, gamma in sample:
    cell = pd.cell_at(beta, gamma)
    print(f"cell at ({beta}, {gamma:+.1f}): word={cell.word!r}, nu={cell.nu}")
