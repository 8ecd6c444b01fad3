"""Build the tripod model, validate it, run the axiom suite, fold a ray.

Run:  python demos/tripod_walkthrough.py
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lbk import (
    BuildingGerm,
    BuildingPoint,
    build_retraction,
    equivalence_suite,
    finite_cover,
    germ_coapartment,
    global_distance,
    validate,
)
from lbk.apartment import format_point
from lbk.fixtures import lambda_tree
from lbk.modelfile import serialize_model

tripod = lambda_tree(3)
ap = tripod.apartment

print("== The model file ==")
print(serialize_model(tripod))

print("== Structural validation ==")
for line in validate(tripod).lines():
    print(" ", line)

print()
print("== Axioms and exchange conditions ==")
suite = equivalence_suite(tripod, samples=60)
for name in ("A3", "A4", "A6", "EC", "SE", "A5"):
    print(f"  {name}: {suite.reports[name].verdict}")
print("  agreement:", suite.alarms or "ok")

print()
print("== Distances fold through the branch point ==")
y = BuildingPoint(tripod.index("23"), (ap.scalar(-2),))  # ray 3, two steps out
z = BuildingPoint(tripod.index("12"), (ap.scalar(-1),))  # ray 2, one step out
print("d(ray3@2, ray2@1) =", global_distance(tripod, y, z))

print()
print("== Retraction onto chart 12 fixing the germ of ray 1 ==")
germ = BuildingGerm(tripod.index("12"), ap.fundamental_sector())
rho = build_retraction(tripod, germ, tripod.index("12"))
ry = rho.evaluate(y)
print("rho(ray3@2) lands at", format_point(ry.point), "in chart", tripod.name(ry.chart))
print("d(rho(y), rho(z)) =", ap.metric(ry.point, rho.evaluate(z).point), "<= 6")

print()
print("== Germ pairs always share a chart ==")
g2 = BuildingGerm(tripod.index("12"), ap.sector(ap.origin(), ap.roots.simple(1)))
g3 = BuildingGerm(tripod.index("13"), ap.sector(ap.origin(), ap.roots.simple(1)))
found = germ_coapartment(tripod, g2, g3)
print("germs toward ends 2 and 3 live together in chart", tripod.name(found.chart))
print("gallery length there:", found.final_length, " class distance bound:", found.initial_length)

print()
print("== Finite cover of chart 23 by pieces co-charted with the ray-1 germ ==")
cover = finite_cover(tripod, germ, tripod.index("23"))
for region, chart in cover.pieces:
    senses = ["(root a1) " + (">= " if h.sense == 1 else "<= ") + str(h.bound) for h in region.halves]
    print("  piece", senses or ["whole chart"], "shares chart", tripod.name(chart), "with the germ")
print("cover verdict:", cover.verdict)
