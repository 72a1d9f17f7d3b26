"""Build one Demers cartogram step by step.

Loads the bundled three-region sample, derives separation constraints,
solves the adjacent-distance LP and writes an SVG next to this script.
"""

from pathlib import Path

from demers import (
    ModelSpec,
    Setting,
    build_single_lp,
    compute_epsilon,
    decode,
    derive_constraints,
    load_map,
    load_weights,
    render_svg,
    scale_weights,
    solve_lp,
    WeightKind,
)

DATA = Path(__file__).parent.parent / "src" / "demers" / "data"
OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

map_ = load_map(DATA / "sample3.geojson")
print(f"regions: {map_.region_ids}")
print(f"adjacencies: {map_.edge_list()}")

weights = load_weights(DATA / "sample3_weights.csv", map_, WeightKind.TIME_SERIES)
table = scale_weights(weights, map_)
epsilon = compute_epsilon(table, map_)
print(f"diagonal {table.diagonal:.2f}, epsilon {epsilon:.2f}")
print("sides:", {r: round(table.side(0, r), 2) for r in map_.region_ids})

constraints = derive_constraints(map_, epsilon, Setting.WEAK)
print(f"H pairs: {sorted(constraints.H)}")
print(f"V pairs: {sorted(constraints.V)}")

model = build_single_lp(map_, table.function_sides(0), constraints, ModelSpec())
solution = solve_lp(model.problem)
print(f"solved: {solution.status.value}, objective {solution.objective:.4f} "
      f"({solution.iterations} pivots, engine {solution.engine})")

layout = decode(solution, model)[0]
for rid in layout.region_ids():
    cx, cy = layout.centers[rid]
    print(f"  {rid}: center ({cx:6.2f}, {cy:6.2f}) side {layout.sides[rid]:.2f}")

svg_path = OUT / "single_cartogram.svg"
svg_path.write_text(render_svg(layout))
print(f"wrote {svg_path}")
