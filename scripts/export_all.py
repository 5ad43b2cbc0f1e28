#!/usr/bin/env python3
"""Export semigroups, bodies and normal fans for every shipped case study.

Writes the canonical JSON files into the chosen output directory (default
./out) for both graded-system kinds, and prints a one-line summary per
artifact.  Outputs are bit-exact across runs.
"""

import argparse
from pathlib import Path

from okbody.convex import normal_fan_rays, polytope_to_json
from okbody.okounkov import body_estimate, semigroup, semigroup_to_json
from okbody.varieties import CASE_NAMES, make_case


def export(out_dir: Path, c: int, max_level: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in CASE_NAMES:
        case = make_case(name, c)
        for kind in ("powers", "complete"):
            sg = semigroup(case, kind, max_level)
            body = body_estimate(sg)
            stem = f"{name}_c{c}_M{max_level}_{kind}"
            (out_dir / f"{stem}_semigroup.json").write_text(
                semigroup_to_json(sg), encoding="utf-8")
            (out_dir / f"{stem}_body.json").write_text(
                polytope_to_json(body), encoding="utf-8")
            rays = normal_fan_rays(body)
            print(f"{stem}: dim V_1 = {len(sg.level(1))}, "
                  f"body vertices {[tuple(map(str, v)) for v in body.vertices]}, "
                  f"fan rays {list(rays)}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out"))
    parser.add_argument("--c", type=int, default=1)
    parser.add_argument("--max-level", type=int, default=4)
    args = parser.parse_args()
    export(args.out, args.c, args.max_level)
