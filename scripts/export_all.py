#!/usr/bin/env python3
"""Export semigroups, bodies and normal fans for every shipped case study.

Runs ``okbody compute`` and ``okbody export-toric`` for each case, so the
canonical JSON files of the complete graded system land in the chosen output
directory (default ./out) under the CLI's own names.  Outputs are bit-exact
across runs.  Exits 1 when any command fails.
"""

import argparse
import sys
from pathlib import Path

from okbody.cli import main
from okbody.varieties import CASE_NAMES


def export(out_dir: Path, c: int, max_level: int) -> bool:
    """True when both commands succeed for every case."""
    ok = True
    for name in CASE_NAMES:
        options = ["--case", name, "--c", str(c), "--max-level",
                   str(max_level), "--out", str(out_dir)]
        for command in ("compute", "export-toric"):
            ok = main([command, *options]) == 0 and ok
    return ok


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out"))
    parser.add_argument("--c", type=int, default=1)
    parser.add_argument("--max-level", type=int, default=4)
    args = parser.parse_args()
    sys.exit(0 if export(args.out, args.c, args.max_level) else 1)
