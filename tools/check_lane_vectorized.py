#!/usr/bin/env python3
"""Fail unless the CB4 production/loss lane loop is vectorized.

The lane kernel in src/chem/pl_lanes.inl only vectorizes while every lambda
it unrolls is inlined; one that stays out of line leaves a scalar call per
lane, several times slower, and the compiler says nothing. This check
recompiles the two translation units that include the kernel, with their
exact build flags plus -fopt-info-vec-optimized, and requires the kernel's
lane loop (the loop after its `#pragma GCC ivdep`) to be reported as
vectorized in each.

    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    cmake --build build --target airshed_chem
    python3 tools/check_lane_vectorized.py build

Exit status 0 when both units vectorize the loop, 1 otherwise.
"""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL = ROOT / "src" / "chem" / "pl_lanes.inl"
UNITS = ("src/chem/mechanism.cpp", "src/chem/yb_lanes_fast.cpp")


def lane_loop_line():
    """1-based line of the loop that follows the kernel's ivdep pragma."""
    lines = KERNEL.read_text().splitlines()
    pragmas = [i for i, s in enumerate(lines)
               if s.strip() == "#pragma GCC ivdep"]
    if len(pragmas) != 1:
        sys.exit(f"{KERNEL}: expected one '#pragma GCC ivdep', "
                 f"found {len(pragmas)}")
    return pragmas[0] + 2


def unit_command(entries, unit):
    for e in entries:
        if Path(e["file"]).resolve() == (ROOT / unit).resolve():
            args = e.get("arguments") or shlex.split(e["command"])
            return args, e["directory"]
    sys.exit(f"{unit}: not in compile_commands.json")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    db = Path(sys.argv[1]) / "compile_commands.json"
    if not db.is_file():
        sys.exit(f"{db} missing: configure with "
                 "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON")
    entries = json.loads(db.read_text())
    line = lane_loop_line()
    report = re.compile(
        rf"pl_lanes\.inl:{line}:\d+: optimized: loop vectorized using "
        r"(\d+) byte vectors")
    failed = False
    for unit in UNITS:
        args, cwd = unit_command(entries, unit)
        out = args.index("-o")
        args = args[:out + 1] + ["/dev/null"] + args[out + 2:]
        proc = subprocess.run(args + ["-fopt-info-vec-optimized"], cwd=cwd,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr)
            sys.exit(f"{unit}: compile failed")
        widths = sorted({int(m.group(1)) for m in report.finditer(proc.stderr)})
        if widths:
            print(f"{unit}: lane loop (pl_lanes.inl:{line}) vectorized, "
                  f"{'/'.join(map(str, widths))}-byte vectors")
        else:
            print(f"{unit}: lane loop (pl_lanes.inl:{line}) NOT vectorized")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
