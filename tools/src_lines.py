"""Line counts of the gwseries package: total and counted lines per file.

A counted line is non-blank and does not start with '#' once leading
whitespace is stripped; docstring lines count.

    python3 tools/src_lines.py            # counts src/gwseries
    python3 tools/src_lines.py PATH       # counts the .py files under PATH
"""

import sys
from pathlib import Path


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "gwseries"
    total = counted = 0
    print(f"{'file':<24} {'total':>6} {'counted':>8}")
    for path in sorted(root.rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        kept = sum(1 for line in lines if line.strip() and not line.lstrip().startswith("#"))
        total, counted = total + len(lines), counted + kept
        print(f"{path.relative_to(root).as_posix():<24} {len(lines):>6} {kept:>8}")
    print(f"{'all':<24} {total:>6} {counted:>8}")


if __name__ == "__main__":
    main(sys.argv[1:])
