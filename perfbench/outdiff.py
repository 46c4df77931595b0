"""List the CLI outputs that differ between two saved runs.

    python3 perfbench/run.py --workload W --seed N --save-outputs A
    (change the code)
    python3 perfbench/run.py --workload W --seed N --save-outputs B
    python3 perfbench/outdiff.py A B

Prints files present in only one directory, and for each file whose bytes
differ, the number of differing lines and the first of them. This reports;
it does not judge: last-digit drift from a changed kernel is legitimate, but
it should be stated.
"""

from __future__ import annotations

import sys
from pathlib import Path


def diff(a: Path, b: Path) -> list[str]:
    names_a = {p.name for p in a.iterdir() if p.is_file()}
    names_b = {p.name for p in b.iterdir() if p.is_file()}
    out = [f"only in {a}: {n}" for n in sorted(names_a - names_b)]
    out += [f"only in {b}: {n}" for n in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        ta, tb = (a / name).read_bytes(), (b / name).read_bytes()
        if ta == tb:
            continue
        la, lb = ta.decode().splitlines(), tb.decode().splitlines()
        changed = [i for i in range(max(len(la), len(lb)))
                   if i >= len(la) or i >= len(lb) or la[i] != lb[i]]
        first = changed[0]
        out.append(f"differs: {name}: {len(changed)} of {max(len(la), len(lb))} lines, first at "
                   f"line {first + 1}:\n  - {la[first] if first < len(la) else ''}\n"
                   f"  + {lb[first] if first < len(lb) else ''}")
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(p).is_dir() for p in args):
        print(__doc__, file=sys.stderr)
        return 1
    lines = diff(Path(args[0]), Path(args[1]))
    print("\n".join(lines) if lines else "no differences")
    return 0


if __name__ == "__main__":
    sys.exit(main())
