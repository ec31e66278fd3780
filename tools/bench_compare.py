#!/usr/bin/env python3
"""Compare two BENCH_obs.json files row by row, flagging only real changes.

Usage: tools/bench_compare.py OLD NEW

tools/bench.sh writes each benchmark as a median row plus a <name>/cv row
(the coefficient of variation of its repetitions) and, for throughput
benchmarks, a <name>/items_per_second row. A timing row is flagged only
when the relative gap between the two medians exceeds the CV measured on
either side, i.e. max(cv_old, cv_new): a smaller gap is within the noise
of the noisier run. An items_per_second row uses its benchmark's CV.
Rows without a CV (the deterministic adversary/* ratios) are flagged on
any difference. The header row (git sha, nproc, compiler, build type) is
printed for both files so a comparison across machines is visible.

Prints every flagged row and exits 1 when any row got slower (or any
deterministic row changed), 0 otherwise.
"""

import json
import sys

# Units where a larger value is better; every other timed unit is a time.
HIGHER_IS_BETTER = {"items/s"}


def load(path):
    with open(path) as f:
        rows = json.load(f)
    header = {}
    values = {}
    for row in rows:
        if row.get("name") == "header":
            header = {k: v for k, v in row.items() if k != "name"}
        elif isinstance(row.get("value"), (int, float)):
            values[row["name"]] = (float(row["value"]), row.get("unit", ""))
    return header, values


def noise(values, name):
    """The CV that governs `name`, or None for a row without repetitions."""
    base = name[: -len("/items_per_second")] if name.endswith(
        "/items_per_second") else name
    cv = values.get(base + "/cv")
    return cv[0] if cv else None


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old_header, old = load(argv[1])
    new_header, new = load(argv[2])
    print(f"old: {json.dumps(old_header, sort_keys=True)}")
    print(f"new: {json.dumps(new_header, sort_keys=True)}")

    worse = 0
    for name in sorted(old.keys() & new.keys()):
        if name.endswith("/cv"):
            continue
        (a, unit), (b, _) = old[name], new[name]
        cv_old, cv_new = noise(old, name), noise(new, name)
        if cv_old is None or cv_new is None:
            if a != b:
                worse += 1
                print(f"CHANGED  {name}: {a:g} -> {b:g} {unit}")
            continue
        if a == 0:
            continue
        gap = (b - a) / abs(a)
        bound = max(cv_old, cv_new)
        if abs(gap) <= bound:
            continue
        better = (gap > 0) == (unit in HIGHER_IS_BETTER)
        worse += 0 if better else 1
        print(f"{'better ' if better else 'WORSE  '}  {name}: {a:g} -> {b:g} "
              f"{unit} ({gap:+.1%}, noise {bound:.1%})")
    for name in sorted(new.keys() - old.keys()):
        if not name.endswith("/cv"):
            print(f"added    {name}")
    for name in sorted(old.keys() - new.keys()):
        if not name.endswith("/cv"):
            print(f"removed  {name}")
    print(f"{worse} row(s) worse or changed beyond the measured noise")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
