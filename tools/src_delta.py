#!/usr/bin/env python3
"""Net line delta under src/ between two revisions, split by line kind.

Usage: tools/src_delta.py BASE [HEAD]

Compares BASE with HEAD (a commit), or with the working tree when HEAD is
omitted, and prints the lines added and removed under src/, split into
code, // comment and blank lines. Standard library only.
"""
import subprocess
import sys

KINDS = ("code", "comment", "blank")


def kind(line):
    text = line.strip()
    if not text:
        return "blank"
    return "comment" if text.startswith("//") else "code"


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__.strip())
    diff = subprocess.run(
        ["git", "diff", "--no-color", "--no-renames", "--unified=0",
         *argv[1:], "--", "src/"],
        check=True, capture_output=True, text=True).stdout
    added = dict.fromkeys(KINDS, 0)
    removed = dict.fromkeys(KINDS, 0)
    in_hunk = False
    for line in diff.splitlines():
        if line.startswith("diff --git"):
            in_hunk = False
        elif line.startswith("@@"):
            in_hunk = True
        elif in_hunk and line[:1] in "+-" and line:
            (added if line[0] == "+" else removed)[kind(line[1:])] += 1
    print(f"{'src/':8} {'added':>7} {'removed':>7} {'net':>7}")
    for k in KINDS + ("total",):
        a = sum(added.values()) if k == "total" else added[k]
        r = sum(removed.values()) if k == "total" else removed[k]
        print(f"{k:8} {a:7} {r:7} {a - r:+7}")


if __name__ == "__main__":
    main(sys.argv)
