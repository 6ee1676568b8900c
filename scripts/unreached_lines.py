#!/usr/bin/env python3
"""Print each executable line of src/socketstore that no test under tests/ reaches, and a total.

Usage: python scripts/unreached_lines.py [pytest args]. The suite runs in this process under a
stdlib line tracer (code run in a subprocess is not seen), about 2.5x slower than a plain run.
Hypothesis runs at seed 0 so that counts compare between commits; `--hypothesis-seed=N` overrides.
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "socketstore"
reached = set()


def line_trace(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return line_trace


def call_trace(frame, event, arg):
    return line_trace if frame.f_code.co_filename.startswith(str(PACKAGE)) else None


def executable_lines(code):
    nested = (const for const in code.co_consts if hasattr(const, "co_lines"))
    return {line for _, _, line in code.co_lines() if line}.union(*map(executable_lines, nested))


def main():
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(call_trace)
    sys.settrace(call_trace)
    status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                          str(ROOT / "tests"), *sys.argv[1:]])
    sys.settrace(None)
    threading.settrace(None)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        missed += [f"{path.relative_to(ROOT)}:{n}: {lines[n - 1].strip()}"
                   for n in sorted(executable_lines(compile(source, str(path), "exec")))
                   if (str(path), n) not in reached]
    print(*missed, f"{len(missed)} unreached lines", sep="\n")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
