"""Locates the checkout the benchmark runs in and imports the program from
its `src/` tree, never from an installed copy."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def use_checkout_source() -> None:
    """Put the checkout's `src/` first on the import path; exit non-zero
    when the checkout holds no program to measure."""
    package = ROOT / "src" / "socketstore" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from a full checkout")
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)


def git_commit() -> str:
    """The checked-out commit, read from `.git` without running git; a
    checkout exported without its history reports "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
