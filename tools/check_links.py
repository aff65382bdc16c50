#!/usr/bin/env python3
"""Intra-repo Markdown link checker (stdlib only; the CI docs job).

Scans the repo's user-facing Markdown — ``README.md``, everything under
``docs/``, and ``examples/README.md`` — for links and validates the
repo-relative ones:

* inline links ``[text](target)`` and reference definitions
  ``[label]: target``;
* external schemes (``http:``, ``https:``, ``mailto:``) are skipped —
  this checker must work offline and never flake on someone else's
  uptime;
* pure in-page anchors (``#section``) are checked against the headings
  of the same file; ``path#anchor`` checks both the file and, when the
  target is Markdown, the heading;
* everything else must resolve to an existing file or directory
  relative to the Markdown file that links it.

Exit status 0 when every link resolves, 1 otherwise (one line per
broken link) — so CI fails loudly and locally you can just run::

    python tools/check_links.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` — target may carry an optional "title".  Images
#: (``![alt](target)``) match too via the optional leading ``!``.
_INLINE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: ``[label]: target`` reference-style definitions.
_REFERENCE = re.compile(r"^\[[^\]]+\]:\s*(\S+)", re.MULTILINE)
#: Fenced code blocks — links inside them are examples, not links.
_FENCE = re.compile(r"```.*?```", re.DOTALL)
_SCHEME = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")


def doc_files() -> List[Path]:
    files = [REPO_ROOT / "README.md", REPO_ROOT / "examples" / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [f for f in files if f.is_file()]


def links_in(text: str) -> Iterator[str]:
    text = _FENCE.sub("", text)
    for match in _INLINE.finditer(text):
        yield match.group(1)
    for match in _REFERENCE.finditer(text):
        yield match.group(1)


def anchors_in(path: Path) -> set:
    """GitHub-style anchors for every heading in ``path``.

    Fenced code blocks are stripped first — a ``# comment`` inside a
    shell example is not a heading, and treating it as one would let a
    broken ``#fragment`` link pass.
    """
    anchors = set()
    text = _FENCE.sub("", path.read_text(encoding="utf-8"))
    for line in text.splitlines():
        if not line.startswith("#"):
            continue
        title = line.lstrip("#").strip()
        # GitHub's rule: drop punctuation, then one dash per space
        # (``a / b`` becomes ``a--b``; runs are not collapsed).
        slug = re.sub(r"[^\w\s-]", "", title.lower())
        anchors.add(re.sub(r"\s", "-", slug))
    return anchors


def check_file(path: Path) -> List[Tuple[str, str]]:
    """Broken links in one file as ``(target, reason)`` pairs."""
    broken = []
    for target in links_in(path.read_text(encoding="utf-8")):
        if _SCHEME.match(target):
            continue  # external: out of scope by design
        base, _, fragment = target.partition("#")
        if not base:
            if fragment not in anchors_in(path):
                broken.append((target, "no such heading in this file"))
            continue
        resolved = (path.parent / base).resolve()
        if not resolved.exists():
            broken.append((target, "file does not exist"))
            continue
        if fragment and resolved.suffix == ".md":
            if fragment not in anchors_in(resolved):
                broken.append(
                    (target, f"no such heading in {base}")
                )
    return broken


def main() -> int:
    total_links = 0
    failures = 0
    for path in doc_files():
        text = path.read_text(encoding="utf-8")
        total_links += sum(1 for _ in links_in(text))
        for target, reason in check_file(path):
            failures += 1
            print(f"{path.relative_to(REPO_ROOT)}: broken link "
                  f"{target!r} ({reason})")
    checked = ", ".join(str(p.relative_to(REPO_ROOT)) for p in doc_files())
    if failures:
        print(f"\n{failures} broken link(s) across {checked}")
        return 1
    print(f"ok: {total_links} links checked across {checked}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
