#!/usr/bin/env python3
"""Checks that the documents still describe files and sections that exist.

Run from the repository root: `python3 scripts/check_docs.py`. It fails
(exit 1, one line per problem) when

* a relative link in README.md, DESIGN.md, EXPERIMENTS.md or docs/**/*.md
  names a file that does not exist;
* EXPERIMENTS.md names a docs/pr/NN.md that does not exist;
* a `DESIGN § N` citation under crates/, tests/ or examples/ names no
  `## N.` heading of DESIGN.md;
* EXPERIMENTS.md is longer than MAX_EXPERIMENTS_LINES lines: per-PR
  evidence belongs in docs/pr/NN.md, with a one-line entry in its index.
"""

import pathlib
import re
import sys

MAX_EXPERIMENTS_LINES = 700

ROOT = pathlib.Path(__file__).resolve().parent.parent
LINK = re.compile(r"\[[^\]\n]*\]\(([^)\s]+)\)")
FENCE = re.compile(r"^```.*?^```", re.M | re.S)
CODE_SPAN = re.compile(r"`[^`\n]*`")
CITATION = re.compile(r"DESIGN(?:\.md)?\s*§\s*(\d+)")


def prose(text):
    """The text outside code blocks and code spans, where links live."""
    return CODE_SPAN.sub("", FENCE.sub("", text))


def broken_links(doc):
    for target in LINK.findall(prose(doc.read_text(encoding="utf-8"))):
        if "://" in target or target.startswith(("#", "mailto:")):
            continue
        path = target.split("#", 1)[0]
        if not (doc.parent / path).exists():
            yield f"{doc.relative_to(ROOT)}: link to missing `{target}`"


def main():
    problems = []
    docs = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    docs += sorted((ROOT / "docs").glob("**/*.md"))
    for doc in docs:
        problems.extend(broken_links(doc))

    experiments = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for n in sorted(set(re.findall(r"docs/pr/(\d+)\.md", experiments)), key=int):
        if not (ROOT / "docs" / "pr" / f"{n}.md").exists():
            problems.append(f"EXPERIMENTS.md: index names missing docs/pr/{n}.md")
    lines = experiments.count("\n")
    if lines > MAX_EXPERIMENTS_LINES:
        problems.append(
            f"EXPERIMENTS.md: {lines} lines, over {MAX_EXPERIMENTS_LINES}; "
            "per-PR evidence goes in docs/pr/NN.md"
        )

    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    sections = set(re.findall(r"^## (\d+)\.", design, re.M))
    for top in ("crates", "tests", "examples"):
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file() or "target" in path.parts:
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            for n in CITATION.findall(text):
                if n not in sections:
                    problems.append(
                        f"{path.relative_to(ROOT)}: cites DESIGN § {n}, which has no heading"
                    )

    for problem in problems:
        print(problem)
    if problems:
        return 1
    print(
        f"docs: {len(docs)} documents' links resolve, EXPERIMENTS.md is "
        f"{lines} lines, every DESIGN § citation names a section"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
