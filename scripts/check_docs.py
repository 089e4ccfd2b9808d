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
  evidence belongs in docs/pr/NN.md, with a one-line entry in its index;
* .github/workflows/ci.yml does not parse as YAML (a workflow that does
  not parse runs no step, so this check cannot live inside it), or the
  PyYAML module it is read with is missing;
* a `cargo test -p PKG --test NAME` in one of its `run` steps names a
  package the workspace lacks, or a test target PKG does not have: a
  `[[test]]` of that name in PKG's Cargo.toml whose file exists, or
  PKG's own tests/NAME.rs;
* a `cargo test … --test NAME FILTER` step's FILTER is in the name of
  no `fn` of NAME's file: such a step passes while running no test.
"""

import pathlib
import re
import shlex
import sys
import tomllib

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


def packages():
    """Each workspace package's name, with its directory and manifest."""
    found = {}
    for manifest in sorted(ROOT.glob("*/*/Cargo.toml")):
        if "target" in manifest.parts:
            continue
        doc = tomllib.loads(manifest.read_text(encoding="utf-8"))
        if "package" in doc:
            found[doc["package"]["name"]] = (manifest.parent, doc)
    return found


def test_file(crate, name):
    """The source file of the package in `crate` = (directory, manifest)
    that builds test target `name`, or None when it has no such target."""
    directory, doc = crate
    for target in doc.get("test", []):
        if target.get("name") == name:
            path = directory / target.get("path", f"tests/{name}.rs")
            return path if path.exists() else None
    for path in (directory / "tests" / f"{name}.rs", directory / "tests" / name / "main.rs"):
        if path.exists():
            return path
    return None


# Options of `cargo test` that take a value: the word after one is not
# a test filter.
VALUED = {"-p", "--package", "--test", "-j", "--jobs", "-F", "--features",
          "--manifest-path", "--target-dir", "--profile", "--bin", "--example",
          "--bench", "--target", "--color", "--config", "-Z"}


def run_steps(node):
    """Every `run` string of a parsed workflow."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "run" and isinstance(value, str):
                yield value
            else:
                yield from run_steps(value)
    elif isinstance(node, list):
        for item in node:
            yield from run_steps(item)


def cargo_tests(script):
    """The (package, test, filter) triples of the `cargo test` commands
    in a run script; package is None when the command names none, filter
    when it gives none."""
    for line in script.splitlines():
        for command in re.findall(r"cargo test\b[^;&|]*", line):
            words = shlex.split(command)[2:]
            package = test = filter_ = None
            at = 0
            while at < len(words) and words[at] != "--":
                word = words[at]
                following = words[at + 1] if at + 1 < len(words) else None
                if word in ("-p", "--package"):
                    package = following
                elif word.startswith("--package="):
                    package = word.split("=", 1)[1]
                elif word == "--test":
                    test = following
                elif word.startswith("--test="):
                    test = word.split("=", 1)[1]
                elif not word.startswith("-") and filter_ is None:
                    filter_ = word
                at += 2 if word in VALUED else 1
            if test:
                yield package, test, filter_


def ci_problems(workflow):
    """What is wrong with the CI workflow file: it does not parse, or a
    test step names a test target that does not exist."""
    name = workflow.relative_to(ROOT)
    try:
        import yaml
    except ImportError:
        return [f"{name}: cannot check it: the PyYAML module (`yaml`) is not installed"]
    try:
        doc = yaml.safe_load(workflow.read_text(encoding="utf-8"))
    except yaml.YAMLError as e:
        return [f"{name}: does not parse: {' '.join(str(e).split())}"]
    problems = []
    crates = packages()
    for script in run_steps(doc):
        for package, test, filter_ in cargo_tests(script):
            if package is None:
                files = [test_file(crate, test) for crate in crates.values()]
                files = [f for f in files if f]
                if not files:
                    problems.append(f"{name}: `--test {test}`: no package has it")
            elif package not in crates:
                problems.append(f"{name}: `-p {package}`: no such package")
                continue
            else:
                files = [test_file(crates[package], test)]
                if files[0] is None:
                    problems.append(f"{name}: `-p {package} --test {test}`: {package} has no such test")
                    continue
            if filter_ and files:
                names = re.findall(r"\bfn\s+(\w+)", files[0].read_text(encoding="utf-8"))
                if not any(filter_ in n for n in names):
                    problems.append(f"{name}: `--test {test} {filter_}`: no test fn matches `{filter_}`")
    return problems


def main():
    problems = ci_problems(ROOT / ".github" / "workflows" / "ci.yml")
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
        f"{lines} lines, every DESIGN § citation names a section, and CI's "
        "workflow parses with every test it names"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
