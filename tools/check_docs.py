#!/usr/bin/env python3
"""Documentation lint, run by the CI docs job.

Checks:

1. over README.md / ROADMAP.md / CHANGES.md / PAPER.md and every
   markdown file under docs/: every relative markdown link [text](path)
   resolves to a file or directory in the repo (http(s)/mailto links and
   pure #anchors are skipped; #fragments on relative links are stripped
   before checking);
2. over README.md and docs/ only: every LMMIR_* environment variable a
   doc mentions actually appears somewhere in the source tree (src/,
   tests/, bench/, examples/, plus the top-level CMakeLists.txt for
   build-time LMMIR_* options), so docs cannot advertise knobs the code
   no longer reads.  CHANGES.md and ROADMAP.md are history and plans:
   they name knobs that were removed or not yet added.

Exits non-zero with one line per violation.
"""
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOC_FILES = ["README.md", "ROADMAP.md", "CHANGES.md", "PAPER.md"]
DOC_DIRS = ["docs"]
# Docs that describe the current code, held to the env-var rule.
ENV_CHECKED_FILES = {"README.md"}
ENV_CHECKED_DIRS = ("docs",)
SOURCE_DIRS = ["src", "tests", "bench", "examples"]
SOURCE_EXTS = {".cpp", ".hpp", ".h", ".cc"}
# Build-time LMMIR_* knobs (e.g. SIMD toggles) live in CMake, not C++.
SOURCE_FILES = ["CMakeLists.txt"]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
ENV_RE = re.compile(r"\bLMMIR_[A-Z][A-Z0-9_]*\b")


def doc_paths():
    for name in DOC_FILES:
        path = os.path.join(REPO, name)
        if os.path.isfile(path):
            yield path
    for d in DOC_DIRS:
        root = os.path.join(REPO, d)
        if not os.path.isdir(root):
            continue
        for dirpath, _, files in os.walk(root):
            for f in sorted(files):
                if f.endswith(".md"):
                    yield os.path.join(dirpath, f)


def source_env_vars():
    found = set()
    for d in SOURCE_DIRS:
        for dirpath, _, files in os.walk(os.path.join(REPO, d)):
            for f in files:
                if os.path.splitext(f)[1] not in SOURCE_EXTS:
                    continue
                with open(os.path.join(dirpath, f), encoding="utf-8",
                          errors="replace") as fh:
                    found.update(ENV_RE.findall(fh.read()))
    for name in SOURCE_FILES:
        path = os.path.join(REPO, name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8", errors="replace") as fh:
                found.update(ENV_RE.findall(fh.read()))
    return found


def main():
    errors = []
    known_vars = source_env_vars()

    for path in doc_paths():
        rel = os.path.relpath(path, REPO)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()

        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target))
            if not os.path.exists(resolved):
                errors.append(f"{rel}: broken relative link '{match.group(1)}'")

        if rel not in ENV_CHECKED_FILES and \
                rel.split(os.sep, 1)[0] not in ENV_CHECKED_DIRS:
            continue
        for var in sorted(set(ENV_RE.findall(text))):
            if var not in known_vars:
                errors.append(
                    f"{rel}: references {var}, which appears nowhere in "
                    f"{'/'.join(SOURCE_DIRS)}")

    if errors:
        print(f"check_docs: {len(errors)} problem(s)")
        for e in errors:
            print(f"  {e}")
        return 1
    print("check_docs: all relative links resolve and every documented "
          "LMMIR_* variable exists in the source tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
