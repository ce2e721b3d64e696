"""Docs smoke checker: runnable examples + unbroken intra-repo links.

Two guarantees, enforced in CI (and in tier-1 via ``tests/test_docs.py``)
so the documentation cannot rot silently:

* every fenced ``python`` code block in the checked Markdown files
  executes without raising — blocks in one file share a namespace, in
  order, like a doctest session (``python -m doctest`` wants ``>>>``
  prompts; fenced blocks are what our docs actually use);
* every relative Markdown link ``[text](path)`` resolves to an
  existing file or directory (http(s)/mailto/anchor links are skipped);
* every ``_private`` or CamelCase identifier the prose backticks is
  still defined or used by some ``.py`` file in the repository, so a
  deleted name cannot linger in the docs.

Usage::

    python tools/check_docs.py [file.md ...]   # default: README.md,
                                               # docs/ARCHITECTURE.md,
                                               # benchmarks/README.md
"""

from __future__ import annotations

import re
import sys
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_FILES = ["README.md", "docs/ARCHITECTURE.md", "benchmarks/README.md"]

FENCE_RE = re.compile(r"^```(\w*)\s*$")
# [text](target) — excluding images' alt text is irrelevant, images count too
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_SCHEMES = ("http://", "https://", "mailto:", "#")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
# a name with a leading underscore, or one that mixes case with at least
# two capitals (``WBMConfig``, ``KernelStats``; not ``GPMA`` or ``Fig``)
NAME_RE = re.compile(r"(?<![\w.-])(_[A-Za-z]\w*|[A-Z]\w*[a-z]\w*)")


def python_blocks(text: str) -> list[tuple[int, str]]:
    """(start_line, source) for every fenced ``python`` block."""
    blocks = []
    lines = text.splitlines()
    in_block = False
    lang = ""
    start = 0
    buf: list[str] = []
    for i, line in enumerate(lines, 1):
        m = FENCE_RE.match(line.strip())
        if m and not in_block:
            in_block, lang, start, buf = True, m.group(1).lower(), i + 1, []
        elif line.strip() == "```" and in_block:
            if lang == "python":
                blocks.append((start, "\n".join(buf)))
            in_block = False
        elif in_block:
            buf.append(line)
    return blocks


def check_examples(md_path: Path) -> list[str]:
    """Execute the file's python blocks in one shared namespace."""
    errors = []
    src = str(REPO / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    namespace: dict = {"__name__": f"docs_example:{md_path.name}"}
    for start, code in python_blocks(md_path.read_text()):
        try:
            exec(compile(code, f"{md_path}:{start}", "exec"), namespace)
        except Exception:
            tb = traceback.format_exc(limit=2)
            errors.append(f"{md_path}:{start}: example block raised\n{tb}")
    return errors


def _prose_lines(md_path: Path):
    """(line number, line) outside fenced code blocks."""
    in_fence = False
    for i, line in enumerate(md_path.read_text().splitlines(), 1):
        if line.strip().startswith("```"):
            in_fence = not in_fence
        elif not in_fence:
            yield i, line


def check_links(md_path: Path) -> list[str]:
    """Every relative link must resolve from the file's directory.

    Fenced code blocks are skipped (link-shaped text in examples is
    not a document link); absolute paths resolve from the repo root.
    """
    errors = []
    for i, line in _prose_lines(md_path):
        for target in LINK_RE.findall(line):
            if target.startswith(SKIP_SCHEMES):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            base = REPO if path.startswith("/") else md_path.parent
            resolved = (base / path.lstrip("/")).resolve()
            if not resolved.exists():
                errors.append(f"{md_path}:{i}: broken link -> {target}")
    return errors


def python_names() -> set[str]:
    """Every identifier token of every ``.py`` file in the repository."""
    names: set[str] = set()
    for path in REPO.rglob("*.py"):
        if not any(part.startswith(".") for part in path.relative_to(REPO).parts):
            names.update(re.findall(r"\w+", path.read_text(errors="replace")))
    return names


def check_identifiers(md_path: Path, known: set[str] | None = None) -> list[str]:
    """Every backticked ``_private`` or CamelCase name must still occur
    in some ``.py`` file of the repository."""
    known = python_names() if known is None else known
    errors = []
    for i, line in _prose_lines(md_path):
        for span in CODE_SPAN_RE.findall(line):
            for name in NAME_RE.findall(span):
                if sum(c.isupper() for c in name) < 2 and not name.startswith("_"):
                    continue
                if name not in known:
                    errors.append(f"{md_path}:{i}: `{name}` names nothing in the code")
    return errors


def main(argv: list[str]) -> int:
    files = [Path(a) for a in argv] if argv else [REPO / f for f in DEFAULT_FILES]
    errors: list[str] = []
    known = python_names()
    for f in files:
        if not f.exists():
            errors.append(f"{f}: file does not exist")
            continue
        errors += check_links(f)
        errors += check_identifiers(f, known)
        errors += check_examples(f)
        print(f"checked {f}")
    for e in errors:
        print(f"FAIL: {e}", file=sys.stderr)
    print(f"{len(files)} file(s), {len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
