"""Docs smoke: runnable fenced examples + unbroken intra-repo links.

Runs the same checks CI's docs-smoke step runs (``tools/check_docs.py``)
so a broken README/ARCHITECTURE example or a dangling link fails
tier-1 locally, not just in CI.
"""

import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_docs  # noqa: E402

DOCS = [REPO / f for f in check_docs.DEFAULT_FILES]


@pytest.mark.parametrize("md", DOCS, ids=[f.name for f in DOCS])
def test_doc_exists(md):
    assert md.exists(), f"{md} is referenced by the docs smoke but missing"


@pytest.mark.parametrize("md", DOCS, ids=[f.name for f in DOCS])
def test_intra_repo_links_resolve(md):
    assert check_docs.check_links(md) == []


@pytest.mark.parametrize("md", DOCS, ids=[f.name for f in DOCS])
def test_python_examples_run(md):
    assert check_docs.check_examples(md) == []


def test_readme_links_new_docs():
    text = (REPO / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in text
    assert "benchmarks/README.md" in text


@pytest.mark.parametrize("md", DOCS, ids=[f.name for f in DOCS])
def test_backticked_names_exist_in_code(md):
    assert check_docs.check_identifiers(md) == []


def test_deleted_name_is_caught(tmp_path):
    # spelled in pieces, so this file does not define the missing names
    private, camel, fenced = "_No" + "SuchHelper", "Gone" + "Engine", "_fenced" + "_only"
    md = tmp_path / "doc.md"
    md.write_text(
        f"Uses `QueryRuntime` and `_narrow_level`, not `{private}` or `{camel}.run`."
        f"\n\n```python\n{fenced} = 1\n```\n"
    )
    errors = check_docs.check_identifiers(md)
    assert len(errors) == 2
    assert private in errors[0] and camel in errors[1]
