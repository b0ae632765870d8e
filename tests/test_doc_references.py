"""Every ``repro.…`` name the documentation quotes must exist.

A dotted name in a Markdown code span, such as
``repro.core.sweep_anonymize``, in README.md, DESIGN.md, EXPERIMENTS.md
or ``docs/*.md`` resolves when its longest importable prefix imports and
the remaining parts are attributes of it.  A doc row left behind by a
deleted module or function fails here, naming the file and line.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]

_SPAN = re.compile(r"`([^`\n]+)`")
_NAME = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")


def references(path: Path) -> list[tuple[int, str]]:
    """``(line, dotted name)`` for every ``repro.…`` name in a code span."""
    return [
        (number, name)
        for number, line in enumerate(path.read_text().splitlines(), 1)
        for span in _SPAN.findall(line)
        for name in _NAME.findall(span)
    ]


def resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


@pytest.mark.parametrize(
    "path", DOCS, ids=lambda path: path.relative_to(ROOT).as_posix()
)
def test_quoted_names_resolve(path):
    unresolved = [
        f"{path.name}:{line}: {name}"
        for line, name in references(path) if not resolves(name)
    ]
    assert not unresolved, "\n".join(unresolved)


def test_docs_quote_the_package():
    """The scan finds references at all (a broken pattern finds none)."""
    assert sum(len(references(path)) for path in DOCS) > 100
