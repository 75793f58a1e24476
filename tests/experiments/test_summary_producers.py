"""EXPERIMENTS.md's Summary cannot lose its producers: every verdict row
cites at least one test, and every cited test exists."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def summary_rows() -> list[dict[str, str]]:
    text = (ROOT / "EXPERIMENTS.md").read_text()
    table = [
        line for line in text.split("\n## Summary", 1)[1].splitlines()
        if line.startswith("|")
    ]
    header = [cell.strip() for cell in table[0].strip("|").split("|")]
    return [
        dict(zip(header, (cell.strip() for cell in line.strip("|").split("|"))))
        for line in table[2:]
    ]


def defines(path: Path, names: list[str]) -> bool:
    """Whether the module at ``path`` defines ``Class::test``, ``Class``
    or ``test`` at top level."""
    body = ast.parse(path.read_text()).body
    for name in names:
        found = [
            node for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        ]
        if not found:
            return False
        body = found[0].body
    return True


def test_every_summary_row_cites_a_test_that_exists():
    rows = summary_rows()
    assert len(rows) >= 12
    for row in rows:
        citations = re.findall(r"`([^`]+)`", row["Produced by"])
        assert citations, f"{row['Artifact']} cites no producer"
        for citation in citations:
            path, *names = citation.split("::")
            assert path.startswith(("tests/", "benchmarks/bench_")), citation
            assert (ROOT / path).is_file() and names, citation
            assert defines(ROOT / path, names), f"{row['Artifact']}: {citation} not found"
