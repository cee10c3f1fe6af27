"""No module of the package but `model.py` reads a model's pairs other
than through its pair axis: not the `controls` view, which the model
rebuilds from its stored arrays on each read, nor a `pairs` or
`pair_slices` attribute.  Every other module reads the pair arrays the
model stores or derives (`pair_starts`, `pair_state`, `pair_counts()`,
`pair_costs`, `pair_probs`, `control_names`), so the stored form can
change inside `model.py` alone.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "totaldp"
STORED = {"controls", "pairs", "pair_slices"}
MODULES = {p.name: p for p in sorted(PACKAGE.glob("*.py")) if p.name != "model.py"}


def layout_reads(source: str) -> list[str]:
    """Every read of a STORED attribute, as "line N: .name"."""
    reads = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Attribute) and node.attr in STORED]
    return [f"line {node.lineno}: .{node.attr}"
            for node in sorted(reads, key=lambda node: (node.lineno, node.col_offset))]


def test_detects_a_layout_read():
    assert layout_reads("n = len(model.controls[0])\nm.pair_starts\n") == ["line 1: .controls"]
    assert layout_reads("for x, i in model.pairs:\n    q[m.pair_slices[x]]\n") == \
        ["line 1: .pairs", "line 2: .pair_slices"]


@pytest.mark.parametrize("path", MODULES.values(), ids=MODULES.keys())
def test_only_the_model_reads_its_stored_pairs(path):
    assert layout_reads(path.read_text(encoding="utf-8")) == []
