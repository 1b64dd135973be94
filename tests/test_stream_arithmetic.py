"""A stream element of `cesaro` costs integer work, not a chain of Fraction
operations.

`_seq_iter` builds a single-power tail's element from one reduced integer
pair and knows in advance from which index a general tail goes float-only
(`terms.tf_tracked_until`), so no part of `cesaro` asks `tf_value_parts`
whether a term went untracked.  `merge_weighted` finds each block start by
integer ceiling division on gamma's numerator and denominator, not by
`math.ceil` on a Fraction product.
"""

import ast
from pathlib import Path

CESARO = Path(__file__).resolve().parent.parent / "src" / "setmeans" / "cesaro.py"


def _tree():
    return ast.parse(CESARO.read_text(), filename=str(CESARO))


def _referenced(node) -> set[str]:
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_cesaro_does_not_read_value_parts():
    assert "tf_value_parts" not in _referenced(_tree())


def test_block_starts_do_not_call_ceil():
    fn = next(
        node
        for node in ast.walk(_tree())
        if isinstance(node, ast.FunctionDef) and node.name == "merge_weighted"
    )
    # the certificate `cert` is not per element and may round with math.ceil;
    # the block loop `it` may not
    it = next(node for node in ast.walk(fn) if isinstance(node, ast.FunctionDef) and node.name == "it")
    ceil_calls = [
        node
        for node in ast.walk(it)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "ceil"
    ]
    assert ceil_calls == []
