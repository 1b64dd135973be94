"""A stream element of `cesaro` costs integer work, not a chain of Fraction
operations.

`_seq_iter` builds a single-power tail's element from one reduced integer
pair and knows in advance from which index a general tail goes float-only
(`terms.tf_tracked_until`), so no part of `cesaro` asks `tf_value_parts`
whether a term went untracked.  `merge_weighted` finds each block start by
integer ceiling division on gamma's numerator and denominator, not by
`math.ceil` on a Fraction product.

A `ValueStream` is an iterator and every merge a generator over its input
streams: no stream carries a label, and no function but the one
round-robin (`setexpr._gen_union`), `ValueStream.take` and the divergent
bursts catches `StopIteration` by hand, so no absorb state machine or
second round-robin comes back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "setmeans"
CESARO = SRC / "cesaro.py"


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


def test_no_stream_labels():
    labelled = [
        node.name
        for node in ast.walk(_tree())
        if isinstance(node, ast.FunctionDef)
        and any(a.arg == "label" for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs)
    ]
    assert labelled == []


def _top_level_defs(tree):
    """(qualified name, node) of every module function and class method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub


def test_stop_iteration_is_caught_only_where_a_stream_may_end():
    catching = set()
    for path in sorted(SRC.glob("*.py")):
        for name, fn in _top_level_defs(ast.parse(path.read_text(), filename=str(path))):
            if any(
                isinstance(h, ast.ExceptHandler)
                and h.type is not None
                and "StopIteration" in _referenced(h.type)
                for h in ast.walk(fn)
            ):
                catching.add(f"{path.stem}.{name}")
    allowed = {"setexpr._gen_union", "cesaro.ValueStream.take", "cesaro.enumerate_divergent"}
    assert catching <= allowed, catching
