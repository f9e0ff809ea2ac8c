"""The benchmark's span tracer (perfbench/tracing.py) wraps fockmix functions
and methods by name, and a name that is gone crashes every traced run. Read
as text, each name it wraps must resolve on its fockmix module."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = {"amplitudes", "asymptotics", "cli", "genfun", "numerics", "probabilities", "recurrences", "verify"}


def _dotted(node) -> str | None:
    """The dotted path of a Name or an Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and (base := _dotted(node.value)):
        return f"{base}.{node.attr}"
    return None


def _strings(node) -> list:
    """The str constant, or the tuple of str constants, of node, else []."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.Tuple) and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
        return [e.value for e in node.elts]
    return []


def _traced_names() -> list:
    """(holder, name) of every tuple (module, "name", ...) and
    (module.Class, ("name", ...)) in the tracer, and of every assignment to
    module.x.name, holder a dotted path that starts at a fockmix module."""
    pairs = []
    for node in ast.walk(ast.parse(TRACING.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            holder = _dotted(node.elts[0])
            if holder and holder.split(".")[0] in MODULES:
                pairs += [(holder, name) for name in _strings(node.elts[1])]
        elif isinstance(node, ast.Assign):
            targets = filter(None, map(_dotted, node.targets))
            pairs += [tuple(t.rsplit(".", 1)) for t in targets if "." in t and t.split(".")[0] in MODULES]
    return pairs


def test_every_name_the_tracer_wraps_resolves_on_fockmix():
    pairs = _traced_names()
    holders = {holder for holder, _ in pairs}
    assert {"recurrences", "recurrences.ProbabilityTable", "recurrences.ClassicalTable"} <= holders
    checks = ("bs_tilde_row", "tms_recurrence_check", "classical_recurrence_check")
    assert {("recurrences", name) for name in checks} | {("cli.table", "callback")} <= set(pairs)
    for holder, name in pairs:
        module, *path = holder.split(".")
        obj = importlib.import_module(f"fockmix.{module}")
        for attr in path:
            obj = getattr(obj, attr)
        assert callable(getattr(obj, name, None)), f"fockmix.{holder}.{name}"
