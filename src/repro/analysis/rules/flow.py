"""Shared machinery for the dataflow rule family.

A :class:`FlowRule` checks one target file at a time against solved
CFG states and (for interprocedural domains) the resolved summary
table.

The helpers here answer the one sharp question every flow rule hits:
which expressions does a CFG *element* actually evaluate?  Compound
headers must not be walked whole (an ``ast.For`` node contains its
entire body — statements that live in other blocks), and nested
``lambda``/``def`` bodies run later, under a different state.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.core import Finding, Rule
from repro.analysis.index import SourceFile, SourceIndex, dotted_parts
from repro.analysis.summaries import (
    DataflowContext,
    SummaryAnalysis,
    get_context,
)

__all__ = ["FlowRule", "calls_in", "element_exprs", "resolved_callable"]


def resolved_callable(
    file: SourceFile, call: ast.Call
) -> tuple[str | None, str | None]:
    """``(module, function)`` a call targets, resolved through the
    file's import bindings.  ``("numpy.random", "default_rng")`` for
    ``np.random.default_rng()`` under ``import numpy as np``; module is
    None for builtins/locals, function is None for non-name callees."""
    parts = dotted_parts(call.func)
    if not parts:
        return (None, None)
    binding = file.bindings.get(parts[0])
    if binding is None:
        return (None, parts[-1]) if len(parts) == 1 else (None, None)
    if binding.attr is None:
        dotted = [binding.module] + parts[1:]
    else:
        dotted = [binding.module, binding.attr] + parts[1:]
    return (".".join(dotted[:-1]), dotted[-1])


def element_exprs(element: ast.AST) -> list[ast.expr]:
    """The expressions a CFG element evaluates at its own position."""
    if isinstance(element, (ast.For, ast.AsyncFor)):
        return [element.iter]
    if isinstance(element, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in element.items]
    if isinstance(element, ast.ExceptHandler):
        return [element.type] if element.type is not None else []
    if isinstance(
        element, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        # Only decorators and defaults evaluate at the def site.
        exprs: list[ast.expr] = list(element.decorator_list)
        if hasattr(element, "args"):
            exprs += list(element.args.defaults)
            exprs += [d for d in element.args.kw_defaults if d is not None]
        return exprs
    if isinstance(element, ast.pattern):
        return []
    if isinstance(element, ast.expr):
        return [element]
    if isinstance(element, ast.stmt):
        return [
            child
            for child in ast.iter_child_nodes(element)
            if isinstance(child, ast.expr)
        ]
    return []


def calls_in(roots: Iterable[ast.AST]) -> Iterator[ast.Call]:
    """Every call evaluated under ``roots``, pruning nested function
    bodies (they execute later, under their own state)."""
    stack = list(roots)
    while stack:
        node = stack.pop()
        if isinstance(
            node,
            (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
        ):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def describe_expr(expr: ast.expr) -> str:
    """A short human label for an argument expression."""
    if isinstance(expr, ast.Name):
        return repr(expr.id)
    try:
        text = ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "expression"
    return repr(text if len(text) <= 40 else text[:37] + "...")


class FlowRule(Rule):
    """Base class for CFG/dataflow rules, checked one file at a time."""

    #: The rule's :class:`SummaryAnalysis` domain, or None for rules
    #: whose marks never cross function boundaries.
    domain: type[SummaryAnalysis] | None = None

    def check(self, index: SourceIndex) -> Iterator[Finding]:
        context = get_context(index)
        resolved: dict[str, frozenset[str]] | None = None
        if self.domain is not None:
            resolved = context.summaries(self.domain)
        for file in index.target_files():
            yield from self.check_file(index, context, file, resolved)

    def check_file(
        self,
        index: SourceIndex,
        context: DataflowContext,
        file: SourceFile,
        resolved: dict[str, frozenset[str]] | None,
    ) -> Iterator[Finding]:
        raise NotImplementedError
