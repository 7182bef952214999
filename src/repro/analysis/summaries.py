"""Interprocedural function summaries over the SourceIndex call graph.

A flow-sensitive rule wants to know what a *call* returns: does
``helper()`` hand back a packed array, an unseeded entropy value?  The
answer is the callee's **summary** — the set of marks its return value
may carry — computed in two phases:

1. **Local equations** (per module): run the domain's
   :class:`SummaryAnalysis` over each function's CFG with callee
   results left *symbolic* — a call resolved to an indexed function
   contributes a ``ret:<module:qualname>`` pseudo-mark instead of real
   marks.
2. **Resolution** (whole tree): substitute the symbolic references to a
   fixpoint over the call graph.  Cycles converge because marks only
   accumulate.

:class:`DataflowContext` owns the memoized CFGs and per-domain summary
tables; one context is attached per
:class:`~repro.analysis.index.SourceIndex` so every dataflow rule in a
run shares the work.
"""

from __future__ import annotations

import ast
import weakref

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.dataflow import EMPTY_MARKS, MarkAnalysis
from repro.analysis.index import FunctionInfo, SourceFile, SourceIndex

__all__ = ["DataflowContext", "SummaryAnalysis", "get_context"]

_SYMBOLIC = "ret:"


class SummaryAnalysis(MarkAnalysis):
    """Mark analysis that resolves indexed calls through summaries.

    Subclasses are the *domains*: set ``domain_name`` and override
    :meth:`intrinsic_call_marks` (and, when the domain needs them, the
    literal/def/iteration hooks of
    :class:`~repro.analysis.dataflow.MarkAnalysis`).

    ``resolved=None`` puts the instance in *summary phase*: calls that
    resolve to indexed functions yield symbolic ``ret:`` references for
    the fixpoint.  Passing the resolved table puts it in *check phase*:
    the same calls yield the callee's final marks.
    """

    #: Key of the domain's summary table in the shared context.
    domain_name = "marks"

    def __init__(
        self,
        file: SourceFile,
        index: SourceIndex,
        resolved: dict[str, frozenset[str]] | None = None,
    ):
        self.file = file
        self.index = index
        self.resolved = resolved

    def intrinsic_call_marks(
        self, state, call: ast.Call
    ) -> frozenset[str] | None:
        """Marks produced by a known producer/sanitizer call, or None
        when the call is not intrinsic to the domain."""
        return None

    def call_marks(self, state, call: ast.Call) -> frozenset[str]:
        intrinsic = self.intrinsic_call_marks(state, call)
        if intrinsic is not None:
            return intrinsic
        infos = self.index.resolve_call(self.file, call)
        if infos:
            marks: frozenset[str] = EMPTY_MARKS
            for info in infos:
                if self.resolved is None:
                    marks |= frozenset((f"{_SYMBOLIC}{info.key}",))
                else:
                    marks |= self.resolved.get(info.key, EMPTY_MARKS)
            return marks
        if isinstance(call.func, ast.Attribute):
            # Unresolvable method call: assume the result keeps the
            # receiver's marks (payload.encode(), rows.copy(), ...).
            return self.expr_marks(state, call.func.value)
        return EMPTY_MARKS


def _function_returns(
    analysis: SummaryAnalysis, cfg: CFG
) -> frozenset[str]:
    """Marks the function's return value may carry (summary phase)."""
    returns: frozenset[str] = EMPTY_MARKS
    has_return = any(
        isinstance(node, ast.Return) and node.value is not None
        for block in cfg.blocks.values()
        for node in block.stmts
    )
    if not has_return:
        return returns
    for node, state in analysis.walk(cfg):
        if isinstance(node, ast.Return) and node.value is not None:
            returns |= analysis.expr_marks(state, node.value)
    return returns


def _resolve(local: dict[str, frozenset[str]]) -> dict[str, frozenset[str]]:
    """Substitute symbolic callee references to a fixpoint."""
    resolved = {
        key: {mark for mark in marks if not mark.startswith(_SYMBOLIC)}
        for key, marks in local.items()
    }
    deps = {
        key: [
            mark[len(_SYMBOLIC):]
            for mark in marks
            if mark.startswith(_SYMBOLIC)
        ]
        for key, marks in local.items()
    }
    changed = True
    while changed:
        changed = False
        for key, callees in deps.items():
            mine = resolved[key]
            for callee in callees:
                extra = resolved.get(callee)
                if extra and not extra <= mine:
                    mine |= extra
                    changed = True
    return {key: frozenset(marks) for key, marks in resolved.items()}


class DataflowContext:
    """Shared, memoized dataflow state for one index: CFGs and
    per-domain summary tables."""

    def __init__(self, index: SourceIndex):
        self.index = index
        self._cfgs: dict[str, CFG] = {}
        self._tables: dict[str, dict[str, frozenset[str]]] = {}

    def cfg(self, info: FunctionInfo) -> CFG:
        cfg = self._cfgs.get(info.key)
        if cfg is None:
            cfg = self._cfgs[info.key] = build_cfg(info.node)
        return cfg

    def summaries(
        self, domain: type[SummaryAnalysis]
    ) -> dict[str, frozenset[str]]:
        """The resolved summary table for ``domain`` (whole index —
        context files included, so cross-module calls resolve even
        when only a subtree is being analyzed)."""
        table = self._tables.get(domain.domain_name)
        if table is None:
            local: dict[str, frozenset[str]] = {}
            for file in self.index.files:
                analysis = domain(file, self.index, resolved=None)
                for info in file.functions.values():
                    local[info.key] = _function_returns(
                        analysis, self.cfg(info)
                    )
            table = self._tables[domain.domain_name] = _resolve(local)
        return table


_CONTEXTS: "weakref.WeakKeyDictionary[SourceIndex, DataflowContext]" = (
    weakref.WeakKeyDictionary()
)


def get_context(index: SourceIndex) -> DataflowContext:
    """The index's shared dataflow context (created on first use)."""
    context = _CONTEXTS.get(index)
    if context is None:
        context = _CONTEXTS[index] = DataflowContext(index)
    return context
