"""PACK001/PACK002 — the packed uint64 wire must not silently mix with
uint8 rows.

PR 5's hot path keeps shots bit-packed (shot-major uint64 words,
little-endian bit order) from sampler to error count.  Packed and
unpacked arrays are both plain ``np.ndarray``\\ s, so feeding one where
the other is expected fails *silently* — popcounts of uint8 rows are
valid numbers, just wrong ones.  Crossing the ``repro.gf2.bitops``
boundary therefore requires an explicit pack/unpack call.

**PACK002** is the real check: flow-sensitive provenance over each
function's CFG, following packed/unpacked marks through assignments,
branches, and function returns (interprocedural summaries).
**PACK001** remains as the fallback for what the CFG layer cannot see
— module-level statements (import-time wiring has no function CFG).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule
from repro.analysis.index import SourceFile, SourceIndex, dotted_tail
from repro.analysis.rules.flow import (
    FlowRule,
    calls_in,
    describe_expr,
    element_exprs,
)
from repro.analysis.summaries import DataflowContext, SummaryAnalysis

#: Calls whose results are packed uint64 rows.
PACKED_PRODUCERS = frozenset({
    "sample_detectors_packed", "decode_batch_packed",
    "packed_detector_samples", "pack_detector_samples",
    "pack_rows", "pack_bits", "random_packed",
    "detect_packed", "decode_packed", "packed_predictions",
})

#: Calls whose results are unpacked uint8 rows.
UNPACKED_PRODUCERS = frozenset({
    "sample_detectors", "decode_batch", "unpack_rows", "unpack_bits",
    "detect", "decode",
})

#: Functions whose array arguments must be packed (the bitops boundary
#: plus the packed decoder entries).
PACKED_CONSUMERS = frozenset({
    "decode_batch_packed", "packed_predictions", "popcount_rows", "popcount",
    "nonzero_rows_packed", "dedupe_rows_packed", "xor_rows_any",
    "nonzero_bits", "parity_words", "unpack_rows", "unpack_bits",
})

#: Functions whose array arguments must be unpacked.  The ``pack_*``
#: converters appear here on purpose: they are the *explicit* packing
#: step, so handing them an already-packed array double-packs it.
UNPACKED_CONSUMERS = frozenset({
    "decode_batch", "pack_rows", "pack_bits", "pack_detector_samples",
})


def _targets(node: ast.expr) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, (ast.Tuple, ast.List)):
        return [e.id for e in node.elts if isinstance(e, ast.Name)]
    return []


class _Provenance(ast.NodeVisitor):
    """Order-sensitive walk of one function: track names assigned from
    packed/unpacked producers and check consumer call sites."""

    def __init__(self):
        self.marks: dict[str, str] = {}
        self.violations: list[tuple[ast.Call, str, str, str]] = []

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        mark = self._call_mark(node.value)
        for target in node.targets:
            for name in _targets(target):
                if mark is None:
                    self.marks.pop(name, None)
                else:
                    self.marks[name] = mark

    def _call_mark(self, value: ast.expr) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        tail = dotted_tail(value.func)
        if tail in PACKED_PRODUCERS:
            return "packed"
        if tail in UNPACKED_PRODUCERS:
            return "unpacked"
        return None

    # Nested defs are indexed as their own functions — do not walk
    # into them here or their violations would double-report.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        tail = dotted_tail(node.func)
        expected = (
            "packed" if tail in PACKED_CONSUMERS
            else "unpacked" if tail in UNPACKED_CONSUMERS
            else None
        )
        if expected is None:
            return
        for arg in node.args:
            if isinstance(arg, ast.Name):
                mark = self.marks.get(arg.id)
                if mark is not None and mark != expected:
                    self.violations.append((node, arg.id, mark, tail))


_CONVERSION_HINT = (
    "convert explicitly at the boundary "
    "(gf2.bitops.pack_rows/unpack_rows or "
    "backends.pack_detector_samples) or use the "
    "matching-domain API"
)


class PackedWireRule(Rule):
    """PACK001: packed/unpacked crossings in module-level statements.

    Function bodies are covered flow-sensitively by PACK002; this rule
    keeps watching the one place a CFG does not exist — import-time
    wiring at module scope."""

    id = "PACK001"
    severity = "error"
    title = "packed/unpacked wire mix without explicit conversion"
    rationale = (
        "packed uint64 words and unpacked uint8 rows are both plain "
        "ndarrays; crossing the gf2.bitops boundary without pack_rows/"
        "unpack_rows produces numerically valid but wrong counts."
    )

    def check(self, index: SourceIndex) -> Iterator[Finding]:
        for file in index.target_files():
            tracker = _Provenance()
            for stmt in file.tree.body:
                tracker.visit(stmt)
            for call, name, mark, consumer in tracker.violations:
                other = "unpacked" if mark == "packed" else "packed"
                yield self.finding(
                    index, file, call,
                    f"{mark} array {name!r} passed to {other}-domain "
                    f"{consumer}() at module level",
                    hint=_CONVERSION_HINT,
                )


class PackProvenanceAnalysis(SummaryAnalysis):
    """Marks: ``packed`` / ``unpacked`` row provenance."""

    domain_name = "pack"

    def intrinsic_call_marks(
        self, state, call: ast.Call
    ) -> frozenset[str] | None:
        tail = dotted_tail(call.func)
        if tail in PACKED_PRODUCERS:
            return frozenset({"packed"})
        if tail in UNPACKED_PRODUCERS:
            return frozenset({"unpacked"})
        return None


class PackedFlowRule(FlowRule):
    """PACK002: flow-sensitive packed/unpacked provenance checking."""

    id = "PACK002"
    severity = "error"
    title = "packed/unpacked provenance mix on a dataflow path"
    rationale = (
        "a value assigned from a packed producer on any path must not "
        "reach an unpacked-domain consumer (and vice versa); both are "
        "plain ndarrays, so the mix is silent."
    )
    domain = PackProvenanceAnalysis

    def check_file(
        self,
        index: SourceIndex,
        context: DataflowContext,
        file: SourceFile,
        resolved,
    ) -> Iterator[Finding]:
        for info in file.functions.values():
            analysis = PackProvenanceAnalysis(file, index, resolved)
            cfg = context.cfg(info)
            for element, state in analysis.walk(cfg):
                for call in calls_in(element_exprs(element)):
                    tail = dotted_tail(call.func)
                    if tail in PACKED_CONSUMERS:
                        expected = "packed"
                    elif tail in UNPACKED_CONSUMERS:
                        expected = "unpacked"
                    else:
                        continue
                    wrong = "unpacked" if expected == "packed" else "packed"
                    for arg in call.args:
                        marks = analysis.expr_marks(state, arg)
                        if wrong in marks and expected not in marks:
                            yield self.finding(
                                index, file, call,
                                f"{wrong} value {describe_expr(arg)} "
                                f"passed to {expected}-domain {tail}() "
                                f"in {info.qualname}()",
                                hint=_CONVERSION_HINT,
                            )
