"""Call-graph construction over :class:`~repro.lint.flow.project.ProjectIndex`.

Resolution is deliberately conservative and syntactic (DESIGN.md §14
documents the limits): dotted imports resolve through the project symbol
table, ``self.m()`` resolves within the defining class (walking textual
base names), member calls like ``self.engine.m()`` and bare attribute
calls fall back to a unique-method-name lookup (CHA-style) — a name
defined by exactly one class in the project resolves to that method,
anything else is counted as unresolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .project import ProjectIndex


@dataclass(frozen=True, slots=True)
class Edge:
    """One resolved call edge, anchored at its call site."""

    caller: str
    callee: str
    line: int
    col: int


@dataclass(slots=True)
class CallGraph:
    """Forward and reverse adjacency over function ids."""

    edges: dict[str, list[Edge]] = field(default_factory=dict)
    reverse: dict[str, list[Edge]] = field(default_factory=dict)
    unresolved: int = 0
    ambiguous: int = 0

    def add(self, edge: Edge) -> None:
        self.edges.setdefault(edge.caller, []).append(edge)
        self.reverse.setdefault(edge.callee, []).append(edge)

    def callers_of(self, fid: str) -> list[Edge]:
        return self.reverse.get(fid, [])


def _resolve_dotted(index: ProjectIndex, target: str) -> str | None:
    """Resolve a dotted call target against the project symbol table.

    Tries the full dotted name first (``pkg.mod.fn`` / ``pkg.mod.Cls.m``),
    then re-anchored forms for names imported from package ``__init__``
    re-exports (``repro.engine.ServingEngine`` defined in
    ``repro.engine.engine``).
    """
    fid = index.symbols.get(target)
    if fid is not None:
        return fid
    # Class constructor: resolve Cls(...) to Cls.__init__ when known.
    cls = index.classes.get(target)
    if cls is not None:
        module, summary = cls
        name = target.rsplit(".", 1)[-1]
        if "__init__" in summary["methods"]:
            return f"{module}:{name}.__init__"
        return None
    # Re-export: pkg.Cls.m or pkg.fn where pkg is a package __init__ that
    # imported the name from a submodule.  The alias collector already
    # resolved the *importing* module's view; here we chase one level of
    # package alias: look for any module whose name is a prefix and whose
    # summary aliases are not kept — instead try suffix match on symbols.
    head, _, tail = target.rpartition(".")
    if head and tail:
        candidates = sorted(
            sym for sym in index.symbols if sym.endswith(f".{tail}")
            and sym.startswith(f"{head}.")
        )
        if len(candidates) == 1:
            return index.symbols[candidates[0]]
    return None


def _resolve_self(
    index: ProjectIndex, module: str, cls: str, method: str
) -> str | None:
    """Resolve ``self.method()`` within ``cls`` and its textual bases."""
    seen: set[str] = set()
    queue: list[str] = [f"{module}.{cls}"]
    while queue:
        cls_key = queue.pop(0)
        if cls_key in seen:
            continue
        seen.add(cls_key)
        entry = index.classes.get(cls_key)
        if entry is None:
            continue
        cls_module, summary = entry
        if method in summary["methods"]:
            name = cls_key.rsplit(".", 1)[-1]
            return f"{cls_module}:{name}.{method}"
        for base in summary["bases"]:
            if "." in base:
                queue.append(base)
            else:
                queue.append(f"{cls_module}.{base}")
    return None


def _resolve_by_name(index: ProjectIndex, method: str) -> tuple[str | None, bool]:
    """Unique-method-name fallback; (fid, ambiguous)."""
    candidates = index.methods_by_name.get(method, [])
    if len(candidates) == 1:
        return candidates[0], False
    return None, len(candidates) > 1


def resolve_call(
    index: ProjectIndex, module: str, fid: str, call: dict[str, Any]
) -> str | None:
    """Resolve one call-site record to a function id, or None."""
    kind = call["kind"]
    if kind == "local":
        target = str(call["target"])
        return f"{module}:{target}"
    if kind == "dotted":
        return _resolve_dotted(index, str(call["target"]))
    if kind == "name":
        target = str(call["target"])
        local = index.symbols.get(f"{module}.{target}")
        if local is not None:
            return local
        return None
    if kind == "self":
        suffix = fid.partition(":")[2]
        if "." not in suffix:
            return None
        cls = suffix.split(".")[0]
        return _resolve_self(index, module, cls, str(call["target"]))
    # member / attr: unique-name fallback.
    resolved, _ = _resolve_by_name(index, str(call["target"]))
    return resolved


def build_call_graph(index: ProjectIndex) -> CallGraph:
    """Resolve every recorded call site into a project call graph."""
    graph = CallGraph()
    for module in sorted(index.summaries):
        summary = index.summaries[module]
        if summary["error"] is not None:
            continue
        for suffix in sorted(summary["functions"]):
            fid = f"{module}:{suffix}"
            fn = summary["functions"][suffix]
            for call in fn["calls"]:
                callee = resolve_call(index, module, fid, call)
                if callee is None:
                    kind = call["kind"]
                    if kind in ("member", "attr"):
                        _, ambiguous = _resolve_by_name(
                            index, str(call["target"])
                        )
                        if ambiguous:
                            graph.ambiguous += 1
                        else:
                            graph.unresolved += 1
                    elif kind in ("dotted", "name"):
                        graph.unresolved += 1
                    continue
                if index.function(callee) is None:
                    graph.unresolved += 1
                    continue
                graph.add(
                    Edge(fid, callee, int(call["line"]), int(call["col"]))
                )
    return graph
