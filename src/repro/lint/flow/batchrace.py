"""Same-timestamp batch-race detection over event-handler effect sets.

``EventQueue.collect_batch`` hands all events sharing a timestamp to the
simulation loop as one batch; two handlers in the same batch whose effect sets conflict
(one writes an engine/store attribute the other reads or writes) make
the intra-batch order observable, which is exactly what the determinism
contract forbids relying on.  This pass expands each handler class's
``__call__`` effects through resolved calls (``self.engine.m()`` pulls
in the engine method's own ``self``-effects, rebased onto ``engine.``)
and flags conflicting pairs.  Effects are approximate by construction —
attribute paths are truncated and dynamic dispatch is unresolved — so
findings here are review prompts, baselined once reviewed.
"""

from __future__ import annotations

from typing import Any

from ..config import LintConfig
from .baseline import FlowFinding
from .callgraph import _resolve_by_name, _resolve_self
from .project import MUTATOR_METHODS, ProjectIndex

BATCH_RACE_RULE = "batch-race"


def _rebase(entry: str, root: str | None) -> str | None:
    """Map a ``self``-rooted effect path into handler coordinates.

    For the handler itself (``root is None``) only ``engine.*`` /
    ``store.*`` effects are shared state; its other slots are
    per-instance.  For an expanded engine/store method, ``self`` *is*
    that object, so every effect is rebased under the root (with
    ``self.store`` inside an engine method collapsing to ``store``).
    """
    head = entry.split(".", 1)[0]
    if root is None:
        if head in ("engine", "store"):
            return entry
        return None
    if root == "engine" and head == "store":
        return entry
    # Keep at most root + 2 segments so fingerprints stay stable.
    return ".".join([root, *entry.split(".")[:2]])


class _Expander:
    """Accumulate expanded (reads, writes) for one handler class."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.reads: set[str] = set()
        self.writes: set[str] = set()
        self.visited: set[tuple[str, str]] = set()

    def expand(self, fid: str, root: str | None) -> None:
        # ``visited`` alone bounds the walk: each (function, root) pair is
        # expanded once, however deep in the call chain it sits.
        key = (fid, root if root is not None else "")
        if key in self.visited:
            return
        self.visited.add(key)
        fn = self.index.function(fid)
        if fn is None:
            return
        for entry in fn["reads"]:
            mapped = _rebase(str(entry), root)
            if mapped is not None:
                self.reads.add(mapped)
        for entry in fn["writes"]:
            mapped = _rebase(str(entry), root)
            if mapped is not None:
                self.writes.add(mapped)
        module = fid.partition(":")[0]
        suffix = fid.partition(":")[2]
        cls = suffix.split(".")[0] if "." in suffix else None
        for call in fn["calls"]:
            self._expand_call(module, cls, call, root)

    def _expand_call(
        self,
        module: str,
        cls: str | None,
        call: dict[str, Any],
        root: str | None,
    ) -> None:
        kind = str(call["kind"])
        target = str(call["target"])
        if kind == "self" and cls is not None:
            resolved = _resolve_self(self.index, module, cls, target)
            if resolved is not None:
                self.expand(resolved, root)
            return
        if kind in ("member", "attr"):
            # ``member`` is self.engine.m(); ``attr`` covers the idiomatic
            # local alias (``engine = self.engine; engine.m()``) whose
            # receiver name follows the engine/store convention.
            recv = str(call["recv"])
            if kind == "attr" and recv.split(".", 1)[0] not in (
                "engine",
                "store",
            ):
                return
            new_root: str | None = None
            if root is None and recv in ("engine", "store"):
                new_root = recv
            elif root is None and recv.startswith("engine.store"):
                new_root = "store"
            elif root == "engine" and recv == "store":
                new_root = "store"
            if new_root is not None:
                resolved, _ = _resolve_by_name(self.index, target)
                if resolved is not None:
                    self.expand(resolved, new_root)
                    return
                # Unresolvable method on the shared object: record the
                # call itself as an effect on the receiver.
                effect = new_root
            else:
                mapped = _rebase(recv, root)
                if mapped is None:
                    return
                effect = mapped
            if target in MUTATOR_METHODS:
                self.writes.add(effect)
            else:
                self.reads.add(effect)


def handler_classes(index: ProjectIndex) -> list[str]:
    """Event-handler classes: callable, holding an engine/store slot."""
    out: list[str] = []
    for cls_key in sorted(index.classes):
        _, summary = index.classes[cls_key]
        if not summary["has_call"]:
            continue
        slots = set(summary["slots"])
        if "engine" in slots or "store" in slots:
            out.append(cls_key)
    return out


def _conflicts(
    a: tuple[set[str], set[str]], b: tuple[set[str], set[str]]
) -> set[str]:
    a_reads, a_writes = a
    b_reads, b_writes = b
    return (a_writes & (b_reads | b_writes)) | (b_writes & a_reads)


def run_batch_race_pass(
    index: ProjectIndex, config: LintConfig
) -> list[FlowFinding]:
    classes = handler_classes(index)
    ignore_raw = config.options_for(BATCH_RACE_RULE).get("ignore-attrs", [])
    ignore = {str(v) for v in ignore_raw if isinstance(v, str)}
    effects: dict[str, tuple[set[str], set[str]]] = {}
    for cls_key in classes:
        module, _ = index.classes[cls_key]
        cls_name = cls_key.rsplit(".", 1)[-1]
        expander = _Expander(index)
        expander.expand(f"{module}:{cls_name}.__call__", None)
        effects[cls_key] = (
            expander.reads - ignore,
            expander.writes - ignore,
        )

    findings: list[FlowFinding] = []
    for i, a_key in enumerate(classes):
        for b_key in classes[i + 1 :]:
            shared = _conflicts(effects[a_key], effects[b_key])
            if not shared:
                continue
            a_module, a_summary = index.classes[a_key]
            b_module, b_summary = index.classes[b_key]
            a_matcher = index.matcher_for(a_module)
            b_matcher = index.matcher_for(b_module)
            if a_matcher is not None and a_matcher.allows(
                int(a_summary["line"]), BATCH_RACE_RULE
            ):
                continue
            if b_matcher is not None and b_matcher.allows(
                int(b_summary["line"]), BATCH_RACE_RULE
            ):
                continue
            a_name = a_key.rsplit(".", 1)[-1]
            b_name = b_key.rsplit(".", 1)[-1]
            attrs = ", ".join(sorted(shared)[:6])
            more = len(shared) - 6
            if more > 0:
                attrs += f" (+{more} more)"
            findings.append(
                FlowFinding(
                    path=str(index.summaries[a_module]["path"]),
                    line=int(a_summary["line"]),
                    col=int(a_summary["col"]),
                    rule=BATCH_RACE_RULE,
                    message=(
                        f"handlers '{a_name}' and '{b_name}' can share a "
                        f"same-timestamp batch and conflict on {attrs}; "
                        "intra-batch dispatch order is observable — make "
                        "the handlers commute or justify why they cannot "
                        "share a timestamp"
                    ),
                    scope=f"{a_key}|{b_key}",
                    key="",
                )
            )
    findings.sort(key=FlowFinding.sort_key)
    return findings
