"""Batch-race detection: effect extraction, expansion, conflicts."""

from __future__ import annotations

from flow_helpers import analyze_sources, index_of
from repro.lint.config import LintConfig

_HANDLER = (
    "class {name}:\n"
    '    __slots__ = ("engine",)\n\n'
    "    def __init__(self, engine: object) -> None:\n"
    "        self.engine = engine\n\n"
    "    def __call__(self) -> None:\n"
    "{body}"
)


def _races(source: str, config: LintConfig | None = None) -> list:
    return [
        f
        for f in analyze_sources({"mod": source}, config=config)
        if f.rule == "batch-race"
    ]


class TestConflicts:
    def test_write_write_conflict(self) -> None:
        src = _HANDLER.format(name="A", body="        self.engine.x = 1\n")
        src += "\n\n" + _HANDLER.format(
            name="B", body="        self.engine.x = 2\n"
        )
        findings = _races(src)
        assert [f.scope for f in findings] == ["mod.A|mod.B"]
        assert "engine.x" in findings[0].message

    def test_write_read_conflict(self) -> None:
        src = _HANDLER.format(name="A", body="        self.engine.x = 1\n")
        src += "\n\n" + _HANDLER.format(
            name="B", body="        y = self.engine.x\n"
        )
        assert len(_races(src)) == 1

    def test_read_read_no_conflict(self) -> None:
        src = _HANDLER.format(name="A", body="        y = self.engine.x\n")
        src += "\n\n" + _HANDLER.format(
            name="B", body="        z = self.engine.x\n"
        )
        assert _races(src) == []

    def test_disjoint_attrs_no_conflict(self) -> None:
        src = _HANDLER.format(name="A", body="        self.engine.x = 1\n")
        src += "\n\n" + _HANDLER.format(
            name="B", body="        self.engine.y = 2\n"
        )
        assert _races(src) == []

    def test_mutating_method_counts_as_write(self) -> None:
        src = _HANDLER.format(
            name="A", body="        self.engine.queue.append(1)\n"
        )
        src += "\n\n" + _HANDLER.format(
            name="B", body="        n = len(self.engine.queue)\n"
        )
        assert len(_races(src)) == 1

    def test_subscript_store_and_del_write_the_container(self) -> None:
        for body in (
            "        self.engine.items[1] = 2\n",
            "        del self.engine.items[1]\n",
            "        self.engine.items[1][2] = 3\n",
        ):
            src = _HANDLER.format(name="A", body=body)
            src += "\n\n" + _HANDLER.format(
                name="B", body="        n = len(self.engine.items)\n"
            )
            assert len(_races(src)) == 1, body

    def test_private_slots_not_shared_state(self) -> None:
        src = _HANDLER.format(name="A", body="        self.count = 1\n")
        src += "\n\n" + _HANDLER.format(name="B", body="        self.count = 2\n")
        assert _races(src) == []


class TestExpansion:
    def test_effects_through_engine_method(self) -> None:
        src = (
            "class Eng:\n"
            "    def bump(self) -> None:\n"
            "        self.counter = self.counter + 1\n\n\n"
        )
        src += _HANDLER.format(name="A", body="        self.engine.bump()\n")
        src += "\n\n" + _HANDLER.format(
            name="B", body="        self.engine.counter = 0\n"
        )
        assert [f.scope for f in _races(src)] == ["mod.A|mod.B"]

    def test_deep_callee_writes_are_not_cut_off(self) -> None:
        chain = "".join(
            f"    def m{i}(self) -> None:\n        self.m{i + 1}()\n\n"
            for i in range(8)
        )
        src = (
            "class Eng:\n"
            + chain
            + "    def m8(self) -> None:\n        self.counter = 0\n\n\n"
        )
        src += _HANDLER.format(name="A", body="        self.engine.m0()\n")
        src += "\n\n" + _HANDLER.format(
            name="B", body="        n = self.engine.counter\n"
        )
        assert [f.scope for f in _races(src)] == ["mod.A|mod.B"]

    def test_effects_through_local_alias(self) -> None:
        src = _HANDLER.format(
            name="A",
            body="        engine = self.engine\n        engine.x = 1\n",
        )
        src += "\n\n" + _HANDLER.format(
            name="B", body="        self.engine.x = 2\n"
        )
        assert len(_races(src)) == 1

    def test_ignore_attrs_option(self) -> None:
        src = _HANDLER.format(name="A", body="        self.engine.x = 1\n")
        src += "\n\n" + _HANDLER.format(
            name="B", body="        self.engine.x = 2\n"
        )
        cfg = LintConfig(rule_options={"batch-race": {"ignore-attrs": ["engine.x"]}})
        assert _races(src, config=cfg) == []

    def test_suppression_on_class_line(self) -> None:
        src = _HANDLER.format(name="A", body="        self.engine.x = 1\n")
        src = src.replace(
            "class A:",
            "class A:  # repro-lint: allow=batch-race (fixture: commutes)",
        )
        src += "\n\n" + _HANDLER.format(
            name="B", body="        self.engine.x = 2\n"
        )
        assert _races(src) == []


class TestHandlerSelection:
    def test_non_callable_class_excluded(self) -> None:
        index, _, _ = index_of(
            {
                "mod": (
                    "class Plain:\n"
                    '    __slots__ = ("engine",)\n\n'
                    "    def fire(self) -> None:\n"
                    "        self.engine.x = 1\n"
                )
            }
        )
        from repro.lint.flow.batchrace import handler_classes

        assert handler_classes(index) == []

    def test_callable_without_engine_slot_excluded(self) -> None:
        index, _, _ = index_of(
            {
                "mod": (
                    "class Fn:\n"
                    '    __slots__ = ("x",)\n\n'
                    "    def __call__(self) -> None:\n"
                    "        self.x = 1\n"
                )
            }
        )
        from repro.lint.flow.batchrace import handler_classes

        assert handler_classes(index) == []
