"""Store-protocol typestate: the exactly-one-copy lifecycle automaton."""

from __future__ import annotations

from flow_helpers import analyze_sources


def _proto(source: str, max_paths: int = 256) -> list:
    return [
        f
        for f in analyze_sources({"mod": source}, max_paths=max_paths)
        if f.rule == "store-protocol"
    ]


class TestUseAfterExtract:
    def test_double_extract_flagged(self) -> None:
        src = (
            "def move(store: object, dest: object, sid: int) -> None:\n"
            "    a = store.kv.extract(sid)\n"
            "    b = store.kv.extract(sid)\n"
            "    dest.kv.admit_migrated(a)\n"
            "    dest.kv.admit_migrated(b)\n"
        )
        findings = _proto(src)
        assert [f.key for f in findings] == [
            "use-after-extract|store.kv.extract(sid)"
        ]

    def test_extract_after_admit_ok(self) -> None:
        src = (
            "def move(store: object, dest: object, sid: int) -> None:\n"
            "    a = store.kv.extract(sid)\n"
            "    dest.kv.admit_migrated(a)\n"
            "    b = store.kv.extract(sid)\n"
            "    dest.kv.admit_migrated(b)\n"
        )
        assert _proto(src) == []

    def test_different_sessions_ok(self) -> None:
        src = (
            "def move(store: object, dest: object, s1: int, s2: int) -> None:\n"
            "    a = store.kv.extract(s1)\n"
            "    b = store.kv.extract(s2)\n"
            "    dest.kv.admit_migrated(a)\n"
            "    dest.kv.admit_migrated(b)\n"
        )
        assert _proto(src) == []


class TestAdmitWithoutExtract:
    def test_branch_path_missing_extract(self) -> None:
        src = (
            "def move(store: object, dest: object, sid: int, fast: bool) -> None:\n"
            "    item = None\n"
            "    if fast:\n"
            "        item = store.kv.extract(sid)\n"
            "    dest.kv.admit_migrated(sid)\n"
        )
        findings = _proto(src)
        assert [f.key for f in findings] == [
            "admit-without-extract|admit_migrated(sid)"
        ]

    def test_matched_by_item_variable(self) -> None:
        src = (
            "def move(store: object, dest: object, sid: int) -> None:\n"
            "    item = store.kv.extract(sid)\n"
            "    dest.kv.admit_migrated(item)\n"
        )
        assert _proto(src) == []


class TestLeak:
    def test_unaccounted_copy_flagged(self) -> None:
        src = (
            "def lose(store: object, sid: int) -> None:\n"
            "    item = store.kv.extract(sid)\n"
        )
        findings = _proto(src)
        assert [f.key for f in findings] == [
            "unaccounted|store.kv.extract(sid)"
        ]

    def test_none_checked_early_return_not_a_leak(self) -> None:
        src = (
            "def move(store: object, dest: object, sid: int) -> None:\n"
            "    item = store.kv.extract(sid)\n"
            "    if item is None:\n"
            "        return\n"
            "    dest.kv.admit_migrated(item)\n"
        )
        assert _proto(src) == []

    def test_loss_recording_accounts_the_copy(self) -> None:
        src = (
            "def move(store: object, link: object, sid: int) -> None:\n"
            "    item = store.kv.extract(sid)\n"
            "    try:\n"
            "        link.transfer(item)\n"
            "    except ValueError:\n"
            "        store.kv.record_migration_loss()\n"
            "        return\n"
            "    store.kv.admit_migrated(item)\n"
        )
        assert _proto(src) == []

    def test_escape_through_call_is_not_a_leak(self) -> None:
        src = (
            "def stage(store: object, queue: object, sid: int) -> None:\n"
            "    item = store.kv.extract(sid)\n"
            "    queue.push(item)\n"
        )
        assert _proto(src) == []


class TestTerminalOps:
    def test_extract_after_wipe_flagged(self) -> None:
        src = (
            "def crash(store: object, sid: int) -> None:\n"
            "    store.kv.wipe_volatile()\n"
            "    item = store.kv.extract(sid)\n"
        )
        findings = _proto(src)
        assert any(f.key.startswith("after-terminal|") for f in findings)

    def test_restore_after_wipe_ok(self) -> None:
        src = (
            "def restart(store: object, sid: int) -> None:\n"
            "    store.kv.wipe_volatile()\n"
            "    store.kv.restore_offline()\n"
            "    item = store.kv.extract(sid)\n"
            "    store.kv.discard_stale(sid)\n"
        )
        assert _proto(src) == []

    def test_decommission_accounts_remaining_copies(self) -> None:
        src = (
            "def drain(store: object, sid: int) -> None:\n"
            "    item = store.kv.extract(sid)\n"
            "    store.kv.decommission()\n"
        )
        assert _proto(src) == []


class TestLimitsAndScope:
    def test_store_implementation_itself_exempt(self) -> None:
        src = (
            "class MiniStore:\n"
            "    def extract(self, sid: int) -> object | None:\n"
            "        return self.items.pop(sid, None)\n\n"
            "    def admit_migrated(self, item: object) -> None:\n"
            "        self.items[item.sid] = item\n\n"
            "    def decommission(self) -> None:\n"
            "        self.items.clear()\n\n"
            "    def helper(self, sid: int) -> None:\n"
            "        item = self.items.extract(sid)\n"
        )
        assert _proto(src) == []

    def test_path_budget_skips_function(self) -> None:
        branches = "".join(
            f"    if flags[{i}]:\n        store.kv.discard_stale({i})\n"
            for i in range(12)
        )
        src = (
            "def wide(store: object, flags: list, sid: int) -> None:\n"
            f"{branches}"
            "    item = store.kv.extract(sid)\n"
        )
        # 2**12 paths blows a budget of 16: the function is skipped, not
        # half-reported.
        assert _proto(src, max_paths=16) == []

    def test_state_free_branches_do_not_spend_the_budget(self) -> None:
        # 2**10 branch paths (past the default budget of 256) through arms
        # that make no protocol op, plus a loop and a try of the same
        # kind: none of them can change the typestate, so the function is
        # still analyzed and its leaked extract is reported.
        branches = "".join(
            f"    if flags[{i}]:\n        total += {i}\n"
            "    else:\n        total -= 1\n"
            for i in range(10)
        )
        src = (
            "def wide(store: object, flags: list, sid: int) -> int:\n"
            "    total = 0\n"
            f"{branches}"
            "    for flag in flags:\n"
            "        total += 1\n"
            "    try:\n"
            "        total += int(sid)\n"
            "    except ValueError:\n"
            "        pass\n"
            "    item = store.kv.extract(sid)\n"
            "    return total\n"
        )
        assert [f.key for f in _proto(src)] == [
            "unaccounted|store.kv.extract(sid)"
        ]

    def test_suppression_applies(self) -> None:
        src = (
            "def lose(store: object, sid: int) -> None:\n"
            "    item = store.kv.extract(sid)"
            "  # repro-lint: allow=store-protocol (fixture: copy owned by caller)\n"
        )
        assert _proto(src) == []
