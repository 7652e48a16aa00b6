"""The transport race detector: reply-release schedules, vector clocks.

The recording transport must (a) certify the real router's ordered merge
pump and quiesced-cut checkpoint barrier clean under every explored reply
arrival order, and (b) catch the two seeded bugs loudly: an arrival-order
pump (``RAC001``, a merge-reordering race) and a silently dropped
broadcast command (``RAC002``, a lost update the reply accounting must
flag).  Vector clocks must show genuine concurrency on racy schedules.
"""

import pytest

from repro.analysis.races import (
    SHARD_PRESETS,
    SHARD_SEED_BUGS,
    build_shard_scenario,
    seed_shard_bug,
)


class TestPresets:
    def test_shard_merge_is_clean_under_every_schedule(self):
        result = build_shard_scenario("shard-merge").run_check()
        assert result.passed, [v.message for v in result.violations[:2]]
        assert result.complete
        assert result.explored > 1

    def test_shard_checkpoint_restores_across_shard_counts(self):
        result = build_shard_scenario("shard-checkpoint").run_check()
        assert result.passed, [v.message for v in result.violations[:2]]
        assert result.complete
        assert result.explored > 1

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            build_shard_scenario("no-such-scenario")

    def test_budget_exhaustion_flags_incomplete(self):
        result = build_shard_scenario("shard-merge").run_check(budget=2)
        assert not result.complete
        assert not result.passed


class TestSeededBugs:
    def test_unordered_pump_is_a_rac001_reordering_race(self):
        scenario = seed_shard_bug(build_shard_scenario("shard-merge"), "unordered-pump")
        result = scenario.run_check()
        assert not result.passed
        racy = [v for v in result.violations if v.code == "RAC001"]
        assert racy, "arrival-order emission must break the global order"
        assert "merge-reordering race" in racy[0].message
        # The happens-before evidence: concurrent cross-shard events.
        assert "concurrent reply deliveries" in racy[0].message
        assert "0 concurrent" not in racy[0].message

    def test_unordered_pump_passes_on_release_everything_schedules(self):
        # The bug only manifests under withheld replies: violations carry
        # at least one withhold decision in their schedule trace.
        scenario = seed_shard_bug(build_shard_scenario("shard-merge"), "unordered-pump")
        result = scenario.run_check()
        for violation in result.violations:
            assert any(label.endswith("=1") for label in violation.schedule)

    def test_drop_command_is_a_rac002_lost_reply(self):
        scenario = seed_shard_bug(build_shard_scenario("shard-merge"), "drop-command")
        result = scenario.run_check()
        assert not result.passed
        assert {v.code for v in result.violations} == {"RAC002"}
        assert "unaccounted" in result.violations[0].message

    def test_unknown_bug_raises(self):
        with pytest.raises(KeyError):
            seed_shard_bug(build_shard_scenario("shard-merge"), "no-such-bug")

    def test_registry(self):
        assert set(SHARD_SEED_BUGS) == {"unordered-pump", "drop-command"}


class TestRecordingTransport:
    def test_vector_clock_log_shape(self):
        from repro.analysis.modelcheck import _ChoiceTape
        from repro.analysis.races import _run_shard_schedule

        scenario = build_shard_scenario("shard-merge")
        output, races, transport = _run_shard_schedule(
            scenario, _ChoiceTape((), []), set()
        )
        assert not races
        kinds = {e["kind"] for e in transport.events}
        assert kinds == {"send", "deliver"}
        width = len(transport.router_vector)
        assert all(len(e["vector"]) == width for e in transport.events)

    def test_broadcast_fanout_is_concurrent(self):
        # Even on the release-everything schedule a broadcast's fan-out
        # is genuinely concurrent: the send to shard 1 happens before
        # shard 0's reply is delivered, so neither event's vector clock
        # dominates the other's.
        from repro.analysis.modelcheck import _ChoiceTape
        from repro.analysis.races import _run_shard_schedule

        scenario = build_shard_scenario("shard-merge")
        _, _, transport = _run_shard_schedule(scenario, _ChoiceTape((), []), set())
        assert transport.concurrent_deliveries() > 0


class TestCliIntegration:
    def test_shard_presets_via_modelcheck_cli(self, capsys):
        from repro.analysis.modelcheck import run_cli

        assert run_cli(["--preset", "shard-merge"]) == 0
        assert "shard-merge" in capsys.readouterr().out

    def test_seeded_shard_bug_exits_nonzero(self, capsys):
        from repro.analysis.modelcheck import run_cli

        code = run_cli(["--preset", "shard-merge", "--seed-bug", "unordered-pump"])
        assert code == 1
        assert "RAC001" in capsys.readouterr().out

    def test_presets_registry(self):
        assert set(SHARD_PRESETS) == {"shard-merge", "shard-checkpoint"}
