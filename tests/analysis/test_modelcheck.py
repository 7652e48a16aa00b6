"""The migration-protocol model checker: presets, pruning, seeded bugs.

The explorer must (a) exhaust every schedule of the bounded preset
scenarios, (b) reproduce the paper's Figure 2 Parallel Track defect as an
*expected* violation, (c) certify GenMig / reference-point clean on the
same scenarios, and (d) fail loudly — MCK001 errors, non-zero exit — when
a deliberate protocol bug is seeded.  Presets are migration cases, the
format of the migration harness, so the harness's corpus is explored
here too.
"""

import json

import pytest

from harness import CORPUS
from repro.analysis.modelcheck import (
    DEFAULT_BUDGET,
    PRESETS,
    SEED_BUGS,
    ModelCheckResult,
    build_scenario,
    check_scenario,
    run_cli,
    seed_bug,
)


class TestPresets:
    def test_all_presets_pass_exhaustively(self):
        for name in PRESETS:
            result = check_scenario(build_scenario(name))
            assert result.passed, f"{name}: {[str(v.message) for v in result.violations[:2]]}"
            assert result.complete
            assert result.explored > 1

    def test_pt_figure2_reproduces_the_paper_defect(self):
        result = check_scenario(build_scenario("pt-figure2"))
        assert result.expect_violation
        assert result.violations, "the Figure 2 counter-example must violate"
        codes = {v.code for v in result.violations}
        assert codes == {"MCK001"}
        # The defect is a duplicate in some snapshot while both boxes run.
        instants = {v.instant for v in result.violations if v.instant is not None}
        assert instants, "violations carry the divergent instant"
        # Reproduced defects surface as INFO, not ERROR.
        severities = {d.severity for d in result.diagnostics()}
        assert severities == {"info"}

    def test_genmig_is_clean_on_the_same_plan_pair(self):
        result = check_scenario(build_scenario("genmig-figure2"))
        assert result.passed and not result.violations

    def test_pruning_fires(self):
        result = check_scenario(build_scenario("rp-joins"))
        assert result.pruned > 0
        assert result.explored + result.pruned <= DEFAULT_BUDGET

    def test_budget_exhaustion_is_mck003(self):
        result = check_scenario(build_scenario("genmig-figure2"), budget=3)
        assert not result.complete
        assert not result.passed
        diags = result.diagnostics()
        assert any(d.code == "MCK003" and d.severity == "warning" for d in diags)

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            build_scenario("no-such-scenario")


class TestSeededBug:
    def test_early_split_fails_loudly(self):
        result = check_scenario(seed_bug(build_scenario("genmig-figure2"), "early-split"))
        assert not result.passed
        assert any(v.code == "MCK001" for v in result.violations)
        assert any(
            d.code == "MCK001" and d.severity == "error"
            for d in result.diagnostics()
        )

    def test_seeded_scenario_is_renamed(self):
        case = seed_bug(build_scenario("genmig-figure2"), "early-split")
        assert "early-split" in case["name"]

    def test_unknown_bug_raises(self):
        with pytest.raises(KeyError):
            seed_bug(build_scenario("genmig-figure2"), "no-such-bug")

    def test_seed_bugs_registry(self):
        assert "early-split" in SEED_BUGS

    def test_unmerged_roots_breaks_delivery_order_only(self):
        """Both roots straight at the gate: every snapshot is still right,
        so only the order property can see the bug."""
        result = check_scenario(seed_bug(build_scenario("fluid-order"), "unmerged-roots"))
        assert not result.passed
        assert {v.code for v in result.violations} == {"MCK004"}
        assert any(
            d.code == "MCK004" and d.severity == "error"
            for d in result.diagnostics()
        )

    @pytest.mark.parametrize("bug", sorted(SEED_BUGS))
    def test_seeded_bug_on_an_expected_violation_still_fails(self, bug):
        """The seeded case swaps in the broken strategy and expects every
        schedule clean, whatever the preset expected of its own."""
        case = seed_bug(build_scenario("pt-figure2"), bug)
        assert case["strategy"] == bug and not case["expect_violation"]
        assert run_cli(["--preset", "pt-figure2", "--seed-bug", bug]) == 1

    def test_parallel_track_is_exempt_from_the_order_property(self):
        """PT's end-of-migration burst interleaves by design (Figure 4)."""
        result = check_scenario(build_scenario("pt-joins"))
        assert result.passed


MIGRATION_PRESETS = (
    "fluid-joins",
    "fluid-order",
    "genmig-figure2",
    "pt-figure2",
    "pt-joins",
    "rp-joins",
)


class TestCli:
    def test_all_presets_exit_zero(self, capsys):
        assert run_cli(["--all"]) == 0
        out = capsys.readouterr().out
        for name in MIGRATION_PRESETS:
            assert name in out

    def test_seeded_bug_exits_nonzero(self, capsys):
        assert run_cli(["--preset", "genmig-figure2", "--seed-bug", "early-split"]) == 1
        assert "MCK001" in capsys.readouterr().out

    def test_seeded_order_bug_exits_nonzero(self, capsys):
        assert run_cli(["--preset", "fluid-order", "--seed-bug", "unmerged-roots"]) == 1
        assert "MCK004" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert run_cli(["--preset", "pt-joins", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["scenario"] == "pt-joins"
        assert payload[0]["passed"] is True

    def test_list(self, capsys):
        assert run_cli(["--list"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == sorted(PRESETS) == list(MIGRATION_PRESETS)

    def test_budget_flag(self, capsys):
        assert run_cli(["--preset", "genmig-figure2", "--budget", "3"]) == 1
        assert "MCK003" in capsys.readouterr().out

    def test_module_entry_point(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "modelcheck", "--list"],
            capture_output=True,
            text=True,
            cwd=root,
            env=env,
        )
        assert proc.returncode == 0
        assert "pt-figure2" in proc.stdout


class TestResultShape:
    def test_to_dict_round_trips_json(self):
        result = check_scenario(build_scenario("pt-joins"))
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["explored"] == result.explored

    def test_passed_semantics(self):
        clean = ModelCheckResult(
            scenario="s", strategy="genmig", expect_violation=False
        )
        assert clean.passed
        clean.complete = False
        assert not clean.passed


#: Corpus cases explored completely, with the schedule budget (explored
#: plus pruned) their whole tree needs; every other case gets 250.  The
#: projection case, a one-range fluid handover, needs 1 850 explored and
#: 4 216 pruned schedules; the forced reference point on a distinct plan
#: (RP001's counter-example) 723 and 2 219, and its first divergent
#: schedule lies beyond a 250-schedule depth-first prefix.
EXHAUSTIVE = {
    "projection-moving-states-c88c8c51": 6500,
    "union-parallel-track-60f55e54": 250,
    "distinct-genmig-rp-forced-c91b549b": 3000,
}


class TestCorpus:
    """Every corpus case the harness filed, explored under a bounded
    budget: no schedule may diverge from the oracle or deliver out of
    order — except in a counter-example (``expect_violation``), where
    some schedule must diverge (MCK001).

    For most cases the exploration is shallow: depth-first from the first
    schedule, the budget runs out while only the late choices (the last
    deliveries, trigger points and gates) are varied, and the early
    deliveries are never reordered.  The cases in :data:`EXHAUSTIVE` are
    explored completely."""

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda path: path.stem)
    def test_corpus_case_explores_clean(self, path):
        case = json.loads(path.read_text())["case"]
        result = check_scenario(dict(case, name=path.stem), budget=EXHAUSTIVE.get(path.stem, 250))
        assert result.explored > 1
        assert result.complete or path.stem not in EXHAUSTIVE
        codes = {v.code for v in result.violations}
        if case.get("expect_violation"):
            assert "MCK001" in codes and result.passed
        else:
            assert not codes & {"MCK001", "MCK004"}, [v.message for v in result.violations[:2]]
