"""Every migration strategy keeps the paper's contract on generated cases.

The harness (``tests/harness.py``) draws one case per fixed seed — a plan
family and its rewrite, two builds, a strategy the pair admits, a
scheduler, a batch size, batching through the migration or not, a
trigger time, a window and random feeds — and checks it five ways: the
shared judge (the relational oracle and start order), the strict-gate
sanitizer, byte identity with the element-at-a-time run where the
executor promises it, output-multiset identity with the unmigrated run
for fluid, and the strategy's own facts (shortened
``T_split`` never above the standard one, fluid at one range flips once,
no migration state left behind).

A failing seed is shrunk and filed under ``tests/corpus/``; every corpus
file is replayed here as its own test, and so is every model-checker
preset, a case in the same format.  A corpus case that sets
``expect_violation`` is a counter-example (a strategy forced onto a plan
the verifier refuses) and must keep failing.
"""

import itertools
import json

import pytest

from harness import CORPUS, _admitted, check_case, draw_case, shrink, write_corpus
from repro.analysis.cases import BUILDERS, rewrites
from repro.analysis.modelcheck import PRESETS

#: The seeds drawn on every run: the harness is deterministic.
SEEDS = range(400)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_case(seed):
    case = draw_case(seed)
    failure = check_case(case)
    if failure is not None:
        case, failure = shrink(case, failure)
        path = write_corpus(case, failure)
        pytest.fail(f"seed {seed}: {failure}\nshrunk case filed as {path}")


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda path: path.stem)
def test_corpus_case(path):
    """A filed case keeps its verdict: clean, or — a counter-example that
    expects its violation — the oracle divergence it was filed for."""
    case = json.loads(path.read_text())["case"]
    failure = check_case(case)
    if case.get("expect_violation"):
        assert failure is not None and failure.startswith("MCK001"), failure
    else:
        assert failure is None


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_case(name):
    """A preset's own run keeps its verdict: clean, or the Figure 2
    violation that Parallel Track forced onto the push-down shows."""
    failure = check_case(PRESETS[name])
    if PRESETS[name].get("expect_violation"):
        assert failure is not None and failure.startswith("MCK001"), failure
    else:
        assert failure is None


def test_fluid_admission_per_range_count():
    """The verifier admits fluid at one range on every join tree entered
    through its joins, whatever the builds (the 40 pairs Moving States
    took), and at more ranges only on the six all-hash keyed pairs."""
    builds = list(itertools.product(sorted(BUILDERS), repeat=2))
    pairs = [
        (family, rewrite, *build)
        for family, plans in sorted(rewrites().items())
        for rewrite in range(len(plans))
        for build in builds
    ]
    admitted = {
        name: {pair for pair in pairs if name in _admitted(*pair)}
        for name in ("fluid-1", "fluid-2", "fluid-8")
    }
    whole_state_trees = [("join-order", r) for r in range(6)] + [
        ("join-select", 0),
        ("join-select", 1),
        ("projection", 0),
        ("selection", 0),
    ]
    keyed = [("join-order", r) for r in (0, 2, 3, 5)] + [("join-select", 0), ("join-select", 1)]
    assert len(pairs) == 80
    assert admitted["fluid-1"] == {tree + build for tree in whole_state_trees for build in builds}
    assert len(admitted["fluid-1"]) == 40
    assert admitted["fluid-2"] == admitted["fluid-8"] == {tree + ("hash", "hash") for tree in keyed}
