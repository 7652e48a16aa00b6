"""Every migration strategy keeps the paper's contract on generated cases.

The harness (``tests/harness.py``) draws one case per fixed seed — a plan
family and its rewrite, two builds, a strategy the pair admits, a
scheduler, a batch size, batching through the migration or not, a
trigger time, a window and random feeds — and checks it five ways: the
shared judge (the relational oracle and start order), the strict-gate
sanitizer, byte identity with the element-at-a-time run where the
executor promises it, output-multiset identity with the unmigrated run
for fluid and Moving States, and the strategy's own facts (shortened
``T_split`` never above the standard one, fluid at one range flips once,
no migration state left behind).

A failing seed is shrunk and filed under ``tests/corpus/``; every corpus
file is replayed here as its own test.
"""

import json

import pytest

from harness import CORPUS, check_case, draw_case, shrink, write_corpus

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
    case = json.loads(path.read_text())["case"]
    assert check_case(case) is None
