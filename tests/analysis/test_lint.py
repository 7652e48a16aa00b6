"""Tests for the project-specific AST lint rules (RLB001–RLB011; RLB003 and RLB004 retired)."""

from pathlib import Path

from repro.analysis.lint import Linter, lint_paths, lint_source, main


def codes(findings):
    return [finding.code for finding in findings]


class TestWallClock:
    def test_wall_clock_in_engine_scope_flagged(self):
        code = "import time\n\ndef now():\n    return time.time()\n"
        findings = lint_source(code, path="src/repro/engine/clock.py")
        assert codes(findings) == ["RLB001"]
        assert "deterministic application-time simulator" in findings[0].message

    def test_aliased_import_flagged(self):
        code = "from time import monotonic as mono\n\nx = mono()\n"
        findings = lint_source(code, path="src/repro/operators/bad.py")
        assert codes(findings) == ["RLB001"]

    def test_wall_clock_outside_scope_allowed(self):
        code = "import time\n\ndef now():\n    return time.time()\n"
        assert lint_source(code, path="src/repro/service/clock.py") == []

    def test_application_time_is_fine(self):
        code = "def advance(self, t):\n    self.clock = t\n"
        assert lint_source(code, path="src/repro/engine/ok.py") == []


class TestPurgeRule:
    def test_hand_rolled_purge_flagged(self):
        code = (
            "class Dedup(StatefulOperator):\n"
            "    def _on_watermark(self, watermark):\n"
            "        self.state = [e for e in self.state if e.end > watermark]\n"
        )
        findings = lint_source(code)
        assert codes(findings) == ["RLB002"]
        assert "expiry entry point" in findings[0].message

    def test_sweep_area_purge_allowed(self):
        code = (
            "class Dedup(StatefulOperator):\n"
            "    def _on_watermark(self, watermark):\n"
            "        self.area.expire(watermark)\n"
        )
        assert lint_source(code) == []

    def test_base_operator_default_exempt(self):
        code = (
            "class Operator:\n"
            "    def _on_watermark(self, watermark):\n"
            "        pass\n"
        )
        assert lint_source(code) == []


class TestBatchOverrideRule:
    """A stateful operator may override ``process_batch`` (the hash
    join's kernel path does); only a stateless override is a finding,
    RLB010's."""

    def test_stateless_override_not_flagged(self):
        # Not a batch-override matter: a stateless override is RLB010's finding.
        code = (
            "class Fast(StatelessOperator):\n"
            "    def process_batch(self, batch, port=0):\n"
            "        pass\n"
        )
        assert codes(lint_source(code)) == ["RLB010"]

    def test_transitive_stateful_base_resolved(self):
        leaf = (
            "class Leaf(Middle):\n"
            "    def process_batch(self, batch, port=0):\n"
            "        pass\n"
        )
        stateful = Linter()
        stateful.add_source("class Middle(StatefulOperator):\n    pass\n", "middle.py")
        stateful.add_source(leaf, "leaf.py")
        assert stateful.run() == []
        stateless = Linter()
        stateless.add_source("class Middle(StatelessOperator):\n    pass\n", "middle.py")
        stateless.add_source(leaf, "leaf.py")
        assert codes(stateless.run()) == ["RLB010"]


class TestColumnInternalRule:
    def test_column_internal_read_flagged(self):
        code = "def probe(batch):\n    return batch._starts[0]\n"
        findings = lint_source(code, path="src/repro/operators/bad.py")
        assert codes(findings) == ["RLB005"]
        assert "Batch read API" in findings[0].message

    def test_column_internal_write_flagged(self):
        code = "def clobber(batch):\n    batch._cached = None\n"
        assert codes(lint_source(code, path="src/repro/engine/bad.py")) == [
            "RLB005"
        ]

    def test_temporal_layer_exempt(self):
        code = "def probe(batch):\n    return batch._starts[0]\n"
        assert lint_source(code, path="src/repro/temporal/batch.py") == []

    def test_read_api_allowed(self):
        code = (
            "def probe(batch):\n"
            "    return batch.starts, batch.ends, batch.rows, batch.flags\n"
        )
        assert lint_source(code, path="src/repro/operators/ok.py") == []


class TestOperatorConstructionRule:
    def test_direct_construction_flagged_in_recovery(self):
        code = "def rebuild():\n    return HashJoin(0, 0)\n"
        findings = lint_source(code, path="src/repro/recovery/bad.py")
        assert codes(findings) == ["RLB006"]
        assert "PhysicalBuilder" in findings[0].message

    def test_attribute_spelling_flagged(self):
        code = "op = operators.Aggregate([count()])\n"
        assert codes(lint_source(code, path="src/repro/recovery/bad.py")) == [
            "RLB006"
        ]

    def test_builder_usage_allowed(self):
        code = "box = builder.build(plan, label='restored/0')\n"
        assert lint_source(code, path="src/repro/recovery/restore.py") == []

    def test_other_layers_exempt(self):
        code = "op = Aggregate([count()])\n"
        assert lint_source(code, path="src/repro/plans/physical.py") == []


class TestProcessPrimitiveRule:
    def test_multiprocessing_import_flagged(self):
        code = "import multiprocessing\n"
        findings = lint_source(code, path="src/repro/engine/executor.py")
        assert codes(findings) == ["RLB007"]
        assert "single-threaded executor" in findings[0].message

    def test_submodule_and_from_imports_flagged(self):
        for code in (
            "import multiprocessing.connection\n",
            "from multiprocessing import Process\n",
            "from concurrent.futures import ThreadPoolExecutor\n",
            "import threading\n",
            "import subprocess\n",
        ):
            assert codes(lint_source(code, path="src/repro/service/hub.py")) == [
                "RLB007"
            ], code

    def test_function_local_import_flagged(self):
        code = "def launch():\n    import multiprocessing\n"
        assert codes(lint_source(code, path="src/repro/engine/scheduler.py")) == [
            "RLB007"
        ]

    def test_os_fork_family_flagged(self):
        code = "import os\n\ndef spawn():\n    return os.fork()\n"
        assert codes(lint_source(code, path="src/repro/recovery/x.py")) == [
            "RLB007"
        ]

    def test_transport_module_flagged(self):
        """No module is exempt: a transport module is flagged like any other."""
        code = (
            "import multiprocessing\n"
            "import threading\n"
            "from multiprocessing import Pipe\n"
        )
        assert codes(lint_source(code, path="src/repro/engine/transport.py")) == [
            "RLB007"
        ] * 3

    def test_plain_os_use_allowed(self):
        code = "import os\nsanitize = os.environ.get('REPRO_SANITIZE')\n"
        assert lint_source(code, path="src/repro/engine/executor.py") == []


class TestRelayRule:
    def test_hook_override_on_stateless_operator_flagged(self):
        code = (
            "class Lagging(StatelessOperator):\n"
            "    def _on_element(self, element, port):\n"
            "        self._stage(element)\n"
            "    def _output_watermark(self, watermark):\n"
            "        return watermark - 1\n"
            "    def _on_heartbeat(self, t, port):\n"
            "        self.seen = t\n"
        )
        findings = lint_source(code)
        assert codes(findings) == ["RLB010", "RLB010"]
        assert [f.line for f in findings] == [6, 4]
        assert "relay" in findings[0].message

    def test_ordered_output_on_stateless_operator_flagged(self):
        code = (
            "class Sorted(StatelessOperator):\n"
            "    def __init__(self):\n"
            "        Operator.__init__(self, arity=1, ordered_output=True)\n"
        )
        findings = lint_source(code)
        assert codes(findings) == ["RLB010"]
        assert "ordered_output=True" in findings[0].message

    def test_router_subclass_is_covered_transitively(self):
        linter = Linter()
        linter.add_source("class Router(StatelessOperator):\n    pass\n", "box.py")
        linter.add_source(
            "class Tap(Router):\n"
            "    def _on_watermark(self, watermark):\n"
            "        self.area.expire(watermark)\n",
            "tap.py",
        )
        assert codes(linter.run()) == ["RLB010"]

    def test_operator_subclass_may_use_the_hooks(self):
        code = (
            "class CountWindow(Operator):\n"
            "    def __init__(self):\n"
            "        super().__init__(arity=1, ordered_output=False)\n"
            "    def _on_heartbeat(self, t, port):\n"
            "        pass\n"
            "    def _output_watermark(self, watermark):\n"
            "        return watermark\n"
        )
        assert lint_source(code) == []

    def test_the_relay_itself_is_exempt(self):
        code = (
            "class StatelessOperator(Operator):\n"
            "    def _advance(self):\n"
            "        pass\n"
        )
        assert lint_source(code) == []

    def test_second_copy_of_the_run_protocol_flagged(self):
        code = (
            "class Fast(Select):\n"
            "    def process(self, element, port=0):\n"
            "        self._emit(element)\n"
            "    def process_batch(self, batch, port=0):\n"
            "        if batch.first_start < self._watermarks[0]:\n"
            "            raise ValueError('out-of-order element on port 0')\n"
            "        self._watermarks[0] = batch.last_start\n"
            "        self._emit_batch(batch)\n"
        )
        linter = Linter()
        linter.add_source("class Select(StatelessOperator):\n    pass\n", "filter.py")
        linter.add_source(code, "src/repro/operators/fast.py")
        findings = linter.run()
        assert codes(findings) == ["RLB010"] * 3
        assert [f.line for f in findings] == [2, 4, 5]
        assert "written once in StatelessOperator" in findings[0].message

    def test_the_one_run_protocol_module_is_exempt(self):
        code = (
            "class _Helper(StatelessOperator):\n"
            "    def process_batch(self, batch, port=0):\n"
            "        self._watermarks[0] = batch.last_start\n"
        )
        assert lint_source(code, path="src/repro/operators/base.py") == []
        assert codes(lint_source(code, path="src/repro/operators/filter.py")) == [
            "RLB010",
            "RLB010",
        ]


class TestWholeTree:
    def test_src_tree_is_clean(self):
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        assert lint_paths([src]) == []

    def test_main_exit_codes(self, tmp_path, capsys):
        assert main([]) == 0  # default scan over src/repro
        bad = tmp_path / "engine" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import time\nx = time.time()\n", encoding="utf-8")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RLB001" in out


class TestWallClockRecoveryScope:
    def test_recovery_is_in_scope(self):
        code = "import time\n\ndef stamp():\n    return time.time()\n"
        findings = lint_source(code, path="src/repro/recovery/checkpoint.py")
        assert codes(findings) == ["RLB001"]

    def test_engine_is_in_scope(self):
        code = "from time import monotonic\n\nx = monotonic()\n"
        findings = lint_source(code, path="src/repro/engine/executor.py")
        assert codes(findings) == ["RLB001"]


class TestMutableGlobals:
    def test_module_level_list_flagged(self):
        code = "REGISTRY = []\n"
        findings = lint_source(code, path="src/repro/engine/registry.py")
        assert codes(findings) == ["RLB009"]
        assert "module state is shared" in findings[0].message

    def test_module_level_dict_call_flagged(self):
        code = "CACHE = dict()\n"
        findings = lint_source(code, path="src/repro/operators/cache.py")
        assert codes(findings) == ["RLB009"]

    def test_annotated_assignment_flagged(self):
        code = "CACHE: dict = {}\n"
        findings = lint_source(code, path="src/repro/engine/cache.py")
        assert codes(findings) == ["RLB009"]

    def test_global_statement_flagged(self):
        code = "DEBUG = False\n\n\ndef set_debug(enabled):\n    global DEBUG\n    DEBUG = enabled\n"
        findings = lint_source(code, path="src/repro/operators/switch.py")
        assert codes(findings) == ["RLB009"]
        assert findings[0].line == 5 and "global statement" in findings[0].message
        assert lint_source(code, path="src/repro/plans/switch.py") == []

    def test_dunder_all_exempt(self):
        code = "__all__ = ['QueryExecutor']\n"
        assert lint_source(code, path="src/repro/engine/__init__.py") == []

    def test_immutable_constants_allowed(self):
        code = "NAMES = ('a', 'b')\nAPIS = frozenset({'x'})\n"
        assert lint_source(code, path="src/repro/engine/constants.py") == []

    def test_class_and_function_bodies_allowed(self):
        code = (
            "class Gate:\n"
            "    def __init__(self):\n"
            "        self.sinks = []\n"
        )
        assert lint_source(code, path="src/repro/engine/gate.py") == []

    def test_outside_scope_allowed(self):
        code = "REGISTRY = {}\n"
        assert lint_source(code, path="src/repro/service/registry.py") == []


class TestFractionsImports:
    def test_fractions_import_flagged(self):
        for code in (
            "from fractions import Fraction\n",
            "import fractions\n",
            "import math, fractions as fr\n",
            "def pace(span, ranges):\n    from fractions import Fraction\n",
        ):
            findings = lint_source(code, path="src/repro/core/fluid.py")
            assert codes(findings) == ["RLB011"], code
        assert "half_before" in findings[0].message

    def test_flagged_in_every_layer(self):
        code = "from fractions import Fraction\n"
        for path in ("src/repro/temporal/time.py", "src/repro/recovery/checkpoint.py"):
            assert codes(lint_source(code, path=path)) == ["RLB011"], path

    def test_snapshot_codec_exempt(self):
        code = "from fractions import Fraction\n"
        assert lint_source(code, path="src/repro/recovery/snapshot.py") == []

    def test_similar_names_allowed(self):
        code = "from .fractions_util import half\nimport fractional\n"
        assert lint_source(code, path="src/repro/core/split.py") == []


class TestOutputFormats:
    def _bad_tree(self, tmp_path):
        bad = tmp_path / "engine" / "bad.py"
        bad.parent.mkdir(exist_ok=True)
        bad.write_text("import time\nx = time.time()\n", encoding="utf-8")
        return tmp_path

    def test_json_format(self, tmp_path, capsys):
        import json

        assert main([str(self._bad_tree(tmp_path)), "--format", "json"]) == 1
        findings = json.loads(capsys.readouterr().out)
        assert findings[0]["code"] == "RLB001"
        assert findings[0]["line"] == 2
        assert findings[0]["path"].endswith("bad.py")

    def test_json_format_empty_is_valid(self, tmp_path, capsys):
        import json

        clean = tmp_path / "ok.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main([str(clean), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_github_format(self, tmp_path, capsys):
        assert main([str(self._bad_tree(tmp_path)), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert "line=2" in out and "title=RLB001" in out

    def test_github_format_escapes_newlines(self):
        from repro.analysis.lint import LintFinding

        finding = LintFinding("p.py", 1, "RLB001", "line one\nline two")
        annotation = finding.github_annotation()
        assert "\n" not in annotation
        assert "%0A" in annotation

    def test_text_is_the_default(self, tmp_path, capsys):
        assert main([str(self._bad_tree(tmp_path))]) == 1
        assert "RLB001" in capsys.readouterr().out
