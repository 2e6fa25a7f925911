"""Tests for the determinism linter and double-run harness (repro.simlint).

Three layers:

* per-rule AST fixtures — each SIM1xx rule gets a positive snippet (must
  fire), a negative twin (must stay quiet), and a suppressed variant;
* the machinery — suppression directives, select/ignore filtering, the
  JSON reporter round-trip, the clock allowlist;
* the double-run harness localizing an injected divergence.

The suite ends with the gate itself: the repo's own ``src/repro`` tree
must lint clean with every rule enabled.
"""

import json
from pathlib import Path

import pytest

from repro.simlint import (
    CheckResult,
    Divergence,
    REGISTRY,
    Violation,
    all_codes,
    filter_codes,
    first_divergence,
    fix_source,
    format_json,
    format_text,
    in_clock_allowlist,
    lint_paths,
    lint_source,
    parse_suppressions,
    verify_double_run,
)

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def codes_of(violations):
    return [violation.code for violation in violations]


# ----------------------------------------------------------------------
# Rule fixtures: positive / negative / suppressed
# ----------------------------------------------------------------------
class TestSim101WallClock:
    def test_time_module_read_fires(self):
        violations = lint_source("import time\nstart = time.perf_counter()\n")
        assert codes_of(violations) == ["SIM101"]
        assert violations[0].line == 2

    def test_datetime_now_fires(self):
        source = "import datetime\nstamp = datetime.datetime.now()\n"
        assert "SIM101" in codes_of(lint_source(source))

    def test_from_time_import_fires(self):
        assert "SIM101" in codes_of(lint_source("from time import monotonic\n"))

    def test_virtual_time_is_clean(self):
        assert lint_source("t = sim.now\nsim.schedule(1.0, tick)\n") == []

    def test_time_sleep_is_not_a_clock_read(self):
        # sleep() blocks but does not *read* the clock into sim state.
        assert lint_source("import time\ntime.sleep(0)\n") == []

    def test_line_suppression(self):
        source = "import time\nt = time.time()  # simlint: disable=SIM101\n"
        assert lint_source(source) == []

    def test_clock_allowlist_path(self):
        source = "import time\nt = time.perf_counter()\n"
        assert lint_source(source, path="benchmarks/bench_engine.py") == []
        # The trace feeds the double-run gate, so obs gets no waiver.
        assert codes_of(lint_source(source, path="src/repro/obs/trace.py")) \
            == ["SIM101"]
        assert codes_of(lint_source(source, path="src/repro/netsim/x.py")) \
            == ["SIM101"]


class TestSim102GlobalRng:
    def test_module_draw_fires(self):
        violations = lint_source("import random\nx = random.random()\n")
        assert codes_of(violations) == ["SIM102"]

    def test_from_import_draw_fires(self):
        assert "SIM102" in codes_of(lint_source("from random import choice\n"))

    def test_seeded_stream_is_clean(self):
        source = (
            "import random\n"
            "rng = random.Random(f\"{seed}-churn\")\n"
            "x = rng.random()\n"
        )
        assert lint_source(source) == []

    def test_seed_call_fires(self):
        assert "SIM102" in codes_of(
            lint_source("import random\nrandom.seed(7)\n"))


class TestSim103UnorderedIteration:
    def test_set_literal_into_schedule_fires(self):
        source = (
            "for node in {a, b, c}:\n"
            "    sim.schedule(1.0, node.tick)\n"
        )
        assert codes_of(lint_source(source)) == ["SIM103"]

    def test_set_call_into_emit_fires(self):
        source = (
            "for name in set(names):\n"
            "    tracer.emit('boot', t, name=name)\n"
        )
        assert "SIM103" in codes_of(lint_source(source))

    def test_assigned_set_name_is_tracked(self):
        source = (
            "pending = set()\n"
            "for item in pending:\n"
            "    heappush(queue, item)\n"
        )
        assert "SIM103" in codes_of(lint_source(source))

    def test_sorted_set_is_clean(self):
        source = (
            "for node in sorted({a, b, c}, key=lambda n: n.name):\n"
            "    sim.schedule(1.0, node.tick)\n"
        )
        assert lint_source(source) == []

    def test_set_iteration_without_sink_is_clean(self):
        source = "total = 0\nfor x in {1, 2, 3}:\n    total += x\n"
        assert lint_source(source) == []


class TestSim104MutableDefault:
    def test_list_default_fires(self):
        assert codes_of(lint_source("def f(xs=[]):\n    return xs\n")) \
            == ["SIM104"]

    def test_ctor_default_fires(self):
        assert "SIM104" in codes_of(
            lint_source("def f(xs=dict()):\n    return xs\n"))

    def test_kwonly_default_fires(self):
        assert "SIM104" in codes_of(
            lint_source("def f(*, xs={}):\n    return xs\n"))

    def test_none_default_is_clean(self):
        assert lint_source("def f(xs=None):\n    return xs or []\n") == []

    def test_tuple_default_is_clean(self):
        assert lint_source("def f(xs=(1, 2)):\n    return xs\n") == []


class TestSim105FloatTimeEq:
    def test_time_arithmetic_eq_fires(self):
        source = "if now + delay == deadline:\n    pass\n"
        assert codes_of(lint_source(source)) == ["SIM105"]

    def test_attribute_time_noteq_fires(self):
        source = "ready = sim.now - start_time != 0.0\n"
        assert "SIM105" in codes_of(lint_source(source))

    def test_plain_comparison_is_clean(self):
        assert lint_source("if now == deadline:\n    pass\n") == []

    def test_non_time_arithmetic_is_clean(self):
        assert lint_source("if count + 1 == total:\n    pass\n") == []

    def test_inequality_is_clean(self):
        assert lint_source("if now + delay >= deadline:\n    pass\n") == []


class TestSim106IdSortKey:
    def test_key_id_fires(self):
        assert codes_of(lint_source("order = sorted(nodes, key=id)\n")) \
            == ["SIM106"]

    def test_lambda_id_fires(self):
        assert "SIM106" in codes_of(
            lint_source("nodes.sort(key=lambda n: id(n))\n"))

    def test_stable_key_is_clean(self):
        assert lint_source("order = sorted(nodes, key=lambda n: n.name)\n") == []


class TestSim107LoopClosureCallback:
    def test_captured_loop_var_fires(self):
        source = (
            "for dev in devices:\n"
            "    sim.schedule(1.0, lambda: dev.boot())\n"
        )
        violations = lint_source(source)
        assert codes_of(violations) == ["SIM107"]
        assert "dev" in violations[0].message

    def test_default_arg_binding_is_clean(self):
        source = (
            "for dev in devices:\n"
            "    sim.schedule(1.0, lambda dev=dev: dev.boot())\n"
        )
        assert lint_source(source) == []

    def test_direct_bound_method_is_clean(self):
        source = (
            "for dev in devices:\n"
            "    sim.schedule(1.0, dev.boot)\n"
        )
        assert lint_source(source) == []

    def test_unscheduled_lambda_is_clean(self):
        # Only schedule* sinks defer execution past the loop.
        source = (
            "for dev in devices:\n"
            "    apply(lambda: dev.boot())\n"
        )
        assert lint_source(source) == []


class TestSim100SyntaxError:
    def test_unparseable_source_reports_sim100(self):
        violations = lint_source("def broken(:\n")
        assert codes_of(violations) == ["SIM100"]
        assert "syntax error" in violations[0].message


# ----------------------------------------------------------------------
# Machinery: suppressions, filtering, allowlist
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_file_disable(self):
        source = (
            "# simlint: file-disable=SIM102\n"
            "import random\n"
            "x = random.random()\n"
            "t = time.time()\n"
        )
        assert codes_of(lint_source(source)) == ["SIM101"]

    def test_disable_all_on_line(self):
        source = "x = random.random()  # simlint: disable=all\n"
        assert lint_source(source) == []

    def test_multiple_codes_in_one_directive(self):
        parsed = parse_suppressions(
            "# simlint: file-disable=SIM101,SIM105\n")
        assert parsed.file_codes == {"SIM101", "SIM105"}

    def test_suppression_is_line_scoped(self):
        source = (
            "a = time.time()  # simlint: disable=SIM101\n"
            "b = time.time()\n"
        )
        violations = lint_source(source)
        assert [(v.code, v.line) for v in violations] == [("SIM101", 2)]

    def test_unrelated_comment_is_not_a_directive(self):
        assert parse_suppressions("# simlint is great\n").file_codes == set()


class TestSelectIgnore:
    def test_select_narrows(self):
        source = "import time\nt = time.time()\nx = random.random()\n"
        assert codes_of(lint_source(source, select=["SIM102"])) == ["SIM102"]

    def test_ignore_drops(self):
        source = "import time\nt = time.time()\nx = random.random()\n"
        assert codes_of(lint_source(source, ignore=["SIM102"])) == ["SIM101"]

    def test_unknown_select_raises(self):
        with pytest.raises(ValueError, match="SIM999"):
            filter_codes(all_codes(), select=["SIM999"])

    def test_registry_has_all_rules(self):
        assert all_codes() == [
            "SIM101", "SIM102", "SIM103", "SIM104", "SIM105", "SIM106",
            "SIM107", "SIM108",
        ]
        for code, registered in REGISTRY.items():
            assert registered.code == code
            assert registered.name
            assert registered.summary


class TestClockAllowlist:
    def test_benchmark_dirs_and_files(self):
        assert in_clock_allowlist("benchmarks/bench_engine.py")
        assert in_clock_allowlist("tests/bench_scheduler.py")

    def test_sim_paths_are_not_allowlisted(self):
        assert not in_clock_allowlist("src/repro/netsim/simulator.py")
        assert not in_clock_allowlist("src/repro/core/framework.py")
        assert not in_clock_allowlist("src/repro/obs/trace.py")


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
class TestReporters:
    VIOLATIONS = [
        Violation(path="a.py", line=3, col=4, code="SIM101", message="wall"),
        Violation(path="b.py", line=9, col=0, code="SIM102", message="rng"),
        Violation(path="b.py", line=12, col=8, code="SIM102", message="rng2"),
    ]

    def test_json_round_trip(self):
        document = json.loads(format_json(self.VIOLATIONS))
        assert document["violations"] == [
            violation.to_dict() for violation in self.VIOLATIONS
        ]

    def test_json_document_shape(self):
        document = json.loads(format_json(self.VIOLATIONS))
        assert document["schema_version"] == 3
        assert document["tool"] == "repro.simlint"
        assert document["counts"] == {"SIM101": 1, "SIM102": 2}
        assert set(document["rules"]) == set(all_codes())
        assert document["rules"]["SIM101"] == {
            "name": "wall-clock",
            "summary": REGISTRY["SIM101"].summary,
        }

    def test_text_report(self):
        text = format_text(self.VIOLATIONS)
        assert "a.py:3:4: SIM101 wall" in text
        assert "3 violation(s) (SIM101=1, SIM102=2)" in text

    def test_text_report_clean(self):
        assert "clean" in format_text([])


# ----------------------------------------------------------------------
# Double-run harness: divergence localization
# ----------------------------------------------------------------------
class TestFirstDivergence:
    def test_identical_sequences(self):
        assert first_divergence(["a", "b"], ["a", "b"]) is None

    def test_mid_sequence_divergence(self):
        divergence = first_divergence(["a", "b", "c"], ["a", "X", "c"])
        assert divergence == Divergence(index=1, left="b", right="X")

    def test_length_mismatch(self):
        divergence = first_divergence(["a"], ["a", "extra"])
        assert divergence.index == 1
        assert divergence.left is None
        assert divergence.right == "extra"


class TestVerifyDoubleRun:
    def test_deterministic_runner_passes(self):
        def run_fn(config):
            return "result", ["event-0", "event-1"]

        check = verify_double_run(None, run_fn=run_fn)
        assert isinstance(check, CheckResult)
        assert check.identical
        assert check.compared == 2

    def test_injected_trace_divergence_is_localized(self):
        calls = []

        def run_fn(config):
            calls.append(None)
            # Second run flips event #2 — the harness must name exactly it.
            tag = "A" if len(calls) == 1 else "B"
            return "result", ["event-0", "event-1", f"event-2-{tag}",
                              "event-3"]

        check = verify_double_run(None, run_fn=run_fn)
        assert not check.identical
        assert check.divergence.index == 2
        assert check.divergence.left == "event-2-A"
        assert check.divergence.right == "event-2-B"

    def test_result_divergence_without_trace_divergence(self):
        calls = []

        def run_fn(config):
            calls.append(None)
            return f"result-{len(calls)}", ["event-0"]

        check = verify_double_run(None, run_fn=run_fn)
        assert not check.identical
        assert "results differ" in check.detail


# ----------------------------------------------------------------------
# The gate: the repo's own sim tree must lint clean
# ----------------------------------------------------------------------
class TestRepoIsClean:
    def test_src_repro_lints_clean(self):
        violations = lint_paths([str(REPO_SRC)])
        assert violations == [], format_text(violations)


class TestLintPathsOrder:
    def test_findings_sorted_by_path_not_walk_order(self, tmp_path):
        # os.walk yields the top-level b.py before descending into a/
        (tmp_path / "b.py").write_text("import random\nx = random.random()\n")
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "x.py").write_text("import time\nt = time.time()\n")
        paths = [Path(violation.path).relative_to(tmp_path).as_posix()
                 for violation in lint_paths([str(tmp_path)])]
        assert paths == ["a/x.py", "b.py"]


# ----------------------------------------------------------------------
# SIM108 — unused imports
# ----------------------------------------------------------------------
class TestSim108UnusedImport:
    def test_unused_plain_import_fires(self):
        violations = lint_source("import os\nimport sys\nprint(sys.argv)\n",
                                 path="mod.py")
        assert codes_of(violations) == ["SIM108"]
        assert "`import os`" in violations[0].message

    def test_unused_from_import_fires(self):
        source = "from collections import deque, OrderedDict\nq = deque()\n"
        violations = lint_source(source, path="mod.py")
        assert codes_of(violations) == ["SIM108"]
        assert "OrderedDict" in violations[0].message

    def test_used_imports_stay_quiet(self):
        source = "import os\nprint(os.sep)\n"
        assert lint_source(source, path="mod.py") == []

    def test_init_py_is_exempt(self):
        source = "from repro.core import thing\n"
        assert lint_source(source, path="pkg/__init__.py") == []

    def test_reexport_idiom_stays_quiet(self):
        source = "from typing import List as List\n"
        assert lint_source(source, path="mod.py") == []

    def test_dunder_all_counts_as_use(self):
        source = "from x import helper\n__all__ = ['helper']\n"
        assert lint_source(source, path="mod.py") == []

    def test_type_checking_block_is_exempt(self):
        source = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from heavy import Thing\n"
            "def f(x):\n"
            "    return x\n"
        )
        assert lint_source(source, path="mod.py") == []

    def test_suppression_comment(self):
        source = "import registry_side_effect  # simlint: disable=SIM108\n"
        assert lint_source(source, path="mod.py") == []

    def test_stacked_noqa_then_simlint_directive(self):
        source = "import plugin  # noqa: F401  # simlint: disable=SIM108\n"
        assert lint_source(source, path="mod.py") == []


# ----------------------------------------------------------------------
# --fix: the autofixer (SIM104 + SIM108)
# ----------------------------------------------------------------------
class TestAutofix:
    def test_mutable_default_rewritten_to_none_sentinel(self):
        source = (
            "def f(a, items=[]):\n"
            "    items.append(a)\n"
            "    return items\n"
        )
        fixed, n = fix_source(source, path="mod.py")
        assert n == 1
        assert "items=None" in fixed
        assert "if items is None:" in fixed
        assert "items = []" in fixed
        assert codes_of(lint_source(fixed, path="mod.py")) == []

    def test_rebuild_lands_after_docstring(self):
        source = (
            'def f(items=[]):\n'
            '    """Doc line."""\n'
            '    return items\n'
        )
        fixed, _ = fix_source(source, path="mod.py")
        lines = fixed.splitlines()
        assert lines[1] == '    """Doc line."""'
        assert lines[2] == "    if items is None:"

    def test_kwonly_and_call_defaults(self):
        source = (
            "def f(*, cache={}, q=deque()):\n"
            "    return cache, q\n"
        )
        fixed, n = fix_source(source, path="mod.py")
        assert n == 2
        assert "cache=None" in fixed and "q=None" in fixed
        assert "cache = {}" in fixed and "q = deque()" in fixed

    def test_unused_alias_dropped_keeping_the_rest(self):
        source = "from collections import deque, OrderedDict\nq = deque()\n"
        fixed, n = fix_source(source, path="mod.py")
        assert n == 1
        assert fixed.splitlines()[0] == "from collections import deque"

    def test_fully_unused_statement_deleted(self):
        source = "import os\nx = 1\n"
        fixed, n = fix_source(source, path="mod.py")
        assert n == 1
        assert fixed == "x = 1\n"

    def test_suppressed_import_survives_fix(self):
        source = "import plugin  # simlint: disable=SIM108\nx = 1\n"
        fixed, n = fix_source(source, path="mod.py")
        assert n == 0
        assert fixed == source

    def test_type_checking_import_survives_fix(self):
        source = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from heavy import Thing\n"
            "x = 1\n"
        )
        fixed, n = fix_source(source, path="mod.py")
        assert (fixed, n) == (source, 0)

    def test_fix_is_idempotent(self):
        source = (
            "import os\n"
            "import sys\n"
            "def f(a, items=[], *, cache={}):\n"
            "    items.append(a)\n"
            "    return items, cache, sys.argv\n"
        )
        once, n1 = fix_source(source, path="mod.py")
        twice, n2 = fix_source(once, path="mod.py")
        assert n1 == 3
        assert n2 == 0
        assert twice == once

    def test_unparsable_source_returned_unchanged(self):
        source = "def broken(:\n"
        assert fix_source(source, path="mod.py") == (source, 0)

    def test_multiline_import_keeps_layout_and_comments(self):
        source = (
            "if True:\n"
            "    from collections import (  # stdlib\n"
            "        # containers\n"
            "        OrderedDict,\n"
            "        deque,  # the work queue\n"
            "        namedtuple as nt,\n"
            "        # helpers\n"
            "        ChainMap,\n"
            "    )  # noqa\n"
            "q, p = deque(), nt\n"
        )
        once, n1 = fix_source(source, path="mod.py")
        twice, n2 = fix_source(once, path="mod.py")
        assert (n1, n2) == (2, 0)
        assert twice == once == (
            "if True:\n"
            "    from collections import (  # stdlib\n"
            "        # containers\n"
            "        deque,  # the work queue\n"
            "        namedtuple as nt,\n"
            "        # helpers\n"
            "    )  # noqa\n"
            "q, p = deque(), nt\n"
        )
        assert codes_of(lint_source(once, path="mod.py")) == []

    def test_single_line_import_keeps_trailing_comment(self):
        source = ("from collections import deque, OrderedDict  # hot path\n"
                  "q = deque()\n")
        fixed, n = fix_source(source, path="mod.py")
        assert n == 1
        assert fixed.splitlines()[0] == "from collections import deque  # hot path"

    def test_fix_paths_rewrites_on_disk(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import os\nx = 1\n")
        from repro.simlint import fix_paths

        total, changed = fix_paths([str(tmp_path)])
        assert total == 1
        assert changed == [str(target)]
        assert target.read_text() == "x = 1\n"
        assert fix_paths([str(tmp_path)]) == (0, [])


# ----------------------------------------------------------------------
# --select/--ignore prefix matching
# ----------------------------------------------------------------------
class TestPrefixSelect:
    CODES = ["SIM101", "SIM108", "SIM110"]

    def test_select_family_prefix(self):
        assert filter_codes(self.CODES, select=["SIM10"]) == [
            "SIM101", "SIM108",
        ]
        assert filter_codes(all_codes(), select=["SIM10"]) == all_codes()

    def test_ignore_family_prefix(self):
        assert filter_codes(self.CODES, ignore=["SIM10"]) == ["SIM110"]
        assert filter_codes(all_codes(), ignore=["SIM10"]) == []

    def test_unknown_prefix_still_raises(self):
        with pytest.raises(ValueError, match="SIM9"):
            filter_codes(all_codes(), select=["SIM9"])


