"""Tests of the benchmark's own logic: tracing arithmetic, tail rule, failure counting.

Run from the repository root with ``python3 -m pytest benchmarks``.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
from tracer import Instrumented, Tracer  # noqa: E402
from workloads import (ACCURACY_FLOOR, WORKLOADS, CheckFailed, OpResult,  # noqa: E402
                       ShiftReportWorkload)


class FakeClock:
    """A clock that advances only when the traced code says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)
    leaf = tracer.wrap("leaf", lambda: clock.advance(1.0))

    def middle_body():
        clock.advance(2.0)
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle_body)

    def outer_body():
        clock.advance(4.0)
        middle()
        clock.advance(8.0)
        leaf()

    tracer.wrap("outer", outer_body)()
    st = tracer.stats
    assert (st["leaf"].calls, st["leaf"].self_s) == (3, 3.0)
    assert (st["middle"].calls, st["middle"].self_s) == (1, 2.0)
    assert (st["outer"].calls, st["outer"].self_s) == (1, 12.0)
    # every unit of wall time is charged to exactly one span
    assert sum(s.self_s for s in st.values()) == clock.now == 17.0


def test_raising_span_counts_an_error_and_still_charges_its_parent():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    inner = tracer.wrap("inner", boom)

    def outer_body():
        clock.advance(2.0)
        with pytest.raises(ValueError):
            inner()

    tracer.wrap("outer", outer_body)()
    assert (tracer.stats["inner"].errors, tracer.stats["inner"].self_s) == (1, 1.0)
    assert (tracer.stats["outer"].errors, tracer.stats["outer"].self_s) == (0, 2.0)


@pytest.mark.parametrize("n, p", [(11, 9), (20, 50), (40, 75), (81, 87),
                                  (200, 95), (1000, 99)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, p):
    samples = [float(k) for k in range(n, 0, -1)]  # unsorted input
    got_p, value = run.tail_percentile(samples)
    assert got_p == p
    assert sum(x > value for x in samples) >= 10
    # one percentile higher would leave fewer than ten beyond it
    assert math.ceil((p + 1) * n / 100) > n - 10


def test_tail_below_eleven_samples_is_the_minimum():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (0, 1.0)


class ScriptedWorkload:
    """Two-cell cycle: the second cell raises, and a repeat of the first drifts."""

    cycle = ("ok", "raises")

    def key(self, i):
        return i % 2

    def op(self, pkg, state, i, clock):
        if i % 2 == 1:
            raise CheckFailed("scripted failure")
        return OpResult(b"same" if i == 0 else b"drift", 0.1, 10)


def test_failed_ops_are_counted_not_dropped():
    seen = {}
    outcomes = run.measure(ScriptedWorkload(), None, None, 0.0, seen)
    assert len(outcomes) == 2  # stops on a whole cycle, failure included
    assert outcomes[0].error is None and outcomes[1].error is not None
    assert "CheckFailed" in outcomes[1].error
    assert outcomes[1].seconds >= 0.0  # its time stays in the sample


def test_repeat_of_the_same_inputs_must_match_bit_for_bit():
    seen = {}
    first = run.run_op(ScriptedWorkload(), None, None, 0, seen)
    again = run.run_op(ScriptedWorkload(), None, None, 2, seen)
    assert first.error is None
    assert again.result is None and "differs" in again.error


@pytest.mark.parametrize("collapsed, fails", [(1, False), (3, True)])
def test_run_fails_a_method_only_when_its_median_accuracy_drops(collapsed, fails):
    workload = WORKLOADS["moons-paper"]
    cycle = len(workload.cycle)
    outcomes = [run.Outcome(k * cycle, 1.0,
                            OpResult(b"", 1.0, 1, accuracy=0.5 if k < collapsed else 0.95))
                for k in range(5)]
    summary = workload.check_run(outcomes)
    cell = workload.cycle[0].label
    assert summary[cell]["below_floor"] == collapsed
    assert (summary[cell]["median_accuracy"] < ACCURACY_FLOOR) == fails
    assert all((o.error is not None) == fails for o in outcomes)


def test_instrumented_wraps_importer_namespaces_and_restores():
    import copulashift.cli as cli
    import copulashift.models as models
    import copulashift.training as training
    originals = (models.extract_features, training.Adam.step, cli.shift_report)
    tracer = Tracer()
    with Instrumented(tracer):
        assert training.extract_features is models.extract_features
        assert models.extract_features is not originals[0]
        assert cli.shift_report is training.shift_report is not originals[2]
        assert training.Adam.step is not originals[1]
    assert (models.extract_features, training.Adam.step, cli.shift_report) == originals
    assert training.extract_features is originals[0]


@pytest.mark.parametrize("text", [
    "not json",
    '{"md_per_feature": [0.1], "cd": 0.0}',
    '{"md_per_feature": [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, -0.1], "cd": 0.0}',
    '{"md_per_feature": [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1], "cd": null}',
])
def test_shift_report_check_rejects_bad_reports(text):
    with pytest.raises(CheckFailed):
        ShiftReportWorkload.check(text)
