"""Unit tests for the static schedulability engine.

Everything here is pure task-set mathematics (no model execution):
epsilon-guarded ceilings, exact RTA against hand-computed fixed points,
priority-ceiling blocking, jitter/self-suspension terms, partitioned
analysis, first-fit packing, sensitivity bisection and the model-derived
task-set mappings.  Hypothesis properties pin the two invariants the
paper's analysis story rests on: RTA is monotone in WCET, and exact RTA
never rejects a set the Liu–Layland sufficient test accepts.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.schedulability import (
    CEIL_EPS,
    CriticalSection,
    RTAResult,
    SchedulabilityError,
    SensitivityResult,
    Task,
    TaskSet,
    UtilisationResult,
    _ceil_eps,
    blocking_terms,
    first_fit_partition,
    liu_layland_bound,
    min_feasible_sync_interval,
    response_time_analysis,
    sched_report,
    sensitivity,
    taskset_from_model,
    taskset_schedulable,
    utilisation_test,
)
from repro.core.model import HybridModel

from tests.conftest import ConstLeaf, GainLeaf


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def two_rate_model(fast_h=2e-5, slow_h=1e-3, share=True) -> HybridModel:
    """Two threads at different minor steps; optionally sharing a params
    dict across them (the SCHED002/SCHED003 priority-inversion setup)."""
    model = HybridModel("two-rate")
    fast = model.create_thread("fast", h=fast_h)
    slow = model.create_thread("slow", h=slow_h)
    src = model.add_streamer(ConstLeaf("src"), thread=fast)
    a = model.add_streamer(GainLeaf("a"), thread=slow)
    b = model.add_streamer(GainLeaf("b"), thread=slow)
    model.add_flow(src.dport("y"), a.dport("u"))
    model.add_flow(a.dport("y"), b.dport("u"))
    if share:
        shared = a.params
        b.params = shared
        src.params = shared
    return model


# ----------------------------------------------------------------------
# ceilings and bounds
# ----------------------------------------------------------------------
class TestCeilEps:
    def test_exact_integer(self):
        assert _ceil_eps(3.0) == 3

    def test_fp_overshoot_regression(self):
        # 0.3 / 0.1 in floats is 2.9999999999999996's cousin — a ratio
        # landing just above an integer must not buy an extra preemption
        assert _ceil_eps(3.0000000000000004) == 3
        assert _ceil_eps(0.30000000000000004 / 0.1) == 3

    def test_genuine_fraction_still_ceils(self):
        assert _ceil_eps(2.5) == 3
        assert _ceil_eps(3.0 + 1e-6) == 4

    def test_non_negative(self):
        assert _ceil_eps(0.0) == 0
        assert _ceil_eps(-2.5) == 0

    def test_relative_guard_scales(self):
        # at ratio 1e6 the absolute guard is eps * 1e6 = 1e-3, so an
        # overshoot of 1e-4 is still forgiven
        assert _ceil_eps(1e6 + 1e-4) == 1_000_000


class TestLiuLayland:
    def test_single_task_bound_is_one(self):
        assert liu_layland_bound(1) == pytest.approx(1.0)

    def test_two_tasks(self):
        assert liu_layland_bound(2) == pytest.approx(2 * (2 ** 0.5 - 1))

    def test_limit_is_ln2(self):
        assert liu_layland_bound(10_000) == pytest.approx(
            math.log(2), rel=1e-4
        )

    def test_rejects_empty(self):
        with pytest.raises(SchedulabilityError):
            liu_layland_bound(0)


# ----------------------------------------------------------------------
# task validation
# ----------------------------------------------------------------------
class TestTaskValidation:
    def test_non_positive_wcet(self):
        with pytest.raises(SchedulabilityError, match="non-positive WCET"):
            Task("t", wcet=0.0, period=1.0)

    def test_non_positive_period(self):
        with pytest.raises(SchedulabilityError, match="period"):
            Task("t", wcet=0.1, period=0.0)

    def test_negative_jitter(self):
        with pytest.raises(SchedulabilityError, match="jitter"):
            Task("t", wcet=0.1, period=1.0, jitter=-0.1)

    def test_negative_self_suspension(self):
        with pytest.raises(SchedulabilityError, match="self-suspension"):
            Task("t", wcet=0.1, period=1.0, self_suspension=-1.0)

    def test_deadline_below_wcet(self):
        with pytest.raises(SchedulabilityError, match="deadline"):
            Task("t", wcet=0.5, period=1.0, deadline=0.4)

    def test_negative_critical_section(self):
        with pytest.raises(SchedulabilityError, match="negative"):
            CriticalSection("r", -1.0)

    def test_implicit_deadline_is_period(self):
        assert Task("t", wcet=0.1, period=2.0).effective_deadline == 2.0

    def test_as_dict_shape(self):
        task = Task(
            "t", wcet=0.1, period=1.0, deadline=0.8,
            critical_sections=(CriticalSection("r", 0.05),),
        )
        payload = task.as_dict()
        assert payload["deadline"] == 0.8
        assert payload["critical_sections"] == [
            {"resource": "r", "duration": 0.05}
        ]


class TestPriorityOrder:
    def test_deadline_monotonic_default(self):
        ts = TaskSet([
            Task("late", wcet=0.1, period=10.0, deadline=5.0),
            Task("soon", wcet=0.1, period=10.0, deadline=2.0),
        ])
        assert [t.name for t in ts.deadline_monotonic_order()] == [
            "soon", "late",
        ]

    def test_explicit_priority_wins(self):
        ts = TaskSet([
            Task("urgent", wcet=0.1, period=10.0, priority=0),
            Task("fast", wcet=0.1, period=1.0),
        ])
        assert [t.name for t in ts.deadline_monotonic_order()] == [
            "urgent", "fast",
        ]

    def test_rate_monotonic_order(self):
        ts = TaskSet([
            Task("slow", wcet=0.1, period=10.0),
            Task("fast", wcet=0.1, period=1.0),
        ])
        assert [t.name for t in ts.rate_monotonic_order()] == [
            "fast", "slow",
        ]

    def test_unknown_policy_rejected(self):
        ts = TaskSet([Task("t", wcet=0.1, period=1.0)])
        with pytest.raises(SchedulabilityError, match="policy"):
            response_time_analysis(ts, policy="edf")


# ----------------------------------------------------------------------
# exact RTA
# ----------------------------------------------------------------------
class TestResponseTimeAnalysis:
    def textbook(self) -> TaskSet:
        # classic three-task example: R = (1, 3, 10) by hand iteration
        return TaskSet([
            Task("a", wcet=1.0, period=4.0),
            Task("b", wcet=2.0, period=6.0),
            Task("c", wcet=3.0, period=12.0),
        ])

    def test_textbook_fixed_points(self):
        result = response_time_analysis(self.textbook())
        assert result["a"].response_time == pytest.approx(1.0)
        assert result["b"].response_time == pytest.approx(3.0)
        assert result["c"].response_time == pytest.approx(10.0)
        assert result.schedulable
        assert all(r.converged for r in result)

    def test_interference_breakdown(self):
        result = response_time_analysis(self.textbook())
        interference = result["c"].interference
        # at R=10: ceil(10/4)*1 = 3 from a, ceil(10/6)*2 = 4 from b
        assert interference["a"] == pytest.approx(3.0)
        assert interference["b"] == pytest.approx(4.0)

    def test_deadline_miss_detected(self):
        ts = TaskSet([
            Task("a", wcet=2.0, period=4.0),
            Task("b", wcet=3.0, period=6.0, deadline=6.0),
        ])
        result = response_time_analysis(ts)
        # b: R = 3 + ceil(R/4)*2 -> 5 -> 7 > 6: settled early
        assert not result["b"].schedulable
        assert result["b"].converged
        assert result.failing and result.failing[0].name == "b"
        assert not taskset_schedulable(ts)

    def test_jitter_charges_interference_and_deadline(self):
        base = TaskSet([
            Task("hi", wcet=1.0, period=4.0, deadline=3.0),
            Task("lo", wcet=2.9, period=8.0, deadline=3.9),
        ])
        assert response_time_analysis(base).schedulable
        jittered = TaskSet([
            Task("hi", wcet=1.0, period=4.0, deadline=3.0),
            Task("lo", wcet=2.9, period=8.0, deadline=3.9, jitter=0.2),
        ])
        # R is unchanged but R + J now exceeds the deadline
        result = response_time_analysis(jittered)
        assert result["lo"].response_time == pytest.approx(3.9)
        assert not result["lo"].schedulable

    def test_self_suspension_inflates_response(self):
        ts = TaskSet([
            Task("t", wcet=1.0, period=10.0, self_suspension=0.5),
        ])
        result = response_time_analysis(ts)
        assert result["t"].response_time == pytest.approx(1.5)
        assert result["t"].self_suspension == 0.5

    def test_non_convergence_reported(self):
        ts = TaskSet([
            Task("hi", wcet=1.0, period=2.0),
            Task("lo", wcet=10.0, period=100.0),
        ])
        starved = response_time_analysis(ts, max_iterations=2)
        assert not starved["lo"].converged
        assert not starved["lo"].schedulable
        assert not starved.schedulable
        # with enough iterations the same set converges to R = 20
        full = response_time_analysis(ts)
        assert full["lo"].converged
        assert full["lo"].response_time == pytest.approx(20.0)

    def test_partitions_do_not_interfere(self):
        heavy = dict(wcet=3.0, period=4.0)
        together = TaskSet([
            Task("a", **heavy), Task("b", **heavy),
        ])
        assert not response_time_analysis(together).schedulable
        apart = TaskSet([
            Task("a", partition="cpu0", **heavy),
            Task("b", partition="cpu1", **heavy),
        ])
        result = response_time_analysis(apart)
        assert result.schedulable
        assert result["a"].response_time == pytest.approx(3.0)
        assert result["b"].response_time == pytest.approx(3.0)

    def test_as_dict_is_json_shaped(self):
        payload = response_time_analysis(self.textbook()).as_dict()
        assert set(payload) == {"a", "b", "c"}
        assert payload["a"]["schedulable"] is True
        assert isinstance(payload["c"]["interference"], dict)


class TestBlocking:
    def three_with_sections(self) -> TaskSet:
        # low holds a resource the high task also locks: ceiling is
        # high's priority, so high and mid can both be blocked by low
        return TaskSet([
            Task("high", wcet=1.0, period=4.0,
                 critical_sections=(CriticalSection("lock", 0.3),)),
            Task("mid", wcet=1.0, period=6.0),
            Task("low", wcet=1.0, period=12.0,
                 critical_sections=(CriticalSection("lock", 1.5),)),
        ])

    def test_blocking_terms(self):
        ordered = self.three_with_sections().deadline_monotonic_order()
        terms = blocking_terms(ordered)
        assert terms == {"high": 1.5, "mid": 1.5, "low": 0.0}

    def test_low_ceiling_does_not_block_high(self):
        # resource used only by the two lowest tasks: its ceiling sits
        # below the top task, which therefore cannot be blocked by it
        ts = TaskSet([
            Task("high", wcet=1.0, period=4.0),
            Task("mid", wcet=1.0, period=6.0,
                 critical_sections=(CriticalSection("r", 0.2),)),
            Task("low", wcet=1.0, period=12.0,
                 critical_sections=(CriticalSection("r", 0.9),)),
        ])
        terms = blocking_terms(ts.deadline_monotonic_order())
        assert terms == {"high": 0.0, "mid": 0.9, "low": 0.0}

    def test_blocking_breaks_tight_deadline(self):
        ts = TaskSet([
            Task("high", wcet=1.0, period=4.0, deadline=2.0,
                 critical_sections=(CriticalSection("lock", 0.1),)),
            Task("low", wcet=1.0, period=12.0,
                 critical_sections=(CriticalSection("lock", 1.5),)),
        ])
        assert response_time_analysis(
            ts, with_blocking=False
        ).schedulable
        blocked = response_time_analysis(ts, with_blocking=True)
        assert not blocked.schedulable
        assert blocked["high"].blocking == pytest.approx(1.5)


# ----------------------------------------------------------------------
# utilisation test, partitioning, sensitivity
# ----------------------------------------------------------------------
class TestUtilisation:
    def test_pass(self):
        ts = TaskSet([Task("t", wcet=0.5, period=1.0)])
        result = utilisation_test(ts)
        assert isinstance(result, UtilisationResult)
        assert result.passes is True
        assert result.as_dict()["passes"] is True

    def test_fail_above_bound(self):
        ts = TaskSet([
            Task("a", wcet=0.5, period=1.0),
            Task("b", wcet=0.4, period=1.0),
        ])
        result = utilisation_test(ts)
        assert result.passes is False
        assert result.utilisation == pytest.approx(0.9)


class TestFirstFit:
    def test_split_across_processors(self):
        ts = TaskSet([
            Task("a", wcet=3.0, period=4.0),
            Task("b", wcet=3.0, period=4.0),
        ])
        result = first_fit_partition(ts, processors=2)
        assert result.feasible
        assert set(result.assignment.values()) == {"cpu0", "cpu1"}
        assert not result.unassigned
        assert all(
            analysis.schedulable
            for analysis in result.analysis.values()
        )

    def test_overflow_reported_unassigned(self):
        ts = TaskSet([
            Task("a", wcet=3.0, period=4.0),
            Task("b", wcet=3.0, period=4.0),
            Task("c", wcet=3.0, period=4.0),
        ])
        result = first_fit_partition(ts, processors=2)
        assert not result.feasible
        assert len(result.unassigned) == 1

    def test_needs_a_processor(self):
        with pytest.raises(SchedulabilityError, match="processor"):
            first_fit_partition(TaskSet(), processors=0)


class TestSensitivity:
    def test_single_task_scales_to_deadline(self):
        ts = TaskSet([Task("t", wcet=1.0, period=2.0)])
        result = sensitivity(ts)
        assert isinstance(result, SensitivityResult)
        assert result.wcet_scale_max == pytest.approx(2.0, rel=1e-6)
        assert result.headroom == pytest.approx(1.0, rel=1e-6)
        assert result.utilisation_at_max == pytest.approx(1.0, rel=1e-6)

    def test_infeasible_set_reports_shrink_factor(self):
        ts = TaskSet([
            Task("a", wcet=3.0, period=4.0),
            Task("b", wcet=3.0, period=4.0),
        ])
        result = sensitivity(ts)
        assert result.wcet_scale_max < 1.0
        assert result.headroom == 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(SchedulabilityError, match="empty"):
            sensitivity(TaskSet())


# ----------------------------------------------------------------------
# model derivation
# ----------------------------------------------------------------------
class TestTasksetFromModel:
    def test_sync_granularity_uses_execution_order(self):
        ts = taskset_from_model(two_rate_model(), 0.01)
        by_name = {t.name: t for t in ts}
        assert by_name["streamer:fast"].priority == 0
        assert by_name["streamer:slow"].priority == 1
        assert by_name["streamer:fast"].period == 0.01
        assert by_name["streamer:slow"].period == 0.01

    def test_minor_granularity_uses_thread_steps(self):
        ts = taskset_from_model(two_rate_model(), 0.01, granularity="minor")
        by_name = {t.name: t for t in ts}
        assert by_name["streamer:fast"].period == pytest.approx(2e-5)
        assert by_name["streamer:slow"].period == pytest.approx(1e-3)
        assert by_name["streamer:fast"].priority is None

    def test_shared_state_becomes_critical_sections(self):
        ts = taskset_from_model(two_rate_model(), 0.01, granularity="minor")
        by_name = {t.name: t for t in ts}
        assert by_name["streamer:fast"].critical_sections
        assert by_name["streamer:slow"].critical_sections
        fast_resources = set(by_name["streamer:fast"].resources)
        assert fast_resources & set(by_name["streamer:slow"].resources)

    def test_no_sharing_no_sections(self):
        ts = taskset_from_model(
            two_rate_model(share=False), 0.01, granularity="minor",
        )
        assert all(not t.critical_sections for t in ts)

    def test_blocking_only_failure_on_two_rate_share(self):
        """The ISSUE's acceptance case: plain RTA accepts the minor-step
        set, blocking-aware RTA rejects it."""
        ts = taskset_from_model(two_rate_model(), 0.01, granularity="minor")
        assert response_time_analysis(
            ts, with_blocking=False
        ).schedulable
        assert not response_time_analysis(
            ts, with_blocking=True
        ).schedulable

    def test_bad_sync_interval(self):
        with pytest.raises(SchedulabilityError, match="sync interval"):
            taskset_from_model(two_rate_model(), 0.0)

    def test_bad_granularity(self):
        with pytest.raises(SchedulabilityError, match="granularity"):
            taskset_from_model(two_rate_model(), 0.01, granularity="major")

    def test_min_feasible_sync_interval_bisects(self):
        model = two_rate_model(share=False)
        minimum = min_feasible_sync_interval(model, iterations=32)
        assert minimum is not None
        # feasible at the returned interval, infeasible well below it
        ts = taskset_from_model(model, minimum)
        assert response_time_analysis(ts).schedulable
        # well below the minimum the set is infeasible — either a task
        # invariant breaks outright (WCET > period) or RTA rejects it
        try:
            tight = taskset_from_model(model, minimum / 4)
        except SchedulabilityError:
            pass
        else:
            assert not response_time_analysis(tight).schedulable

    def test_sched_report_shape(self):
        report = sched_report(two_rate_model(), 0.01)
        assert report["schedulable"] in (True, False)
        assert report["tasks"]
        assert "rta" in report and "sensitivity" in report
        assert report["blocking_only_failure"] is True
        assert report["shared_state"]


# ----------------------------------------------------------------------
# hypothesis properties
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


def taskset_strategy(max_tasks=4, max_util=0.95):
    """Random implicit-deadline task sets with bounded utilisation."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_tasks))
        periods = [
            draw(st.floats(min_value=1.0, max_value=100.0))
            for __ in range(n)
        ]
        shares = [
            draw(st.floats(min_value=0.01, max_value=1.0))
            for __ in range(n)
        ]
        total = sum(shares)
        budget = draw(st.floats(min_value=0.05, max_value=max_util))
        tasks = []
        for index in range(n):
            u = budget * shares[index] / total
            tasks.append(Task(
                f"t{index}", wcet=max(u * periods[index], 1e-9),
                period=periods[index],
            ))
        return TaskSet(tasks)

    return build()


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(ts=taskset_strategy(), frac=st.floats(
        min_value=0.0, max_value=1.0,
    ))
    # at frac = 1 the product ``wcet * (period / wcet)`` rounds one ulp
    # past the period here
    @example(
        ts=TaskSet([
            Task("t0", wcet=18.743322937658537, period=52.48793530442188),
        ]),
        frac=1.0,
    )
    def test_rta_monotone_in_wcet(self, ts, frac):
        """Growing every WCET can only flip the verdict from
        schedulable to not, and (where both fixed points exist) never
        shrinks any response time."""
        slack = min(t.period / t.wcet for t in ts)
        scale = 1.0 + frac * (min(slack, 3.0) - 1.0)
        # the grown WCET never exceeds the period (the implicit
        # deadline), which rounding in the product alone could break
        grown = TaskSet([
            Task(t.name, wcet=min(t.wcet * scale, t.period), period=t.period)
            for t in ts
        ])
        before = response_time_analysis(ts)
        after = response_time_analysis(grown)
        if after.schedulable:
            assert before.schedulable
            for response in before:
                assert (
                    after[response.name].response_time
                    >= response.response_time - 1e-9
                )

    @settings(max_examples=60, deadline=None)
    @given(ts=taskset_strategy(max_util=0.99))
    def test_rta_accepts_liu_layland_sets(self, ts):
        """Exact RTA is no more pessimistic than the sufficient bound:
        any set passing Liu–Layland must pass RTA."""
        if utilisation_test(ts).passes:
            assert response_time_analysis(
                ts, with_blocking=False
            ).schedulable

    @settings(max_examples=40, deadline=None)
    @given(ts=taskset_strategy(), held=st.floats(
        min_value=0.0, max_value=0.5,
    ))
    def test_blocking_never_helps(self, ts, held):
        """Adding blocking terms can only inflate responses: a set the
        blocking-aware analysis accepts also passes plain RTA, with
        pointwise-smaller response times."""
        locked = TaskSet([
            Task(
                t.name, wcet=t.wcet, period=t.period,
                critical_sections=(
                    CriticalSection("lock", t.wcet * held),
                ),
            )
            for t in ts
        ])
        plain = response_time_analysis(locked, with_blocking=False)
        blocked = response_time_analysis(locked, with_blocking=True)
        if blocked.schedulable:
            assert plain.schedulable
            for response in plain:
                assert (
                    blocked[response.name].response_time
                    >= response.response_time - 1e-9
                )
        if not plain.schedulable:
            assert not blocked.schedulable
