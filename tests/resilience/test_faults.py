"""Unit coverage for the seeded fault-injection machinery."""

from __future__ import annotations

import pytest

from repro.resilience import (
    CorruptedPayloadError,
    FaultPlan,
    InjectedCrash,
    InjectedTimeout,
    TornWrite,
    TransientError,
    fault_point,
)
from repro.resilience.faults import FaultSpec


class TestFaultSpec:
    @pytest.mark.parametrize("kind", ["meltdown", "exit"])
    def test_unknown_kind_rejected(self, kind):
        """``exit`` killed a pool worker; with ranks in one process it
        would kill the run, so it is no longer a fault kind."""
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="s", kind=kind, at=frozenset({0}))

    def test_empty_invocations_rejected(self):
        with pytest.raises(ValueError, match="no invocations"):
            FaultSpec(site="s", kind="crash", at=frozenset())

    def test_negative_invocation_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            FaultSpec(site="s", kind="crash", at=frozenset({-1}))

    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="fraction"):
            FaultSpec(site="s", kind="torn", at=frozenset({0}), fraction=1.0)


class TestFaultPlan:
    def test_fires_only_on_armed_invocations(self):
        plan = FaultPlan().arm("site", kind="crash", at=(1, 3))
        with plan.activate():
            fault_point("site")  # invocation 0: pass
            with pytest.raises(InjectedCrash):
                fault_point("site")  # 1: armed
            fault_point("site")  # 2: pass
            with pytest.raises(InjectedCrash):
                fault_point("site")  # 3: armed
        assert plan.invocations("site") == 4
        assert plan.fired("site") == 2

    def test_kinds_raise_typed_exceptions(self):
        cases = [
            ("crash", InjectedCrash),
            ("timeout", InjectedTimeout),
            ("corrupt", CorruptedPayloadError),
            ("torn", TornWrite),
        ]
        for kind, exc_type in cases:
            plan = FaultPlan().arm("s", kind=kind, at=0)
            with plan.activate(), pytest.raises(exc_type):
                fault_point("s")

    def test_classification_matches_retry_contract(self):
        # crash/corrupt are transient (retried); timeout is a
        # TimeoutError; torn is deliberately NOT transient.
        assert issubclass(InjectedCrash, TransientError)
        assert issubclass(CorruptedPayloadError, TransientError)
        assert issubclass(InjectedTimeout, TimeoutError)
        assert not issubclass(TornWrite, TransientError)

    def test_torn_carries_fraction(self):
        plan = FaultPlan().arm("s", kind="torn", at=0, fraction=0.25)
        with plan.activate(), pytest.raises(TornWrite) as err:
            fault_point("s")
        assert err.value.fraction == 0.25

    def test_disarm_keeps_counts(self):
        plan = FaultPlan().arm("s", kind="crash", at=0)
        with plan.activate():
            with pytest.raises(InjectedCrash):
                fault_point("s")
            plan.disarm("s")
            fault_point("s")  # would have been armed without disarm
        assert plan.invocations("s") == 2
        assert plan.fired("s") == 1
        assert plan.armed_at("s") == frozenset()

    def test_disarmed_point_is_noop(self):
        plan = FaultPlan().arm("other")
        with plan.activate():
            fault_point("unarmed")  # counted, never raises
        assert plan.invocations("unarmed") == 1
        assert plan.fired("unarmed") == 0

    def test_no_plan_installed_is_noop(self):
        fault_point("anything")  # must not raise, must not need a plan

    def test_activate_restores_previous_state(self):
        plan = FaultPlan().arm("s", kind="crash", at=(0, 1))
        with plan.activate():
            with pytest.raises(InjectedCrash):
                fault_point("s")
        fault_point("s")  # armed for this invocation, but no plan installed
        assert plan.invocations("s") == 1

    def test_arm_random_is_seed_deterministic(self):
        a = FaultPlan(seed=9).arm_random("s", rate=0.3, horizon=50)
        b = FaultPlan(seed=9).arm_random("s", rate=0.3, horizon=50)
        c = FaultPlan(seed=10).arm_random("s", rate=0.3, horizon=50)
        assert a.armed_at("s") == b.armed_at("s")
        assert a.armed_at("s") != c.armed_at("s")

    def test_arm_random_differs_by_site(self):
        plan = FaultPlan(seed=9)
        plan.arm_random("one", rate=0.3, horizon=50)
        plan.arm_random("two", rate=0.3, horizon=50)
        assert plan.armed_at("one") != plan.armed_at("two")

    def test_arm_random_never_arms_nothing(self):
        # Tiny rate over a tiny horizon: the deterministic fallback
        # still arms exactly one invocation.
        plan = FaultPlan(seed=0).arm_random("s", rate=1e-9, horizon=3)
        assert len(plan.armed_at("s")) == 1

    def test_arm_random_validates_inputs(self):
        with pytest.raises(ValueError, match="rate"):
            FaultPlan().arm_random("s", rate=0.0, horizon=10)
        with pytest.raises(ValueError, match="horizon"):
            FaultPlan().arm_random("s", rate=0.5, horizon=0)


class TestFieldScope:
    """Inside a field step a site counts per ``(site, field)``; outside
    one it counts under ``field=None``."""

    def test_each_field_counts_its_own_invocations(self):
        from repro.resilience.faults import field_scope

        plan = FaultPlan().arm("s", kind="crash", at=1, field="b")
        with plan.activate():
            for _ in range(3):
                with field_scope("a"):
                    fault_point("s")  # a's count never fires b's arm
            with field_scope("b"):
                fault_point("s")  # b: 0
                with pytest.raises(InjectedCrash, match="'s' in field 'b' \\(invocation 1\\)"):
                    fault_point("s")  # b: 1, armed
            fault_point("s")  # outside any step
        assert [plan.invocations("s", f) for f in ("a", "b", None)] == [3, 2, 1]
        assert [plan.fired("s", f) for f in ("a", "b", None)] == [0, 1, 0]
        assert plan.armed_at("s", "b") == frozenset({1}) and plan.armed_at("s") == frozenset()

    def test_an_unscoped_arm_fires_outside_field_steps_only(self):
        from repro.resilience.faults import field_scope

        plan = FaultPlan().arm("s", kind="crash", at=0)
        with plan.activate():
            with field_scope("a"):
                fault_point("s")
            with pytest.raises(InjectedCrash, match="^injected crash at 's' \\(invocation 0\\)$"):
                fault_point("s")
        plan.disarm("s")
        assert plan.armed_at("s") == frozenset()

    def test_the_scope_is_the_threads_own(self):
        """Each ``thread_map`` item runs in its own copy of the caller's
        context, so a scope set in one item is not seen by another."""
        from repro.resilience.faults import field_scope
        from repro.util.fanout import thread_map

        def step(name):
            with field_scope(name):
                for _ in range(50):
                    fault_point("s")
            fault_point("s")

        plan = FaultPlan()
        with plan.activate():
            thread_map(step, ["a", "b", "c", "d"])
        assert [plan.invocations("s", f) for f in "abcd"] == [50] * 4
        assert plan.invocations("s") == 4

    def test_arm_random_differs_by_field(self):
        plan = FaultPlan(seed=9)
        plan.arm_random("s", rate=0.3, horizon=50)
        plan.arm_random("s", rate=0.3, horizon=50, field="a")
        assert plan.armed_at("s") != plan.armed_at("s", "a")


class TestRankLoopSites:
    @pytest.mark.parametrize("site", ["backend.features", "backend.compress"])
    def test_each_site_is_reached_once_per_snapshot(self, site):
        import numpy as np

        from repro.core.pipeline import AdaptiveCompressionPipeline
        from repro.models.rate_model import RateModel
        from repro.parallel.decomposition import BlockDecomposition

        pipe = AdaptiveCompressionPipeline(
            RateModel(exponent=-0.8, coef_alpha=0.0, coef_beta=0.3)
        )
        data = np.random.default_rng(0).random((16, 16, 16))
        dec = BlockDecomposition(data.shape, blocks=2)
        plan = FaultPlan().arm(site, kind="crash", at=1)
        with plan.activate():
            pipe.run(data, dec, eb_avg=0.01)
            with pytest.raises(InjectedCrash):
                pipe.run(data, dec, eb_avg=0.01)
        assert plan.invocations(site) == 2
