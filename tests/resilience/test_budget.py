"""Tests for per-run predicate budgets."""

import pytest

from repro.reduction import BudgetExhausted
from repro.resilience import Budget


class TestCallBudget:
    def test_spends_up_to_the_cap(self):
        budget = Budget(max_calls=3)
        for _ in range(3):
            budget.spend_call()
        assert budget.calls == 3
        assert not budget.exhausted

    def test_over_cap_raises_without_charging(self):
        budget = Budget(max_calls=2)
        budget.spend_call()
        budget.spend_call()
        with pytest.raises(BudgetExhausted):
            budget.spend_call()
        assert budget.calls == 2  # the failing attempt was not charged

    def test_exhaustion_latches(self):
        # A caller that swallows the first signal (the service's quota
        # charge when a job settles) must still stop on the next call.
        budget = Budget(max_calls=1)
        budget.spend_call()
        with pytest.raises(BudgetExhausted):
            budget.spend_call()
        assert budget.exhausted
        with pytest.raises(BudgetExhausted):
            budget.spend_call()

    def test_exception_carries_the_budget(self):
        budget = Budget(max_calls=0)
        with pytest.raises(BudgetExhausted) as info:
            budget.spend_call()
        assert info.value.budget is budget


class TestTimeBudget:
    def test_charges_seconds_per_call(self):
        budget = Budget(max_seconds=100.0, seconds_per_call=33.0)
        budget.spend_call()
        budget.spend_call()
        budget.spend_call()  # 99 s
        assert budget.seconds == pytest.approx(99.0)
        with pytest.raises(BudgetExhausted):
            budget.spend_call()  # would reach 132 s

    def test_charge_seconds_counts_against_the_cap(self):
        budget = Budget(max_seconds=10.0, seconds_per_call=4.0)
        budget.spend_call()
        budget.charge_seconds(3.0)  # 7 s: backoff counts as time spent
        with pytest.raises(BudgetExhausted):
            budget.spend_call()
        assert budget.exhausted

    def test_charge_seconds_can_itself_exhaust(self):
        budget = Budget(max_seconds=1.0)
        with pytest.raises(BudgetExhausted):
            budget.charge_seconds(2.0)
        assert budget.exhausted


class TestUnlimited:
    def test_no_caps_never_raises(self):
        budget = Budget()
        for _ in range(1000):
            budget.spend_call()
        budget.charge_seconds(1e9)
        assert not budget.limited
        assert not budget.exhausted

    def test_limited_property(self):
        assert Budget(max_calls=1).limited
        assert Budget(max_seconds=1.0).limited
        assert not Budget(seconds_per_call=33.0).limited


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_calls": -1},
            {"max_seconds": -0.5},
            {"seconds_per_call": -1.0},
        ],
    )
    def test_negative_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Budget(**kwargs)

    def test_budget_exhausted_is_a_reduction_error(self):
        from repro.reduction import ReductionError

        assert issubclass(BudgetExhausted, ReductionError)
