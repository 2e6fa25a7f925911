"""Unit + property tests for the Fan et al. churn model (Eq. 1)."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.churn import (
    DEFAULT_PHI,
    DynamicChurn,
    StaticChurn,
    leaving_factor,
    leaving_probability,
)
from repro.netsim.simulator import Simulator


class TestEquationOne:
    def test_leaving_factor_formula(self):
        assert leaving_factor(0.5, 0.5) == pytest.approx(0.25)
        assert leaving_factor(1.0, 0.0) == 0.0   # perfect link never leaves
        assert leaving_factor(0.0, 0.0) == 1.0   # worst case

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_inputs_validated(self, bad):
        with pytest.raises(ValueError):
            leaving_factor(bad, 0.5)
        with pytest.raises(ValueError):
            leaving_factor(0.5, bad)

    def test_regime_coefficients(self):
        # L = 0.25 <= 0.4 -> phi1
        assert leaving_probability(0.5, 0.5) == pytest.approx(0.16 * 0.25)
        # L = 0.5625 in (0.4, 0.7] -> phi2  (q=e=0.25 -> L=0.75*0.75)
        assert leaving_probability(0.25, 0.25) == pytest.approx(0.08 * 0.5625)
        # L = 0.81 > 0.7 -> phi3  (q=e=0.1)
        assert leaving_probability(0.1, 0.1) == pytest.approx(0.04 * 0.81)

    def test_regime_boundaries(self):
        # Exactly L=0.4: still phi1 (paper: "if L(h) <= 0.4").
        # q=0, e=0.6 -> L = 0.4
        assert leaving_probability(0.0, 0.6) == pytest.approx(0.16 * 0.4)
        # q=0, e=0.3 -> L = 0.7 -> phi2
        assert leaving_probability(0.0, 0.3) == pytest.approx(0.08 * 0.7)

    def test_custom_phi(self):
        assert leaving_probability(0.5, 0.5, phi=(1.0, 1.0, 1.0)) == pytest.approx(0.25)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_probability_bounds_property(self, quality, energy):
        probability = leaving_probability(quality, energy)
        assert 0.0 <= probability <= max(DEFAULT_PHI)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_better_conditions_never_increase_factor(self, quality, energy):
        improved = min(quality + 0.1, 1.0)
        assert leaving_factor(improved, energy) <= leaving_factor(quality, energy)


class TestStaticChurn:
    def test_departed_devices_marked_offline(self):
        sim = Simulator()
        churn = StaticChurn(200, random.Random(1))
        states = {}

        def toggle(index, online):
            states[index] = online

        departed = churn.apply(sim, toggle)
        assert departed == sum(1 for s in churn.states if not s.online)
        assert all(states[i] is False for i in states)
        assert churn.total_departures() == departed
        assert churn.online_count() == 200 - departed

    def test_departure_rate_is_small(self):
        """With the paper's phi values only a few percent leave."""
        sim = Simulator()
        churn = StaticChurn(2000, random.Random(3))
        departed = churn.apply(sim, lambda i, up: None)
        assert 0 < departed < 2000 * 0.12

    def test_log_records_events(self):
        sim = Simulator()
        churn = StaticChurn(500, random.Random(2))
        departed = churn.apply(sim, lambda i, up: None)
        assert len(churn.log) == departed
        assert all(entry.event == "leave" for entry in churn.log)

    def test_deterministic_per_seed(self):
        sim = Simulator()
        one = StaticChurn(100, random.Random(7))
        two = StaticChurn(100, random.Random(7))
        one.apply(sim, lambda i, up: None)
        two.apply(Simulator(), lambda i, up: None)
        assert [s.online for s in one.states] == [s.online for s in two.states]


class TestDynamicChurn:
    def test_step_toggles_both_ways(self):
        sim = Simulator()
        churn = DynamicChurn(300, random.Random(1), rejoin_probability=1.0)
        # Force some devices offline first.
        for state in churn.states[:50]:
            state.online = False
        churn.step(sim, lambda i, up: None)
        # Every offline device rejoined (p=1), modulo those that left again.
        assert churn.total_rejoins() == 50

    def test_epochs_scheduled_at_interval(self):
        sim = Simulator()
        churn = DynamicChurn(100, random.Random(5), interval=20.0)
        toggles = []
        churn.start(sim, lambda i, up: toggles.append((sim.now, i, up)), until=100.0)
        sim.run(until=100.0)
        if toggles:
            assert all(t % 20.0 == 0 for t, _i, _u in toggles)

    def test_stop_halts_epochs(self):
        sim = Simulator()
        churn = DynamicChurn(500, random.Random(5), interval=10.0)
        churn.start(sim, lambda i, up: None, until=1000.0)
        sim.run(until=35.0)
        events_before = len(churn.log)
        churn.stop()
        sim.run(until=200.0)
        assert len(churn.log) == events_before

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DynamicChurn(10, random.Random(1), interval=0.0)
        with pytest.raises(ValueError):
            DynamicChurn(10, random.Random(1), rejoin_probability=1.5)

    def test_dynamic_accumulates_more_departures_than_static(self):
        """Re-drawing every epoch gives many more departure opportunities
        — the mechanism behind Figure 2's dynamic < static ordering."""
        sim = Simulator()
        static = StaticChurn(400, random.Random(11))
        static.apply(sim, lambda i, up: None)
        dynamic = DynamicChurn(400, random.Random(11), interval=20.0)
        dynamic.start(sim, lambda i, up: None, until=600.0)
        sim.run(until=600.0)
        assert dynamic.total_departures() > static.total_departures()
