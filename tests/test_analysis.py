"""Tests for the analysis use cases: features, detection, epidemics."""

import numpy as np
import pytest

from repro.analysis.dataset import capture_tserver_traffic, generate_detection_dataset
from repro.analysis.detection import (
    DetectionMetrics,
    LogisticRegressionClassifier,
    train_test_split,
)
from repro.analysis.epidemic import fit_si_model, si_curve, sir_curve
from repro.analysis.features import (
    FEATURE_NAMES,
    CapturedPacket,
    window_features,
    windows_from_capture,
)
from repro.core import DDoSim, SimulationConfig
from repro.netsim.application import OnOffApplication
from repro.netsim.node import Node


def synth_records(start, count, rate, size, sources, dst_port=7777, protocol=17):
    """Synthesize capture records: `count` packets from `sources` cycled."""
    records = []
    for index in range(count):
        records.append(
            CapturedPacket(
                time=start + index / rate,
                src=f"10.0.0.{sources[index % len(sources)]}",
                dst="10.0.9.9",
                protocol=protocol,
                src_port=1000 + index % len(sources),
                dst_port=dst_port,
                size=size,
            )
        )
    return records


class TestFeatures:
    def test_empty_window_is_zero_vector(self):
        assert window_features([], 1.0) == [0.0] * len(FEATURE_NAMES)

    def test_rates_and_sizes(self):
        records = synth_records(0.0, 50, rate=50.0, size=200, sources=[1])
        features = dict(zip(FEATURE_NAMES, window_features(records, 1.0)))
        assert features["packet_rate"] == 50.0
        assert features["byte_rate"] == 10_000.0
        assert features["mean_packet_size"] == 200.0
        assert features["std_packet_size"] == 0.0

    def test_source_dispersion(self):
        one = dict(zip(FEATURE_NAMES, window_features(
            synth_records(0.0, 40, 40.0, 100, sources=[1]), 1.0)))
        many = dict(zip(FEATURE_NAMES, window_features(
            synth_records(0.0, 40, 40.0, 100, sources=list(range(10))), 1.0)))
        assert many["distinct_sources"] > one["distinct_sources"]
        assert many["source_entropy"] > one["source_entropy"]
        assert many["top_source_share"] < one["top_source_share"]

    def test_protocol_mix(self):
        udp = synth_records(0.0, 10, 10.0, 100, [1], protocol=17)
        tcp = synth_records(0.0, 10, 10.0, 100, [1], protocol=6)
        features = dict(zip(FEATURE_NAMES, window_features(udp + tcp, 2.0)))
        assert features["udp_fraction"] == pytest.approx(0.5)
        assert features["tcp_fraction"] == pytest.approx(0.5)

    def test_windowing_and_labels(self):
        benign = synth_records(0.0, 20, 4.0, 100, [1, 2])      # t in [0, 5)
        attack = synth_records(10.0, 200, 40.0, 520, range(8))  # t in [10, 15)
        X, y = windows_from_capture(
            benign + attack, start=0.0, end=15.0, window=1.0,
            attack_interval=(10.0, 15.0),
        )
        assert X.shape == (15, len(FEATURE_NAMES))
        assert y[:10].sum() == 0
        assert y[10:].sum() == 5

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            windows_from_capture([], 0.0, 1.0, 0.0, (0.0, 1.0))


class TestTServerCapture:
    def test_records_every_datagram_the_sink_counts(self):
        ddosim = DDoSim(SimulationConfig(
            n_devs=3, seed=2, attack_duration=5.0, sim_duration=120.0,
        ))
        client = Node(ddosim.sim, "benign")
        ddosim.star.attach_host(client, 2e6, delay=0.015)
        OnOffApplication(
            client, ddosim.tserver.address, 80, rate_bps=64_000,
            packet_size=300, on_seconds=4.0, off_seconds=2.0,
        ).schedule_start(0.5)
        records = capture_tserver_traffic(ddosim)
        ddosim.run()
        sink = ddosim.tserver.sink
        assert len(records) == sink.total_packets > 0
        assert sum(record.size for record in records) == sink.total_bytes
        assert {str(record.src) for record in records} == {
            str(source) for source, _port in sink.per_source
        }

    @pytest.mark.parametrize("field, overrides", [
        ("flood_flow", {"flood_flow": "all"}),
        ("flood_train", {"flood_train": 8}),
    ])
    def test_dataset_refuses_floods_the_capture_cannot_see(self, field, overrides):
        config = SimulationConfig(n_devs=2, seed=2, **overrides)
        with pytest.raises(ValueError, match=field):
            generate_detection_dataset(config=config, n_benign_clients=1)


class TestLogisticRegression:
    def make_separable(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        X0 = rng.normal(0.0, 1.0, size=(n // 2, 4))
        X1 = rng.normal(3.5, 1.0, size=(n // 2, 4))
        X = np.vstack([X0, X1])
        y = np.array([0] * (n // 2) + [1] * (n // 2))
        return X, y

    def test_learns_separable_data(self):
        X, y = self.make_separable()
        model = LogisticRegressionClassifier(epochs=300).fit(X, y)
        metrics = model.evaluate(X, y)
        assert metrics.accuracy > 0.97
        assert metrics.f1 > 0.97

    def test_loss_decreases(self):
        X, y = self.make_separable()
        model = LogisticRegressionClassifier(epochs=200).fit(X, y)
        assert model.loss_history[-1] < model.loss_history[0]

    def test_probabilities_bounded(self):
        X, y = self.make_separable()
        model = LogisticRegressionClassifier(epochs=100).fit(X, y)
        proba = model.predict_proba(X)
        assert np.all(proba >= 0) and np.all(proba <= 1)

    def test_predict_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            LogisticRegressionClassifier().predict(np.zeros((2, 3)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LogisticRegressionClassifier().fit(np.zeros(5), np.zeros(5))

    def test_metrics_from_predictions(self):
        metrics = DetectionMetrics.from_predictions(
            np.array([1, 1, 0, 0]), np.array([1, 0, 0, 1])
        )
        assert metrics.true_positives == 1
        assert metrics.false_negatives == 1
        assert metrics.false_positives == 1
        assert metrics.true_negatives == 1
        assert metrics.accuracy == 0.5

    def test_degenerate_metrics_do_not_divide_by_zero(self):
        metrics = DetectionMetrics.from_predictions(
            np.array([0, 0]), np.array([0, 0])
        )
        assert metrics.precision == 0.0
        assert metrics.recall == 0.0
        assert metrics.f1 == 0.0

    def test_train_test_split(self):
        X = np.arange(100).reshape(50, 2)
        y = np.arange(50)
        X_train, y_train, X_test, y_test = train_test_split(X, y, 0.2, seed=1)
        assert len(X_train) == 40 and len(X_test) == 10
        assert set(y_train) | set(y_test) == set(range(50))
        with pytest.raises(ValueError):
            train_test_split(X, y, 0.0)


class TestEpidemicModels:
    def test_si_curve_is_logistic(self):
        times = np.linspace(0, 100, 200)
        infected = si_curve(times, beta=0.2, population=100, i0=1)
        assert infected[0] == pytest.approx(1.0)
        assert infected[-1] == pytest.approx(100.0, rel=0.01)
        assert np.all(np.diff(infected) >= -1e-9)  # monotone growth

    def test_si_parameter_validation(self):
        with pytest.raises(ValueError):
            si_curve(np.array([0.0]), beta=0.1, population=0)

    def test_sir_infected_peaks_and_declines(self):
        times = np.linspace(0, 200, 400)
        infected = sir_curve(times, beta=0.3, gamma=0.05, population=1000, i0=1)
        peak = int(np.argmax(infected))
        assert 0 < peak < len(times) - 1
        assert infected[-1] < infected[peak]

    def test_sir_with_zero_gamma_matches_si(self):
        times = np.linspace(0, 80, 100)
        si = si_curve(times, beta=0.2, population=50, i0=1)
        sir = sir_curve(times, beta=0.2, gamma=0.0, population=50, i0=1)
        assert np.allclose(si, sir, rtol=0.02)

    def test_fit_recovers_known_beta(self):
        times = np.linspace(0, 120, 121)
        truth = si_curve(times, beta=0.15, population=80, i0=1)
        rng = np.random.default_rng(0)
        noisy = truth + rng.normal(0, 0.5, size=truth.shape)
        fit = fit_si_model(times, noisy, population=80, i0=1)
        assert fit.beta == pytest.approx(0.15, rel=0.05)
        assert fit.r_squared > 0.99
