"""End-to-end dataset generation for the ML-detection use case (V-A1).

"One example use case is testing a defense strategy by generating both
malicious DDoS and normal traffic to TServer, followed by analyzing
incoming traffic using an ML model ... Another use case involves
generating large traffic datasets" (§V-A1 of the paper).

:func:`generate_detection_dataset` does exactly that: it runs a DDoSim
scenario with extra benign clients streaming OnOff traffic at TServer,
captures every packet TServer's sink receives
(:func:`capture_tserver_traffic`), and slices the capture into labelled
feature windows ready for
:class:`repro.analysis.detection.LogisticRegressionClassifier`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.features import (
    CapturedPacket,
    datagram_record,
    windows_from_capture,
)
from repro.core.config import SimulationConfig
from repro.core.framework import DDoSim
from repro.netsim.application import OnOffApplication
from repro.netsim.node import Node


@dataclass
class DetectionDataset:
    """Labelled windows plus the run that produced them."""

    X: np.ndarray
    y: np.ndarray
    window: float
    attack_interval: Tuple[float, float]
    n_benign_clients: int

    @property
    def attack_fraction(self) -> float:
        return float(self.y.mean()) if len(self.y) else 0.0


def capture_tserver_traffic(ddosim: DDoSim) -> List[CapturedPacket]:
    """One :class:`CapturedPacket` row per datagram TServer's sink
    receives; the returned list fills in as ``ddosim.run()`` runs.

    The capture wraps TServer's UDP default handler, the hook the §V-A1
    defenses use, at t=0: ``run()`` starts the sink before its first
    event.  It refuses the configs whose flood never reaches that
    handler packet by packet, and the run raises at t=0 if there is no
    handler to wrap then (the sink was stopped).
    """
    config = ddosim.config
    if config.flood_flow == "all":
        raise ValueError(
            "flood_flow='all' credits TServer's sink analytically: no attack "
            "packet reaches the capture"
        )
    if config.flood_train > 1:
        raise ValueError(
            f"flood_train={config.flood_train} delivers packet trains: each "
            "capture row would be a whole train, not one packet"
        )
    sim = ddosim.sim
    udp = ddosim.tserver.node.udp
    records: List[CapturedPacket] = []

    def install() -> None:
        sink_handler = udp.default_handler
        if sink_handler is None or udp.default_paused:
            raise ValueError(
                "TServer has no UDP default handler to capture at: its "
                "sink is not running"
            )

        def record(packet, udp_header, ip_header) -> None:
            records.append(datagram_record(sim.now, packet, udp_header, ip_header))
            sink_handler(packet, udp_header, ip_header)

        udp.set_default_handler(record)

    sim.schedule(0.0, install)
    return records


def generate_detection_dataset(
    config: Optional[SimulationConfig] = None,
    n_benign_clients: int = 6,
    benign_rate_bps: float = 64_000.0,
    window: float = 1.0,
    seed: int = 1,
) -> DetectionDataset:
    """Run one mixed benign/attack scenario and return labelled windows."""
    if config is None:
        config = SimulationConfig(
            n_devs=10,
            seed=seed,
            attack_duration=40.0,
            recruit_timeout=40.0,
            sim_duration=250.0,
        )
    ddosim = DDoSim(config)

    # Benign clients: web-ish OnOff streams at TServer port 80.
    rng_seedable = range(n_benign_clients)
    for index in rng_seedable:
        client = Node(ddosim.sim, f"benign{index:02d}")
        ddosim.star.attach_host(client, 2e6, delay=0.015)
        app = OnOffApplication(
            client,
            ddosim.tserver.address,
            80,
            rate_bps=benign_rate_bps,
            packet_size=300 + 50 * (index % 4),
            on_seconds=4.0 + index % 3,
            off_seconds=2.0 + index % 2,
        )
        app.schedule_start(0.5 + 0.3 * index)

    records = capture_tserver_traffic(ddosim)
    result = ddosim.run()
    attack_start = result.attack.issued_at
    attack_end = attack_start + result.attack.duration
    X, y = windows_from_capture(
        records,
        start=0.0,
        end=ddosim.sim.now,
        window=window,
        attack_interval=(attack_start, attack_end),
    )
    return DetectionDataset(
        X=X,
        y=y,
        window=window,
        attack_interval=(attack_start, attack_end),
        n_benign_clients=n_benign_clients,
    )
