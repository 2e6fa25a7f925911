"""Experiment configuration for DDoSim runs.

Defaults follow the paper's experiment series (§III-D, §IV-A): 100–500
kbps Dev links ("an average range for such devices in real life"), a
600-second NS-3 simulation window, 100-second UDP-PLAIN attacks, Mirai's
512-byte flood payload, and Fan et al.'s churn coefficients
(φ1, φ2, φ3) = (0.16, 0.08, 0.04).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

CHURN_NONE = "none"
CHURN_STATIC = "static"
CHURN_DYNAMIC = "dynamic"
CHURN_MODES = (CHURN_NONE, CHURN_STATIC, CHURN_DYNAMIC)

BINARY_CONNMAN = "connman"
BINARY_DNSMASQ = "dnsmasq"
BINARY_MIXED = "mixed"
BINARY_MIXES = (BINARY_CONNMAN, BINARY_DNSMASQ, BINARY_MIXED)

VECTOR_MEMORY_ERROR = "memory_error"
VECTOR_CREDENTIALS = "credentials"
VECTOR_BOTH = "both"
RECRUITMENT_VECTORS = (VECTOR_MEMORY_ERROR, VECTOR_CREDENTIALS, VECTOR_BOTH)

#: protection profiles Devs draw from ("some subset of W^X and ASLR",
#: §III-B) — uniformly over the four subsets by default
DEFAULT_PROTECTION_PROFILES: Tuple[Tuple[str, ...], ...] = (
    (),
    ("wx",),
    ("aslr",),
    ("wx", "aslr"),
)


@dataclass
class SimulationConfig:
    """Everything one DDoSim run needs; every field has a paper-aligned
    default so ``SimulationConfig(n_devs=50)`` is a valid experiment."""

    n_devs: int = 10
    seed: int = 1

    # --- Devs ----------------------------------------------------------
    binary_mix: str = BINARY_MIXED
    protection_profiles: Sequence[Tuple[str, ...]] = DEFAULT_PROTECTION_PROFILES
    #: IoT access-link rate range in kbps (drawn uniformly per Dev)
    dev_rate_kbps: Tuple[float, float] = (100.0, 500.0)
    dev_link_delay: float = 0.020
    #: also run telnetd/dropbear on Devs (Mirai fortification targets)
    extra_services: bool = True
    #: Dev emulation mode: lightweight "container" (the paper's choice,
    #: for scalability) or Firmadyne-style full "firmware" emulation
    #: (§III-B's heavier alternative)
    dev_emulation: str = "container"

    # --- Attacker ------------------------------------------------------
    attacker_rate_bps: float = 100e6
    attacker_link_delay: float = 0.005
    dns_query_interval: float = 10.0
    dhcp6_attack_interval: float = 5.0
    #: vendor-hardened Devs whose shell lacks curl (defense insight #1)
    devs_without_curl: bool = False
    #: infection script also plants backdoor credentials on each Dev
    #: ("modify passwords and activate telnet/ssh", §II-A)
    plant_backdoor: bool = False
    #: how the attacker recruits: the paper's memory-error exploits, the
    #: classic Mirai default-credential dictionary (the baseline it is
    #: contrasted with), or both at once
    recruitment_vector: str = "memory_error"
    #: fraction of Devs shipping factory-default telnet credentials when
    #: a credential vector is in play (the rest have strong passwords)
    weak_credential_fraction: float = 0.6

    # --- TServer -------------------------------------------------------
    #: the DDoS bottleneck: TServer's access link (bits/second).  At the
    #: paper's 100-500 kbps Dev links, 150 Devs offer ~45 Mbps, so 30 Mbps
    #: puts Figure 2's upper range deep in congestion (sublinear growth)
    #: without flat-lining the whole curve.
    tserver_rate_bps: float = 30e6
    tserver_link_delay: float = 0.005
    #: UDP port the flood targets (sink is promiscuous regardless)
    attack_port: int = 7777

    # --- Attack --------------------------------------------------------
    attack_duration: float = 100.0
    attack_payload_size: int = 512
    #: give up waiting for stragglers and attack after this many seconds
    recruit_timeout: float = 60.0
    #: pause between recruitment completing and the attack command —
    #: models the paper's long pre-attack phase inside its 600 s window
    #: (churn keeps acting during it, so dynamically-departed bots can
    #: miss the command, the paper's dynamic<static mechanism)
    attack_settle_delay: float = 30.0
    #: settle time after the attack before the run ends
    cooldown: float = 10.0
    #: NS-3-style overall simulation cap (the paper uses 600 s)
    sim_duration: float = 600.0

    # --- Churn (Fan et al.) --------------------------------------------
    churn: str = CHURN_NONE
    churn_interval: float = 20.0
    churn_phi: Tuple[float, float, float] = (0.16, 0.08, 0.04)
    #: chance an offline device rejoins at each dynamic-churn epoch
    churn_rejoin_probability: float = 0.5

    # --- Faults --------------------------------------------------------
    #: optional :class:`repro.faults.FaultPlan` (or its dict form) armed
    #: against the run; ``None`` is the exact no-injector path
    faults: Optional[object] = None

    # --- Network plumbing ----------------------------------------------
    queue_packets: int = 100

    # --- Engine performance knobs --------------------------------------
    #: flood packet-train size: each flood emission sends this many packets
    #: as one scheduled unit (1 = exact per-packet seed behaviour)
    flood_train: int = 1
    #: fluid-flow crossover: "off" (exact packet/train datapath), "auto"
    #: (fluid upstream, packet-exact at the bottleneck/sink last hop) or
    #: "all" (fully analytic flood, zero per-packet events)
    flood_flow: str = "off"

    def __post_init__(self) -> None:
        if self.n_devs <= 0:
            raise ValueError("n_devs must be positive")
        if self.churn not in CHURN_MODES:
            raise ValueError(f"churn must be one of {CHURN_MODES}, got {self.churn!r}")
        if self.binary_mix not in BINARY_MIXES:
            raise ValueError(
                f"binary_mix must be one of {BINARY_MIXES}, got {self.binary_mix!r}"
            )
        low, high = self.dev_rate_kbps
        if not 0 < low <= high:
            raise ValueError(f"bad dev_rate_kbps range {self.dev_rate_kbps}")
        if self.attack_duration <= 0:
            raise ValueError("attack_duration must be positive")
        if len(self.churn_phi) != 3:
            raise ValueError("churn_phi needs exactly three coefficients")
        if not all(0.0 <= phi <= 1.0 for phi in self.churn_phi):
            raise ValueError("churn_phi coefficients must lie in [0, 1]")
        if self.recruitment_vector not in RECRUITMENT_VECTORS:
            raise ValueError(
                f"recruitment_vector must be one of {RECRUITMENT_VECTORS}, "
                f"got {self.recruitment_vector!r}"
            )
        if not 0.0 <= self.weak_credential_fraction <= 1.0:
            raise ValueError("weak_credential_fraction outside [0, 1]")
        if self.dev_emulation not in ("container", "firmware"):
            raise ValueError(
                f"dev_emulation must be 'container' or 'firmware', "
                f"got {self.dev_emulation!r}"
            )
        if self.faults is not None:
            from repro.faults import FaultPlan

            if isinstance(self.faults, dict):
                self.faults = FaultPlan.from_dict(self.faults)
            elif not isinstance(self.faults, FaultPlan):
                raise ValueError(
                    f"faults must be a FaultPlan or dict, got {type(self.faults).__name__}"
                )
        if self.flood_train < 1:
            raise ValueError("flood_train must be >= 1")
        from repro.netsim.flows import FLOW_MODES

        if self.flood_flow not in FLOW_MODES:
            raise ValueError(
                f"flood_flow must be one of {FLOW_MODES}, got {self.flood_flow!r}"
            )

    @property
    def mean_dev_rate_bps(self) -> float:
        low, high = self.dev_rate_kbps
        return (low + high) / 2.0 * 1000.0
