"""The Mirai bot.

§III-A of the paper, verbatim behaviours: "After infecting the victim
device, Mirai malware hides its presence by obfuscating its process name
and removing the downloaded malware binary.  Also, this malware attempts
to kill processes associated with other DDoS variants and processes bound
to port 22 or 23 (TCP) to fortify itself."  Then it connects to the C&C
and waits for commands — here ``ATTACK udpplain ...`` orders, which it
executes with :func:`repro.botnet.attacks.udp_plain_flood`.
"""

from __future__ import annotations

import json
import string
from typing import List

from repro.binaries.binfmt import BinaryImage, register_program
from repro.binaries.busybox import RIVAL_PROCESS_NAMES
from repro.botnet.attacks import (
    AttackStats,
    ack_flood,
    syn_flood,
    udp_plain_flood,
    udp_plain_flow,
)

#: attack vectors this bot build supports (Mirai ships ~10; the paper's
#: experiment series uses udpplain)
ATTACK_VECTORS = {
    "udpplain": udp_plain_flood,
    "syn": syn_flood,
    "ack": ack_flood,
}
from repro.netsim.address import AddressError, Ipv4Address, Ipv6Address
from repro.netsim.process import ProcessKilled, SimProcess

BOT_PORT = 23
RECONNECT_BACKOFF = 5.0
#: ceiling of the exponential reconnect backoff
RECONNECT_BACKOFF_MAX = 60.0
#: bot-side keepalive beacon period; a dead link surfaces as exhausted
#: retransmission on these sends, triggering reconnection
KEEPALIVE_INTERVAL = 45.0

#: ports whose binders Mirai kills to fortify itself
FORTIFY_PORTS = (22, 23)


def _parse_address(text: str):
    try:
        return Ipv6Address.parse(text) if ":" in text else Ipv4Address.parse(text)
    except AddressError as error:
        raise ValueError(f"mirai: bad address {text!r}: {error}") from None


def _obfuscated_name(rng) -> str:
    alphabet = string.ascii_lowercase + string.digits
    return "".join(rng.choice(alphabet) for _ in range(10))


def reconnect_delay(failures: int, rng,
                    base: float = RECONNECT_BACKOFF,
                    cap: float = RECONNECT_BACKOFF_MAX) -> float:
    """Capped exponential backoff with jitter: ``min(cap, base * 2^(n-1))``
    scaled by a uniform draw in [0.5, 1.0] so a fleet of bots cut off
    together (C&C outage, partition) doesn't reconnect in lockstep."""
    delay = min(cap, base * (2.0 ** (max(failures, 1) - 1)))
    return delay * (0.5 + 0.5 * rng.random())


def _note_reconnect(ctx, failures: int) -> float:
    """Account one reconnect attempt; returns the backoff to sleep."""
    delay = reconnect_delay(failures, ctx.rng)
    obs = ctx.sim.obs
    # Lazily registered: fault-free runs never touch the reconnect path,
    # keeping their metric snapshots identical to a build without it.
    obs.metrics.counter(
        "bots_reconnects_total", help="bot reconnect attempts after C&C loss"
    ).inc()
    if obs.tracer.enabled:
        obs.tracer.emit(
            "bot.reconnect", ctx.sim.now,
            bot=ctx.container.name, failures=failures, backoff=round(delay, 3),
        )
    return delay


def _fortify(ctx) -> int:
    """Kill rival DDoS processes and anything bound to TCP 22/23."""
    killed = 0
    container = ctx.container
    for rival in RIVAL_PROCESS_NAMES:
        for process in container.find_processes(rival):
            if process.pid != ctx.pid:
                process.kill()
                killed += 1
    for port in FORTIFY_PORTS:
        for process in container.processes_bound_to(port):
            if process.pid != ctx.pid:
                process.kill()
                killed += 1
    return killed


def mirai_program(image: BinaryImage):
    """Program factory registered for ``program_key='mirai'``."""

    def mirai(ctx):
        argv = ctx.argv
        if len(argv) < 3:
            ctx.log("mirai: usage: mirai <cnc_host> <cnc_port>")
            return
        cnc_address = _parse_address(argv[1])
        cnc_port = int(argv[2])

        # 1. Hide: obfuscate the process name.
        ctx.set_process_name(_obfuscated_name(ctx.rng))
        # 2. Hide: remove the downloaded binary from disk.
        try:
            ctx.fs.remove(argv[0])
        except OSError:
            pass
        # 3. Fortify: kill rivals and 22/23 binders.
        killed = _fortify(ctx)
        if killed:
            ctx.log(f"mirai: fortified, killed {killed} processes")

        ctx.process.attack_stats = []  # list[AttackStats], read by analyses
        attack_processes: List[SimProcess] = []
        failures = 0
        try:
            while True:
                # tcp_connect itself can raise (NetworkUnreachable when the
                # device churned offline), so it lives inside the try.
                try:
                    sock = ctx.netns.tcp_connect(cnc_address, cnc_port)
                    yield sock.wait_connected()
                except ConnectionError:
                    failures += 1
                    yield ctx.sleep(_note_reconnect(ctx, failures))
                    continue
                failures = 0
                sock.send_line(f"REG {ctx.container.image.architecture}")
                ctx.bind_port_marker(48101)  # Mirai's single-instance port

                def beacon(loop_ctx):
                    while True:
                        yield loop_ctx.sleep(KEEPALIVE_INTERVAL)
                        try:
                            sock.send_line("PONG")
                        except ConnectionError:
                            return

                keepalive = SimProcess(ctx.sim, beacon(ctx), name="mirai-beacon")
                try:
                    while True:
                        line = yield from sock.read_line()
                        if line is None:
                            break
                        _dispatch(ctx, sock, line.decode("utf-8", "replace"),
                                  attack_processes)
                except ConnectionError:
                    pass
                finally:
                    keepalive.kill()
                    ctx.release_port_marker(48101)
                    sock.close()
                failures = 1
                yield ctx.sleep(_note_reconnect(ctx, failures))
        except ProcessKilled:
            raise
        finally:
            for process in attack_processes:
                if not process.done:
                    process.kill()

    return mirai


def _traced_flood(ctx, flood, stats, address: str, src_port):
    """Wrap a flood generator so ``attack.stop`` carries its emission
    totals even when the flood is killed mid-attack (churn, STOP order)."""
    try:
        result = yield from flood
    finally:
        ctx.sim.obs.tracer.emit(
            "attack.stop", ctx.sim.now, address=address, src_port=src_port,
            packets_sent=stats.packets_sent, bytes_sent=stats.bytes_sent,
        )
    return result


def _dispatch(ctx, sock, line: str, attack_processes: List[SimProcess]) -> None:
    parts = line.split(None, 1)
    if not parts:
        return
    command = parts[0]
    if command == "PING":
        sock.send_line("PONG")
        return
    if command == "ATTACK":
        arguments = (parts[1] if len(parts) > 1 else "").split()
        if len(arguments) < 4:
            return
        method, target_text, port_text, duration_text = arguments[:4]
        payload_size = int(arguments[4]) if len(arguments) > 4 else 512
        train = int(arguments[5]) if len(arguments) > 5 else 1
        flow_mode = arguments[6] if len(arguments) > 6 else "off"
        vector = ATTACK_VECTORS.get(method)
        if vector is None:
            ctx.log(f"mirai: unsupported attack {method!r}")
            return
        stats = AttackStats()
        ctx.process.attack_stats.append(stats)
        node = ctx.netns.node
        target = _parse_address(target_text)
        port = int(port_text)
        duration = float(duration_text)
        src_port = None
        if method == "udpplain":
            # Allocated here, not in the flood, so attack.start can
            # name the train's (source address, source port).
            src_port = node.udp.allocate_ephemeral_port()
            if flow_mode != "off" and ctx.sim.flows is not None:
                # Fluid datapath: the flood becomes one FluidFlow on the
                # engine instead of per-packet/train events.
                flood = udp_plain_flow(node, target, port, duration,
                                       payload_size=payload_size,
                                       stats=stats, src_port=src_port)
            else:
                flood = vector(node, target, port, duration,
                               payload_size=payload_size, stats=stats,
                               src_port=src_port, train=train)
        else:
            flood = vector(node, target, port, duration, stats=stats)
        tracer = ctx.sim.obs.tracer
        if tracer.enabled:
            address = str(ctx.netns.address(isinstance(target, Ipv6Address)))
            tracer.emit(
                "attack.start", ctx.sim.now, address=address,
                src_port=src_port, method=method, target=target_text,
                port=port,
            )
            flood = _traced_flood(ctx, flood, stats, address, src_port)
        attack_processes.append(
            SimProcess(ctx.sim, flood, name=f"{ctx.process.name}-udpplain")
        )
        return
    if command == "SCAN":
        from repro.botnet.scanner import scan_loop

        try:
            config = json.loads(parts[1]) if len(parts) > 1 else {}
        except json.JSONDecodeError:
            return
        attack_processes.append(
            SimProcess(ctx.sim, scan_loop(ctx, config), name="mirai-scanner")
        )
        return
    if command == "STOP":
        for process in attack_processes:
            if not process.done:
                process.kill()
        attack_processes.clear()


register_program("mirai", mirai_program)


def make_mirai_binary(architecture: str = "x86_64") -> BinaryImage:
    """The Mirai bot binary for one architecture (a Buildx output)."""
    return BinaryImage(
        name="mirai",
        version="1.0",
        program_key="mirai",
        architecture=architecture,
        protections=(),
        build_seed=0x31A1,
        file_size=60 * 1024,
        rss_bytes=1 * 1024 * 1024,
        vulnerable=False,
    )
