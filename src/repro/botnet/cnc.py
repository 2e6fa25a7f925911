"""The Mirai C&C server.

The paper uses "C&C Server provided with Mirai's published code" and
drives it over telnet: "we can access C&C Server from a terminal via
telnet to monitor the connected bots and instruct them to perform a
botnet DDoS attack against TServer" (§III-A).

Protocol (line-oriented over TCP):

* bot -> cnc: ``REG <arch>`` on connect, ``PONG`` keepalives;
* cnc -> bot: ``PING`` keepalives, ``ATTACK udpplain <target> <port>
  <duration> <payload_size>``, ``SCAN <json>`` (self-propagation config),
  ``STOP``.

Operator console commands (via :class:`repro.services.telnet.TelnetServer`):
``bots``, ``udpplain <target> <port> <duration> [payload]``, ``scan
<json>``, ``status``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.netsim.process import ProcessKilled, SimFuture, SimProcess
from repro.netsim.sockets import TcpSocket

#: Mirai's bots report to the C&C on TCP 23 (the published code's default)
BOT_PORT = 23
ADMIN_PORT = 2323
PING_INTERVAL = 30.0


@dataclass
class BotRecord:
    """One connected bot as the C&C sees it."""

    bot_id: int
    address: object
    architecture: str
    connected_at: float
    socket: TcpSocket
    alive: bool = True
    last_seen: float = 0.0
    commands_sent: int = 0


@dataclass
class AttackOrder:
    """One attack command broadcast to the botnet."""

    method: str
    target: str
    port: int
    duration: float
    payload_size: int
    issued_at: float
    bots_commanded: int


class CncServer:
    """Bot registry + command fan-out + operator console backend."""

    def __init__(self, bot_port: int = BOT_PORT):
        self.bot_port = bot_port
        self.bots: Dict[int, BotRecord] = {}
        self._bot_ids = itertools.count(1)
        self.attack_orders: List[AttackOrder] = []
        self.total_registrations = 0
        #: distinct bot source addresses ever registered (reconnects after
        #: churn do not double-count as new recruits)
        self.seen_addresses = set()
        self.first_registration_time: Optional[float] = None
        self.last_registration_time: Optional[float] = None
        #: registration timestamps of *new* (distinct) bots — this is the
        #: infection curve the epidemic use case reads out
        self.registration_times: List[float] = []
        #: orders replayed to every newly registering bot (SCAN is a
        #: standing order — propagation must reach late joiners; ATTACK is
        #: deliberately not, matching the paper's missed-command effect)
        self.standing_orders: List[str] = []
        self._bot_count_waiters: List[tuple] = []  # (threshold, future)
        self._sim = None

    # ------------------------------------------------------------------
    # Bot-facing server
    # ------------------------------------------------------------------
    def program(self):
        """Program factory for the C&C daemon in the attacker container."""

        def cnc(ctx):
            self._sim = ctx.sim
            server = ctx.netns.tcp_listen(self.bot_port)
            ctx.bind_port_marker(self.bot_port)
            ctx.log(f"cnc: listening for bots on :{self.bot_port}")

            def keepalive(loop_ctx):
                # Periodic PINGs double as dead-peer detection: sending on
                # a broken connection eventually exhausts retransmission
                # and tears the session down, reaping the bot record.
                while True:
                    yield loop_ctx.sleep(PING_INTERVAL)
                    self.broadcast("PING")

            pinger = SimProcess(ctx.sim, keepalive(ctx), name="cnc-keepalive")
            # Live per-bot session processes; killed with the daemon so a
            # C&C outage actually drops every bot (they see the FIN and
            # enter their reconnect loops) instead of leaving orphaned
            # sessions serving a dead server.
            sessions = set()
            try:
                while True:
                    sock = yield server.accept()
                    session = SimProcess(
                        ctx.sim, self._bot_session(ctx, sock), name="cnc-bot"
                    )
                    sessions.add(session)
                    session.add_callback(lambda _s, s=session: sessions.discard(s))
            except ProcessKilled:
                raise
            finally:
                pinger.kill()
                for session in list(sessions):
                    if not session.done:
                        session.kill()
                ctx.release_port_marker(self.bot_port)
                server.close()

        return cnc

    def _bot_session(self, ctx, sock: TcpSocket):
        record: Optional[BotRecord] = None
        try:
            line = yield from sock.read_line()
            if line is None:
                return
            parts = line.decode("utf-8", "replace").split()
            if not parts or parts[0] != "REG":
                sock.close()
                return
            architecture = parts[1] if len(parts) > 1 else "unknown"
            record = BotRecord(
                bot_id=next(self._bot_ids),
                address=sock.peer[0],
                architecture=architecture,
                connected_at=ctx.sim.now,
                socket=sock,
                last_seen=ctx.sim.now,
            )
            self.bots[record.bot_id] = record
            self.total_registrations += 1
            obs = ctx.sim.obs
            obs.metrics.counter(
                "cnc_registrations_total",
                help="bot registrations (reconnects included)",
            ).inc()
            if record.address not in self.seen_addresses:
                self.seen_addresses.add(record.address)
                self.registration_times.append(ctx.sim.now)
                obs.metrics.counter(
                    "cnc_recruits_total", help="distinct bots ever recruited"
                ).inc()
                if obs.tracer.enabled:
                    obs.tracer.emit(
                        "cnc.recruit", ctx.sim.now,
                        bot_id=record.bot_id, address=str(record.address),
                        architecture=architecture,
                    )
            if self.first_registration_time is None:
                self.first_registration_time = ctx.sim.now
            self.last_registration_time = ctx.sim.now
            for order in self.standing_orders:
                sock.send_line(order)
            ctx.log(f"cnc: bot #{record.bot_id} from {record.address} ({architecture})")
            self._notify_bot_count()
            while True:
                try:
                    line = yield from sock.read_line()
                except ConnectionError:
                    return  # dead peer detected by keepalive traffic
                if line is None:
                    return
                record.last_seen = ctx.sim.now
                # Bots only ever send PONG after registration.
        finally:
            if record is not None:
                record.alive = False
                self.bots.pop(record.bot_id, None)
            sock.close()

    # ------------------------------------------------------------------
    # Command fan-out
    # ------------------------------------------------------------------
    def fingerprint_state(self) -> dict:
        """Deterministic registry/command state for the end-state
        fingerprint (bot IDs are instance-local and reproducible)."""
        return {
            "registrations": self.total_registrations,
            "seen": sorted(str(address) for address in self.seen_addresses),
            "registration_times": list(self.registration_times),
            "first": self.first_registration_time,
            "last": self.last_registration_time,
            "bots": [
                [bot_id, str(record.address), record.architecture,
                 record.connected_at, record.last_seen,
                 record.commands_sent, record.alive]
                for bot_id, record in sorted(self.bots.items())
            ],
            "orders": [
                [order.method, order.target, order.port, order.duration,
                 order.payload_size, order.issued_at, order.bots_commanded]
                for order in self.attack_orders
            ],
            "standing": list(self.standing_orders),
            "waiters": sorted(
                threshold for threshold, _future in self._bot_count_waiters
            ),
        }

    def connected_bots(self) -> List[BotRecord]:
        return [record for record in self.bots.values() if record.alive]

    def bot_count(self) -> int:
        return len(self.connected_bots())

    def wait_for_bots(self, threshold: int) -> SimFuture:
        """Future resolving once >= ``threshold`` bots are connected."""
        if self._sim is None:
            raise RuntimeError("C&C server has not started yet")
        future = SimFuture(self._sim)
        if self.bot_count() >= threshold:
            future.succeed(self.bot_count())
        else:
            self._bot_count_waiters.append((threshold, future))
        return future

    def _notify_bot_count(self) -> None:
        count = self.bot_count()
        remaining = []
        for threshold, future in self._bot_count_waiters:
            if count >= threshold and not future.done:
                future.succeed(count)
            elif not future.done:
                remaining.append((threshold, future))
        self._bot_count_waiters = remaining

    def broadcast(self, line: str) -> int:
        """Send a raw command line to every connected bot.

        A send failure is definitive dead-peer evidence, so the record is
        pruned immediately (and bot-count waiters re-notified) rather
        than lingering in the table until the session reaps it.
        """
        sent = 0
        pruned = False
        for record in self.connected_bots():
            try:
                record.socket.send_line(line)
                record.commands_sent += 1
                sent += 1
            except ConnectionError:
                self._prune(record)
                pruned = True
        if pruned:
            self._notify_bot_count()
        return sent

    def _prune(self, record: BotRecord) -> None:
        """Drop a dead peer's record from the bot table."""
        record.alive = False
        self.bots.pop(record.bot_id, None)
        if self._sim is not None:
            obs = self._sim.obs
            obs.metrics.counter(
                "cnc_bot_prunes_total",
                help="bot records pruned on send failure",
            ).inc()
            if obs.tracer.enabled:
                obs.tracer.emit(
                    "cnc.prune", self._sim.now,
                    bot_id=record.bot_id, address=str(record.address),
                )

    def issue_attack(
        self,
        target: str,
        port: int,
        duration: float,
        payload_size: int = 512,
        method: str = "udpplain",
        train: int = 1,
        flow: str = "off",
    ) -> AttackOrder:
        """Broadcast an attack order; returns the recorded order.

        ``train`` > 1 is appended as an optional sixth argument (older
        bots that only parse five simply flood unbatched).  ``flow``
        other than "off" selects the fluid datapath and rides as a
        seventh argument — the train slot is then always emitted so the
        positions stay fixed; with ``flow == "off"`` the wire format
        (and hence the simulated TCP byte stream) is exactly the
        pre-fluid one.
        """
        line = f"ATTACK {method} {target} {port} {duration:g} {payload_size}"
        if flow != "off":
            line = f"{line} {train} {flow}"
        elif train > 1:
            line = f"{line} {train}"
        sent = self.broadcast(line)
        if self._sim is not None:
            obs = self._sim.obs
            obs.metrics.counter(
                "cnc_attack_orders_total", help="attack orders broadcast"
            ).inc()
            if obs.tracer.enabled:
                obs.tracer.emit(
                    "cnc.attack", self._sim.now,
                    method=method, target=target, port=port,
                    duration=duration, bots=sent,
                )
        order = AttackOrder(
            method=method,
            target=target,
            port=port,
            duration=duration,
            payload_size=payload_size,
            issued_at=self._sim.now if self._sim is not None else 0.0,
            bots_commanded=sent,
        )
        self.attack_orders.append(order)
        return order

    def issue_scan(self, config_json: str) -> int:
        """Broadcast a self-propagation scan order (epidemic use case).

        Recorded as a standing order so bots recruited later also scan.
        """
        line = f"SCAN {config_json}"
        self.standing_orders.append(line)
        return self.broadcast(line)

    # ------------------------------------------------------------------
    # Operator console handler (plugs into TelnetServer)
    # ------------------------------------------------------------------
    def console_handler(self, line: str) -> str:
        parts = line.split()
        if not parts:
            return ""
        command = parts[0].lower()
        if command == "bots":
            records = self.connected_bots()
            lines = [f"{len(records)} bots connected"]
            lines.extend(
                f"  #{record.bot_id} {record.address} {record.architecture}"
                for record in records
            )
            return "\n".join(lines)
        if command == "status":
            return (
                f"bots={self.bot_count()} registrations={self.total_registrations} "
                f"attacks={len(self.attack_orders)}"
            )
        if command in ("udpplain", "syn", "ack"):
            if len(parts) < 4:
                return f"usage: {command} <target> <port> <duration> [payload]"
            payload = int(parts[4]) if len(parts) > 4 else 512
            order = self.issue_attack(
                parts[1], int(parts[2]), float(parts[3]), payload, method=command
            )
            return f"attack sent to {order.bots_commanded} bots"
        if command == "scan":
            sent = self.issue_scan(line.partition(" ")[2])
            return f"scan order sent to {sent} bots"
        return f"unknown command: {command}"
