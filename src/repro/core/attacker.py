"""The Attacker component (paper §II-A / §III-A).

One container, bridged into the simulated Internet via a ghost node,
hosting the four sub-components the paper names:

* **Exploit & Infection Scripts** — the malicious DNS server (Connman
  path) and the DHCPv6 exploit sender (Dnsmasq path), both built on
  :mod:`repro.services.exploits`.  Each runs the two-stage exploit: a
  probe elicits a diagnostic that leaks a code pointer, the leak yields
  the victim's ASLR slide, then the tailored ROP payload goes out.
* **Botnet Malware** — Mirai binaries (one per architecture, Buildx
  style) hosted on the file server.
* **Command & Control Server** — :class:`repro.botnet.cnc.CncServer`,
  reachable for operators via telnet.
* **File Server** — the Apache analogue serving the infection script and
  the Mirai binaries.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.binaries.binfmt import BinaryImage
from repro.binaries.shell import make_shell_program
from repro.botnet.bot import make_mirai_binary
from repro.botnet.cnc import ADMIN_PORT, CncServer
from repro.container.build import BuildContext, ImageBuilder
from repro.container.runtime import ContainerRuntime
from repro.core.config import SimulationConfig
from repro.netsim.address import ALL_DHCP_RELAY_AGENTS_AND_SERVERS
from repro.netsim.node import Node
from repro.netsim.process import ProcessKilled, SimProcess
from repro.netsim.topology import StarInternet
from repro.services import dhcp6, dns
from repro.services.exploits import (
    ExploitKit,
    InfectionUrls,
    infection_script,
    parse_leaked_pointer,
    slide_from_leak,
)
from repro.services.http import HttpFileServer
from repro.services.telnet import TelnetServer

ATTACKER_DOCKERFILE = """
FROM debian:slim
COPY sh /bin/sh
COPY cnc /usr/sbin/cnc
COPY apache2 /usr/sbin/apache2
COPY telnetd /usr/sbin/telnetd
COPY dnsd /usr/sbin/dnsd
COPY dhcp6x /usr/sbin/dhcp6x
COPY loader /usr/sbin/loader
COPY init /sbin/init
EXPOSE 23/tcp
EXPOSE 80/tcp
EXPOSE 53/udp
ENTRYPOINT ["/sbin/init"]
"""


class AttackerComponent:
    """Builds and runs the Attacker container and its services."""

    def __init__(
        self,
        config: SimulationConfig,
        sim,
        runtime: ContainerRuntime,
        star: StarInternet,
        connman_binary: BinaryImage,
        dnsmasq_binary: BinaryImage,
        architectures=("x86_64",),
    ):
        self.config = config
        self.sim = sim
        self.runtime = runtime
        self.star = star
        self.connman_binary = connman_binary
        self.dnsmasq_binary = dnsmasq_binary
        self.architectures = tuple(architectures)

        self.node = Node(sim, "attacker")
        self.link = star.attach_host(
            self.node, config.attacker_rate_bps, config.attacker_link_delay
        )
        self.address = self.link.ipv6

        self.cnc = CncServer()
        self.telnet = TelnetServer(port=ADMIN_PORT)
        self.telnet.handler = self.cnc.console_handler
        self.file_server = HttpFileServer(root="/var/www")
        self.urls = InfectionUrls(file_server_host=str(self.address))

        self.connman_kit = ExploitKit(connman_binary, self.urls, obs=sim.obs)
        self.dnsmasq_kit = ExploitKit(dnsmasq_binary, self.urls, obs=sim.obs)
        self._exploit_attempts = sim.obs.metrics.counter(
            "exploit_attempts_total",
            help="exploit payloads sent to victims, by vector",
            labels=("vector",),
        )

        # Per-victim exploitation state (address -> slide).
        self.dns_slides: Dict[object, int] = {}
        self.dhcp_slides: Dict[object, int] = {}
        # Counters for RunResult.
        self.dns_probes_sent = 0
        self.dns_exploits_sent = 0
        self.dhcp_probes_sent = 0
        self.dhcp_exploits_sent = 0
        self.leaks_harvested = 0
        #: stop delivering exploits after this many (None = recruit all).
        #: The epidemic use case seeds exactly one infection and lets the
        #: botnet spread itself from there.
        self.max_initial_infections: Optional[int] = None
        #: the dictionary-attack baseline (armed via arm_telnet_loader)
        self.loader_stats = None
        self._loader_params = None

        self.container = None

    # ------------------------------------------------------------------
    # Image + container assembly
    # ------------------------------------------------------------------
    def arm_telnet_loader(self, pool_base: int, first_iid: int,
                          last_iid: int) -> None:
        """Enable the default-credential baseline: a loader that sweeps
        the Devs' address block before :meth:`build` bakes the image."""
        from repro.botnet.loader import LoaderStats

        self.loader_stats = LoaderStats()
        self_iid = self.link.ipv6.value & 0xFFFFFFFF
        self._loader_params = (pool_base, first_iid, last_iid, self_iid)

    def _loader_program(self):
        from repro.botnet.loader import telnet_loader_program
        from repro.services.exploits import infection_command

        if self._loader_params is None:
            def disabled(ctx):
                yield ctx.sleep(0.0)

            return disabled
        pool_base, first_iid, last_iid, self_iid = self._loader_params
        return telnet_loader_program(
            pool_base,
            first_iid,
            last_iid,
            infection_command(self.urls),
            self.loader_stats,
            self_iid=self_iid,
        )

    def build(self) -> None:
        context = BuildContext()
        context.add("sh", b"#!bin/sh\x00", mode=0o755, program=make_shell_program())
        context.add("cnc", b"\x7fcnc\x00", mode=0o755, program=self.cnc.program())
        context.add(
            "apache2", b"\x7fapache\x00", mode=0o755, program=self.file_server.program()
        )
        context.add(
            "telnetd", b"\x7ftelnetd\x00", mode=0o755, program=self.telnet.program()
        )
        context.add("dnsd", b"\x7fdnsd\x00", mode=0o755, program=self._dns_server_program())
        context.add(
            "dhcp6x", b"\x7fdhcp6x\x00", mode=0o755, program=self._dhcp6_attack_program()
        )
        context.add(
            "loader", b"\x7floader\x00", mode=0o755, program=self._loader_program()
        )
        context.add("init", b"#!init\x00", mode=0o755, program=self._init_program())
        builder = ImageBuilder(context)
        image = builder.build(ATTACKER_DOCKERFILE, "attacker")

        # File Server content: infection script + per-arch Mirai binaries.
        script = infection_script(
            self.urls,
            cnc_host=str(self.address),
            cnc_port=self.cnc.bot_port,
            plant_backdoor=self.config.plant_backdoor,
        )
        image.fs.write_file(
            f"/var/www{self.urls.shellscript_path}", script.encode(), mode=0o644
        )
        for architecture in self.architectures:
            mirai = make_mirai_binary(architecture)
            image.fs.write_file(
                f"/var/www{self.urls.mirai_path_prefix}.{architecture}",
                mirai.serialize(),
                mode=0o644,
            )
        self.runtime.add_image(image)
        self.container = self.runtime.create("attacker", name="attacker")
        self.runtime.attach_network(self.container, self.node)

    def start(self) -> None:
        if self.container is None:
            raise RuntimeError("build() the attacker before start()")
        self.runtime.start(self.container)

    # ------------------------------------------------------------------
    # Programs
    # ------------------------------------------------------------------
    def _init_program(self):
        vector = self.config.recruitment_vector

        def init(ctx):
            services = ["/usr/sbin/cnc", "/usr/sbin/apache2", "/usr/sbin/telnetd"]
            if vector in ("memory_error", "both"):
                services += ["/usr/sbin/dnsd", "/usr/sbin/dhcp6x"]
            if vector in ("credentials", "both"):
                services.append("/usr/sbin/loader")
            for path in services:
                ctx.spawn([path])
            yield ctx.sleep(0.0)

        return init

    def _dns_server_program(self):
        """The malicious DNS server (Connman exploitation path).

        Per victim: first query gets a SERVFAIL probe (trips the verbose
        error path -> diagnostic leak), the diagnostic yields the slide,
        and every later query gets the exploit response whose answer
        RDATA is the ROP overflow payload.
        """
        component = self

        def dnsd(ctx):
            sock = ctx.netns.udp_socket(53)
            ctx.bind_port_marker(53)
            ctx.log("dnsd: malicious DNS server on :53")
            try:
                while True:
                    payload, (source, source_port) = yield sock.recvfrom()
                    if payload is None:
                        continue
                    component._handle_dns_datagram(
                        ctx, sock, payload, source, source_port
                    )
            except ProcessKilled:
                raise
            finally:
                ctx.release_port_marker(53)
                sock.close()

        return dnsd

    def _handle_dns_datagram(self, ctx, sock, payload, source, source_port) -> None:
        leaked = parse_leaked_pointer(payload)
        if leaked is not None:
            self.dns_slides[source] = slide_from_leak(self.connman_binary, leaked)
            self.leaks_harvested += 1
            return
        try:
            query = dns.DnsMessage.decode(payload)
        except dns.DnsDecodeError:
            return
        if query.is_response or not query.questions:
            return
        if self._exploit_budget_spent():
            return
        slide = self.dns_slides.get(source)
        if slide is None:
            # Stage 1: probe. SERVFAIL makes the victim report verbosely.
            probe = dns.DnsMessage(
                id=query.id,
                flags=dns.FLAG_QR | dns.RCODE_SERVFAIL,
                questions=list(query.questions),
            )
            sock.sendto(probe.encode(), source, source_port)
            self.dns_probes_sent += 1
            return
        # Stage 2: the exploit response.
        answer = dns.DnsResourceRecord(
            query.questions[0].name,
            dns.TYPE_TXT,
            self.connman_kit.rop_payload(slide),
        )
        response = dns.make_response(query, [answer])
        sock.sendto(response.encode(), source, source_port)
        self.dns_exploits_sent += 1
        self._exploit_attempts.labels("dns").inc()
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            tracer.emit(
                "exploit.attempt", self.sim.now,
                vector="dns", target=str(source), slide=slide,
                program=self.connman_kit.target.program_key,
            )

    def _dhcp6_attack_program(self):
        """The DHCPv6 exploit script (Dnsmasq exploitation path).

        Periodically multicasts an INFORMATION-REQUEST probe to
        ``ff02::1:2`` (every listening dnsmasq answers — "there is no
        broadcast address in IPv6", §IV-A); each unicast reply leaks that
        victim's slide, and the tailored RELAY-FORW exploit goes back
        unicast.
        """
        component = self
        interval = self.config.dhcp6_attack_interval

        def dhcp6x(ctx):
            sock = ctx.netns.udp_socket()
            exploited: Dict[object, bool] = {}

            def probe_loop(loop_ctx):
                transaction = 0x51
                while True:
                    probe = dhcp6.Dhcp6Message(
                        dhcp6.MSG_INFORMATION_REQUEST, transaction_id=transaction
                    )
                    sock.sendto(
                        probe.encode(),
                        ALL_DHCP_RELAY_AGENTS_AND_SERVERS,
                        dhcp6.SERVER_PORT,
                    )
                    component.dhcp_probes_sent += 1
                    transaction = (transaction + 1) & 0xFFFFFF
                    yield loop_ctx.sleep(interval)

            prober = SimProcess(ctx.sim, probe_loop(ctx), name="dhcp6x-probe")
            try:
                while True:
                    payload, (source, _source_port) = yield sock.recvfrom()
                    if payload is None:
                        continue
                    slide = component._dhcp_leak_from_reply(payload)
                    if slide is None or exploited.get(source):
                        continue
                    if component._exploit_budget_spent():
                        continue
                    component.dhcp_slides[source] = slide
                    exploit = dhcp6.make_relay_forw(
                        component.dnsmasq_kit.rop_payload(slide),
                        link=source,
                        peer=source,
                    )
                    sock.sendto(exploit.encode(), source, dhcp6.SERVER_PORT)
                    component.dhcp_exploits_sent += 1
                    component._exploit_attempts.labels("dhcp6").inc()
                    tracer = ctx.sim.obs.tracer
                    if tracer.enabled:
                        tracer.emit(
                            "exploit.attempt", ctx.sim.now,
                            vector="dhcp6", target=str(source), slide=slide,
                            program=component.dnsmasq_kit.target.program_key,
                        )
                    exploited[source] = True
            except ProcessKilled:
                raise
            finally:
                prober.kill()
                sock.close()

        return dhcp6x

    def _dhcp_leak_from_reply(self, payload: bytes) -> Optional[int]:
        try:
            message = dhcp6.Dhcp6Message.decode(payload)
        except dhcp6.Dhcp6DecodeError:
            return None
        if message.msg_type != dhcp6.MSG_REPLY:
            return None
        status = message.option(dhcp6.OPTION_STATUS_CODE)
        if status is None:
            return None
        leaked = parse_leaked_pointer(status.data)
        if leaked is None:
            return None
        self.leaks_harvested += 1
        return slide_from_leak(self.dnsmasq_binary, leaked)

    def _exploit_budget_spent(self) -> bool:
        return (
            self.max_initial_infections is not None
            and self.exploits_delivered >= self.max_initial_infections
        )

    @property
    def exploits_delivered(self) -> int:
        return self.dns_exploits_sent + self.dhcp_exploits_sent
