"""repro.botnet — the Mirai model: bot, C&C server, attacks, scanner.

The paper installs "the open-source, readily-available Mirai malware" on
compromised Devs (§I) and uses its published C&C server, controlled over
telnet, to issue volumetric **UDP-PLAIN** floods against TServer
(§III-C).  This package implements the Mirai behaviours the paper names:

* :mod:`repro.botnet.bot` — the bot binary: process-name obfuscation,
  self-deletion of the downloaded binary, killing of rival DDoS processes
  and of anything bound to TCP 22/23, C&C dial-in, attack execution;
* :mod:`repro.botnet.cnc` — the C&C server: bot registry, keepalives,
  attack broadcast, telnet operator console;
* :mod:`repro.botnet.attacks` — the UDP-PLAIN flood, per packet, in
  trains or as one fluid flow;
* :mod:`repro.botnet.scanner` — self-propagation (exploit-armed scanning)
  used by the §V-A2 epidemic-model use case.
"""

from repro.botnet.attacks import AttackStats, udp_plain_flood
from repro.botnet.bot import BOT_PORT, make_mirai_binary
from repro.botnet.cnc import CncServer

__all__ = [
    "AttackStats",
    "BOT_PORT",
    "CncServer",
    "make_mirai_binary",
    "udp_plain_flood",
]
