"""The emulated binary format ("ELF-ish") and its loader.

A :class:`BinaryImage` is what a compiled daemon *is* in this emulation:
name, version, target architecture, memory protections the build enables
(the paper's Devs "enable some subset of W^X and ASLR", §III-B), a build
seed that deterministically fixes the text-segment gadget layout, and a
``program_key`` naming the behaviour implementation in the program
registry.

Images serialize to real bytes (magic + JSON metadata + size padding), so
they can be COPY'd into container images, served over the emulated HTTP
file server, downloaded by ``curl`` into a victim's filesystem, and
``exec``'d there — the loader registered with
:mod:`repro.container.loaders` recognizes the magic and recovers the
behaviour.  This is how the Mirai binary travels in the infection chain.
"""

from __future__ import annotations

import json
import random
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.container import loaders
from repro.memsafety.aslr import slide_for
from repro.memsafety.layout import AddressSpace, standard_process_layout
from repro.memsafety.rop import ChainInterpreter, ExploitOutcome, GadgetTable

MAGIC = b"\x7fREPRO-ELF\n"

#: fixed text-segment offset of the leakable/legitimate return address;
#: attacker tooling (repro.services.exploits) uses the same constant to
#: turn a leaked pointer back into an ASLR slide.
STATIC_RET_OFFSET = 0x1234

#: program registry: key -> factory(binary) -> program(ctx) generator fn
_programs: Dict[str, Callable] = {}


def register_program(key: str, factory: Callable) -> None:
    """Register behaviour for binaries whose ``program_key`` is ``key``.

    ``factory(binary_image)`` must return a generator function
    ``program(ctx)`` suitable for :meth:`Container.exec_run`.
    """
    _programs[key] = factory


def lookup_program(key: str) -> Optional[Callable]:
    return _programs.get(key)


def report_hijack(ctx, program: str, succeeded: bool, reason=None) -> None:
    """Report a victim-side control-flow-hijack outcome to the run's
    observatory (``exploit.success``/``exploit.crash`` events plus the
    matching counter family).  Shared by every vulnerable daemon."""
    obs = ctx.sim.obs
    name = "exploit_success_total" if succeeded else "exploit_crashes_total"
    obs.metrics.counter(
        name, help="victim-side control-flow hijack outcomes, by program",
        labels=("program",),
    ).labels(program).inc()
    if obs.tracer.enabled:
        # ``address`` joins the outcome to the exploit.attempt that
        # targeted it in the causal tree (repro.obs.report.causal_tree).
        fields = {"program": program, "container": ctx.container.name,
                  "address": str(ctx.netns.address())}
        if reason is not None:
            fields["reason"] = str(reason)
        obs.tracer.emit(
            "exploit.success" if succeeded else "exploit.crash",
            ctx.sim.now, **fields,
        )


class BinaryImage:
    """An emulated compiled binary."""

    def __init__(
        self,
        name: str,
        version: str,
        program_key: str,
        architecture: str = "x86_64",
        protections: Sequence[str] = ("wx",),
        build_seed: int = 1,
        text_base: int = 0x400000,
        text_size: int = 0x40000,
        file_size: int = 64 * 1024,
        rss_bytes: int = 3 * 1024 * 1024,
        vulnerable: bool = True,
    ):
        unknown = set(protections) - {"wx", "aslr"}
        if unknown:
            raise ValueError(f"unknown protections: {sorted(unknown)}")
        self.name = name
        self.version = version
        self.program_key = program_key
        self.architecture = architecture
        self.protections = frozenset(protections)
        self.build_seed = build_seed
        self.text_base = text_base
        self.text_size = text_size
        self.file_size = file_size
        self.rss_bytes = rss_bytes
        self.vulnerable = vulnerable

    # ------------------------------------------------------------------
    # Protections
    # ------------------------------------------------------------------
    @property
    def wx_enabled(self) -> bool:
        return "wx" in self.protections

    @property
    def aslr_enabled(self) -> bool:
        return "aslr" in self.protections

    # ------------------------------------------------------------------
    # Attacker-visible analysis surface
    # ------------------------------------------------------------------
    def gadget_table(self) -> GadgetTable:
        """Offline gadget discovery — identical for attacker and victim
        because both analyze the same build (same seed)."""
        return GadgetTable.discover(self.build_seed, self.text_base, self.text_size)

    # ------------------------------------------------------------------
    # Serialization (real bytes on the wire / in filesystems)
    # ------------------------------------------------------------------
    def metadata_dict(self) -> dict:
        """The JSON-able description embedded in the serialized image."""
        return {
            "name": self.name,
            "version": self.version,
            "program_key": self.program_key,
            "architecture": self.architecture,
            "protections": sorted(self.protections),
            "build_seed": self.build_seed,
            "text_base": self.text_base,
            "text_size": self.text_size,
            "file_size": self.file_size,
            "rss_bytes": self.rss_bytes,
            "vulnerable": self.vulnerable,
        }

    @classmethod
    def from_metadata(cls, metadata: dict) -> "BinaryImage":
        return cls(
            name=metadata["name"],
            version=metadata["version"],
            program_key=metadata["program_key"],
            architecture=metadata["architecture"],
            protections=metadata["protections"],
            build_seed=metadata["build_seed"],
            text_base=metadata["text_base"],
            text_size=metadata["text_size"],
            file_size=metadata["file_size"],
            rss_bytes=metadata["rss_bytes"],
            vulnerable=metadata["vulnerable"],
        )

    def serialize(self) -> bytes:
        metadata = json.dumps(self.metadata_dict()).encode()
        blob = MAGIC + len(metadata).to_bytes(4, "big") + metadata
        if len(blob) < self.file_size:
            blob += b"\x00" * (self.file_size - len(blob))
        return blob

    @classmethod
    def parse(cls, data: bytes) -> "BinaryImage":
        if not data.startswith(MAGIC):
            raise ValueError("not a REPRO-ELF image")
        length = int.from_bytes(data[len(MAGIC): len(MAGIC) + 4], "big")
        start = len(MAGIC) + 4
        metadata = json.loads(data[start: start + length].decode())
        return cls.from_metadata(metadata)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        protections = ",".join(sorted(self.protections)) or "none"
        return (
            f"<BinaryImage {self.name}-{self.version} [{self.architecture}] "
            f"prot={protections} {'VULN' if self.vulnerable else 'patched'}>"
        )


class BinaryRuntime:
    """A binary *loaded into a process*: slide, mappings, hijack handling.

    Created when a daemon starts; owns the per-process ASLR draw and the
    address space, and adjudicates what an overflow achieves.
    """

    def __init__(self, image: BinaryImage, rng: random.Random):
        self.image = image
        self.slide = slide_for(image.aslr_enabled, rng)
        self.address_space: AddressSpace = standard_process_layout(
            image.text_base + self.slide,
            image.text_size,
            wx_enforced=image.wx_enabled,
        )
        self.gadgets = image.gadget_table()
        self._interpreter = ChainInterpreter(self.gadgets, self.slide, self.address_space)
        #: a stable legitimate return address inside text (used both as
        #: the frame's pristine value and as the leakable pointer)
        self.legitimate_return_address = image.text_base + self.slide + STATIC_RET_OFFSET

    @property
    def runtime_text_base(self) -> int:
        return self.image.text_base + self.slide

    def leak_code_pointer(self) -> int:
        """The info-leak primitive: a text-segment pointer an error path
        discloses (modelling English et al.'s leak stage).  The attacker
        recovers ``slide = leaked - static``."""
        return self.legitimate_return_address

    def run_hijacked(self, return_address: int, spill: bytes) -> ExploitOutcome:
        """Let control flow go wherever the overflow pointed it."""
        return self._interpreter.run(return_address, spill)


def binary_loader(data: bytes) -> Optional[Tuple[Callable, str, int]]:
    """Container-runtime loader for REPRO-ELF bytes (see
    :mod:`repro.container.loaders`)."""
    if not data.startswith(MAGIC):
        return None
    image = BinaryImage.parse(data)
    factory = lookup_program(image.program_key)
    if factory is None:
        raise ValueError(
            f"binary {image.name!r} references unregistered program "
            f"{image.program_key!r}"
        )
    return factory(image), image.name, image.rss_bytes


# Register at import: any container can exec downloaded REPRO-ELF bytes.
loaders.register_loader(binary_loader)
