"""The container engine: image store, container lifecycle, stats.

The `docker` daemon analogue.  DDoSim's initialization phase (§IV-A of
the paper) — "creating and building Docker containers for Attacker and
Devs ... connecting them to the virtual network interfaces and bridges"
— maps onto :meth:`ContainerRuntime.create`, :meth:`attach_network` and
:meth:`ContainerRuntime.start`.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.container.container import Container, ContainerError
from repro.container.image import Image
from repro.container.veth import VethPair
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator


class ContainerRuntime:
    """Engine owning all images and containers of one simulation."""

    def __init__(self, sim: Simulator, seed: int = 0):
        self.sim = sim
        self.seed = seed
        self.images: Dict[str, Image] = {}
        self.containers: Dict[str, Container] = {}
        #: the live veth pair per container name (attach_network installs,
        #: stop detaches — keeping the ghost node for a later restart)
        self.veths: Dict[str, VethPair] = {}
        self._id_counter = itertools.count(1)
        obs = sim.obs
        self._tracer = obs.tracer
        self._spawn_counter = obs.metrics.counter(
            "container_spawns_total", help="containers started"
        )
        self._stop_counter = obs.metrics.counter(
            "container_stops_total", help="containers stopped"
        )
        obs.metrics.gauge(
            "containers_running", help="containers currently running",
            fn=lambda: len(self.running_containers()),
        )

    # ------------------------------------------------------------------
    # Images
    # ------------------------------------------------------------------
    def add_image(self, image: Image) -> Image:
        """Register an image under its ``name:tag`` reference."""
        self.images[image.reference] = image
        return image

    def get_image(self, reference: str) -> Image:
        if ":" not in reference:
            reference = f"{reference}:latest"
        image = self.images.get(reference)
        if image is None:
            raise ContainerError(f"image not found: {reference}")
        return image

    # ------------------------------------------------------------------
    # Containers
    # ------------------------------------------------------------------
    def create(self, image_reference: str, name: Optional[str] = None) -> Container:
        image = self.get_image(image_reference)
        container_id = f"c{next(self._id_counter):06d}"
        name = name or f"{image.name}-{container_id}"
        if name in self.containers:
            raise ContainerError(f"container name {name!r} already in use")
        container = Container(self.sim, container_id, name, image, seed=self.seed)
        self.containers[name] = container
        return container

    def attach_network(self, container: Container, ghost_node: Node) -> VethPair:
        """Bridge ``container`` into the simulation via ``ghost_node``."""
        pair = VethPair(container, ghost_node)
        self.veths[container.name] = pair
        return pair

    def start(self, container: Container) -> None:
        if container.netns is None:
            raise ContainerError(
                f"{container.name}: start before attach_network (no eth0)"
            )
        container.start()
        self._spawn_counter.inc()
        if self._tracer.enabled:
            self._tracer.emit(
                "container.spawn", self.sim.now,
                container=container.name, image=container.image.reference,
            )

    def stop(self, container: Container) -> None:
        was_running = container.state == "running"
        container.stop()
        # Detach the veth so crash/restart loops never accumulate stale
        # bridges; the pair record stays registered so restart() can
        # re-attach to the same ghost node.
        pair = self.veths.get(container.name)
        if pair is not None:
            pair.detach()
        if was_running:
            self._stop_counter.inc()
            if self._tracer.enabled:
                self._tracer.emit(
                    "container.stop", self.sim.now, container=container.name
                )

    def restart(self, container: Container) -> None:
        """Crash-and-restart semantics: a *fresh boot* of the container.

        The filesystem is re-cloned from the image (any infection or
        leaked state is gone — the paper's Devs are wiped by a power
        cycle) and a new veth pair bridges it back to the same ghost
        node before the entrypoint runs again.
        """
        if container.state == "running":
            self.stop(container)
        stale = self.veths.get(container.name)
        if stale is None:
            raise ContainerError(
                f"{container.name}: restart before attach_network (no ghost node)"
            )
        container.fs = container.image.fs.clone()
        self.veths[container.name] = VethPair(container, stale.ghost_node)
        self.start(container)
        # Lazily registered: runs without restarts keep their metric
        # snapshot identical to builds that predate this counter.
        self.sim.obs.metrics.counter(
            "container_restarts_total", help="containers restarted (fresh boot)"
        ).inc()
        if self._tracer.enabled:
            self._tracer.emit(
                "container.restart", self.sim.now, container=container.name
            )

    def remove(self, container: Container) -> None:
        if container.state == "running":
            raise ContainerError(f"{container.name}: stop before remove")
        pair = self.veths.pop(container.name, None)
        if pair is not None:
            pair.detach()
        self.containers.pop(container.name, None)

    def stop_all(self) -> None:
        """The cleaning routine: stop every container (the paper reports
        having to fix NS3DockerEmulator's cleanup crashes — ours is
        idempotent and exception-free by construction)."""
        for container in list(self.containers.values()):
            self.stop(container)

    # ------------------------------------------------------------------
    # Stats (docker stats analogue)
    # ------------------------------------------------------------------
    def running_containers(self) -> List[Container]:
        return [
            container
            for container in self.containers.values()
            if container.state == "running"
        ]

    def stats(self) -> List[Tuple[str, int]]:
        """(name, memory_bytes) for every running container."""
        return [
            (container.name, container.memory_bytes())
            for container in self.running_containers()
        ]

    def total_memory_bytes(self) -> int:
        return sum(memory for _name, memory in self.stats())
