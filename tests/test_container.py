"""Unit tests for containers, processes and the runtime engine."""

import pytest

from repro.container.container import ContainerError
from repro.container.image import Image
from repro.container.runtime import ContainerRuntime
from repro.netsim.node import Node


def looping_program(ctx):
    while True:
        yield ctx.sleep(10.0)


def short_program(ctx):
    yield ctx.sleep(1.0)
    return "done"


def make_image(name="test-image", programs=None):
    image = Image(name)
    for path, program in (programs or {}).items():
        image.fs.write_file(path, b"\x7felf", mode=0o755, program=program)
    return image


@pytest.fixture
def runtime(sim):
    return ContainerRuntime(sim, seed=5)


def attach(sim, runtime, container):
    node = Node(sim, f"ghost-{container.name}")
    runtime.attach_network(container, node)
    return node


class TestLifecycle:
    def test_create_assigns_ids_and_names(self, sim, runtime):
        runtime.add_image(make_image())
        one = runtime.create("test-image")
        two = runtime.create("test-image")
        assert one.id != two.id
        assert one.name != two.name

    def test_duplicate_name_rejected(self, sim, runtime):
        runtime.add_image(make_image())
        runtime.create("test-image", name="same")
        with pytest.raises(ContainerError):
            runtime.create("test-image", name="same")

    def test_missing_image_rejected(self, sim, runtime):
        with pytest.raises(ContainerError):
            runtime.create("ghost:latest")

    def test_start_requires_network(self, sim, runtime):
        runtime.add_image(make_image())
        container = runtime.create("test-image")
        with pytest.raises(ContainerError):
            runtime.start(container)

    def test_start_runs_entrypoint(self, sim, runtime):
        image = make_image(programs={"/sbin/init": looping_program})
        image.entrypoint = ["/sbin/init"]
        runtime.add_image(image)
        container = runtime.create("test-image")
        attach(sim, runtime, container)
        runtime.start(container)
        assert len(container.processes) == 1

    def test_stop_kills_processes(self, sim, runtime):
        image = make_image(programs={"/sbin/init": looping_program})
        image.entrypoint = ["/sbin/init"]
        runtime.add_image(image)
        container = runtime.create("test-image")
        attach(sim, runtime, container)
        runtime.start(container)
        sim.run(until=1.0)
        runtime.stop(container)
        sim.run(until=2.0)
        assert container.live_processes() == []
        assert container.state == "stopped"

    def test_remove_requires_stop(self, sim, runtime):
        runtime.add_image(make_image())
        container = runtime.create("test-image")
        attach(sim, runtime, container)
        runtime.start(container)
        with pytest.raises(ContainerError):
            runtime.remove(container)
        runtime.stop(container)
        runtime.remove(container)
        assert container.name not in runtime.containers

    def test_stop_all_is_idempotent(self, sim, runtime):
        runtime.add_image(make_image())
        for index in range(3):
            container = runtime.create("test-image", name=f"c{index}")
            attach(sim, runtime, container)
            runtime.start(container)
        runtime.stop_all()
        runtime.stop_all()
        assert runtime.running_containers() == []


class TestExec:
    def _running_container(self, sim, runtime, programs):
        runtime.add_image(make_image(programs=programs))
        container = runtime.create("test-image")
        attach(sim, runtime, container)
        runtime.start(container)
        return container

    def test_exec_runs_program(self, sim, runtime):
        container = self._running_container(sim, runtime, {"/bin/tool": short_program})
        process = container.exec_run(["/bin/tool"])
        sim.run(until=5.0)
        assert process.exited
        assert process.exit_value == "done"

    def test_exec_missing_file(self, sim, runtime):
        container = self._running_container(sim, runtime, {})
        with pytest.raises(ContainerError, match="no such file"):
            container.exec_run(["/bin/absent"])

    def test_exec_non_executable(self, sim, runtime):
        container = self._running_container(sim, runtime, {})
        container.fs.write_file("/data.txt", b"hello", mode=0o644)
        with pytest.raises(ContainerError, match="permission denied"):
            container.exec_run(["/data.txt"])

    def test_exec_unknown_format(self, sim, runtime):
        container = self._running_container(sim, runtime, {})
        container.fs.write_file("/bin/mystery", b"\x00\x01", mode=0o755)
        with pytest.raises(ContainerError, match="exec format error"):
            container.exec_run(["/bin/mystery"])

    def test_exec_string_argv(self, sim, runtime):
        container = self._running_container(sim, runtime, {"/bin/tool": short_program})
        process = container.exec_run("/bin/tool --flag value")
        assert process.argv == ["/bin/tool", "--flag", "value"]

    def test_exec_in_stopped_container_rejected(self, sim, runtime):
        container = self._running_container(sim, runtime, {"/bin/tool": short_program})
        runtime.stop(container)
        with pytest.raises(ContainerError):
            container.exec_run(["/bin/tool"])

    def test_exited_process_reaped(self, sim, runtime):
        container = self._running_container(sim, runtime, {"/bin/tool": short_program})
        process = container.exec_run(["/bin/tool"])
        sim.run(until=5.0)
        assert process.pid not in container.processes


class TestProcessTable:
    def _container_with(self, sim, runtime, programs):
        runtime.add_image(make_image(programs=programs))
        container = runtime.create("test-image")
        attach(sim, runtime, container)
        runtime.start(container)
        return container

    def test_find_processes_by_name(self, sim, runtime):
        container = self._container_with(sim, runtime, {"/bin/daemon": looping_program})
        container.exec_run(["/bin/daemon"])
        assert len(container.find_processes("daemon")) == 1
        assert container.find_processes("nothing") == []

    def test_process_name_mutation_visible(self, sim, runtime):
        container = self._container_with(sim, runtime, {"/bin/daemon": looping_program})
        process = container.exec_run(["/bin/daemon"])
        process.context.set_process_name("xyz123")
        assert container.find_processes("xyz123") == [process]
        assert container.find_processes("daemon") == []

    def test_port_binding_lookup(self, sim, runtime):
        container = self._container_with(sim, runtime, {"/bin/daemon": looping_program})
        process = container.exec_run(["/bin/daemon"])
        process.context.bind_port_marker(23)
        assert container.processes_bound_to(23) == [process]
        process.context.release_port_marker(23)
        assert container.processes_bound_to(23) == []

    def test_kill_process(self, sim, runtime):
        container = self._container_with(sim, runtime, {"/bin/daemon": looping_program})
        process = container.exec_run(["/bin/daemon"])
        assert container.kill_process(process.pid)
        sim.run(until=1.0)
        assert process.exited
        assert not container.kill_process(process.pid)

    def test_process_rng_is_deterministic(self, sim, runtime):
        container = self._container_with(sim, runtime, {"/bin/daemon": looping_program})
        process = container.exec_run(["/bin/daemon"])
        import random

        expected = random.Random(
            f"{container.seed}/{container.id}/{process.pid}/process-rng"
        ).random()
        assert process.context.rng.random() == expected


class TestMemoryAccounting:
    def test_stopped_container_reports_zero(self, sim, runtime):
        runtime.add_image(make_image())
        container = runtime.create("test-image")
        assert container.memory_bytes() == 0

    def test_memory_includes_base_fs_and_processes(self, sim, runtime):
        image = make_image(programs={"/bin/daemon": looping_program})
        image.fs.write_file("/data", b"z" * 1000)
        runtime.add_image(image)
        container = runtime.create("test-image")
        attach(sim, runtime, container)
        runtime.start(container)
        baseline = container.memory_bytes()
        assert baseline >= image.base_rss_bytes + 1000
        container.exec_run(["/bin/daemon"])
        assert container.memory_bytes() > baseline

    def test_runtime_stats_aggregate(self, sim, runtime):
        runtime.add_image(make_image())
        for index in range(2):
            container = runtime.create("test-image", name=f"m{index}")
            attach(sim, runtime, container)
            runtime.start(container)
        assert runtime.total_memory_bytes() == sum(m for _n, m in runtime.stats())
        assert len(runtime.stats()) == 2


class TestVeth:
    def test_attach_gives_netns(self, sim, runtime):
        runtime.add_image(make_image())
        container = runtime.create("test-image")
        node = Node(sim, "ghost")
        pair = runtime.attach_network(container, node)
        assert container.netns is not None
        assert container.netns.node is node
        pair.detach()
        assert container.netns is None

    def test_netns_socket_factories(self, sim, runtime, star):
        runtime.add_image(make_image())
        container = runtime.create("test-image")
        node = Node(sim, "ghost")
        star.attach_host(node, 1e6)
        runtime.attach_network(container, node)
        sock = container.netns.udp_socket(5000)
        assert sock.port == 5000
        assert container.netns.address() == star.address_of(node)
