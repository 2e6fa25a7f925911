"""Integration-level tests for the HTTP file server and telnet console."""

import pytest

from repro.netsim.process import SimProcess
from repro.services.http import HttpFileServer, http_get
from repro.services.telnet import TelnetServer, telnet_exec
from tests.helpers import MiniNet


def run(mininet, generator, until=120.0, name="client"):
    process = SimProcess(mininet.sim, generator, name=name)
    mininet.sim.run(until=until)
    assert process.done, f"{name} still pending at t={until}"
    if process.error is not None:
        raise process.error
    return process.value


class TestHttpFileServer:
    def make_server(self, mininet, files):
        server = HttpFileServer(root="/var/www")
        container, node, _link = mininet.host_container(
            "webserver",
            rate_bps=10e6,
            files={"/usr/sbin/apache2": (b"\x7fapache", 0o755, server.program())},
        )
        for path, data in files.items():
            container.fs.write_file(f"/var/www{path}", data)
        container.exec_run(["/usr/sbin/apache2"])
        return server, node

    def test_get_existing_file(self):
        mininet = MiniNet()
        server, web_node = self.make_server(mininet, {"/bins/tool": b"BINARY" * 100})
        _container, client_node, _ = mininet.host_container("client", rate_bps=10e6)

        def client():
            response = yield from http_get(
                mininet.runtime.containers["client"].netns,
                mininet.star.address_of(web_node),
                80,
                "/bins/tool",
            )
            return response

        response = run(mininet, client())
        assert response.ok
        assert response.body == b"BINARY" * 100
        assert server.requests_served == 1

    def test_get_missing_file_404(self):
        mininet = MiniNet()
        server, web_node = self.make_server(mininet, {})
        mininet.host_container("client", rate_bps=10e6)

        def client():
            return (
                yield from http_get(
                    mininet.runtime.containers["client"].netns,
                    mininet.star.address_of(web_node),
                    80,
                    "/absent",
                )
            )

        response = run(mininet, client())
        assert response.status == 404
        assert server.requests_failed == 1

    def test_concurrent_requests(self):
        mininet = MiniNet()
        _server, web_node = self.make_server(
            mininet, {f"/f{i}": bytes([i]) * 50 for i in range(4)}
        )
        results = []
        for index in range(4):
            container, _node, _ = mininet.host_container(f"client{index}", rate_bps=10e6)

            def client(i=index, netns=container.netns):
                response = yield from http_get(
                    netns, mininet.star.address_of(web_node), 80, f"/f{i}"
                )
                results.append((i, response.body))

            SimProcess(mininet.sim, client(), name=f"client{index}")
        mininet.sim.run(until=60.0)
        assert sorted(results) == [(i, bytes([i]) * 50) for i in range(4)]

    def test_connection_refused_surfaces(self):
        mininet = MiniNet()
        _server, web_node = self.make_server(mininet, {})
        mininet.host_container("client", rate_bps=10e6)

        def client():
            with pytest.raises(ConnectionError):
                yield from http_get(
                    mininet.runtime.containers["client"].netns,
                    mininet.star.address_of(web_node),
                    8080,  # nothing listens here
                    "/x",
                )

        run(mininet, client())


class TestTelnetConsole:
    def make_console(self, mininet, handler):
        console = TelnetServer(port=2323, username="root", password="hunter2")
        console.handler = handler
        container, node, _ = mininet.host_container(
            "console-host",
            rate_bps=10e6,
            files={"/usr/sbin/telnetd": (b"\x7ftelnetd", 0o755, console.program())},
        )
        container.exec_run(["/usr/sbin/telnetd"])
        return console, node

    def test_login_and_command(self):
        mininet = MiniNet()
        console, host = self.make_console(mininet, lambda line: f"echo:{line}")
        client_container, _n, _ = mininet.host_container("client", rate_bps=10e6)

        def client():
            return (
                yield from telnet_exec(
                    client_container.netns,
                    mininet.star.address_of(host),
                    2323,
                    "root",
                    "hunter2",
                    ["status", "bots"],
                )
            )

        replies = run(mininet, client())
        assert replies == ["echo:status", "echo:bots"]
        assert console.sessions_opened == 1

    def test_bad_password_rejected(self):
        mininet = MiniNet()
        console, host = self.make_console(mininet, lambda line: "never")
        client_container, _n, _ = mininet.host_container("client", rate_bps=10e6)

        def client():
            with pytest.raises(ConnectionError):
                yield from telnet_exec(
                    client_container.netns,
                    mininet.star.address_of(host),
                    2323,
                    "root",
                    "wrong",
                    ["status"],
                )

        run(mininet, client())
        assert console.logins_failed == 1

    def test_no_handler_reports_no_shell(self):
        mininet = MiniNet()
        console, host = self.make_console(mininet, None)
        console.handler = None
        client_container, _n, _ = mininet.host_container("client", rate_bps=10e6)

        def client():
            return (
                yield from telnet_exec(
                    client_container.netns,
                    mininet.star.address_of(host),
                    2323,
                    "root",
                    "hunter2",
                    ["anything"],
                )
            )

        assert run(mininet, client()) == ["no shell"]
