"""Tests for the default-credential recruitment baseline: the login
telnetd, the dictionary loader, and the end-to-end vector comparison."""

import pytest

from repro.binaries.logind import (
    make_login_telnetd_binary,
)
from repro.core import DDoSim, SimulationConfig
from repro.netsim.process import SimProcess
from tests.helpers import MiniNet


def make_telnet_host(mininet, name="iot", user="root", password="xc3511"):
    container, node, _link = mininet.host_container(
        name,
        rate_bps=300e3,
        files={"/usr/sbin/telnetd": (make_login_telnetd_binary().serialize(), 0o755)},
        env={"TELNET_USER": user, "TELNET_PASS": password},
    )
    container.exec_run(["/usr/sbin/telnetd"])
    return container, node


def telnet_dialogue(mininet, client_container, target, lines):
    """Drive a scripted telnet session; returns everything received."""
    transcript = []

    def client():
        sock = client_container.netns.tcp_connect(target, 23)
        yield sock.wait_connected()
        for line in lines:
            sock.send_line(line)
        while True:
            chunk = yield sock.recv()
            if chunk == b"":
                return
            transcript.append(chunk)

    SimProcess(mininet.sim, client(), name="dialogue")
    mininet.sim.run(until=30.0)
    return b"".join(transcript)


class TestLoginTelnetd:
    def test_correct_credentials_reach_shell(self):
        mininet = MiniNet()
        _container, node = make_telnet_host(mininet)
        client, _n, _ = mininet.host_container("client", rate_bps=10e6)
        transcript = telnet_dialogue(
            mininet, client, mininet.star.address_of(node),
            ["root", "xc3511", "echo pwned", "exit"],
        )
        assert b"BusyBox" in transcript
        assert b"pwned" in transcript

    def test_wrong_credentials_rejected_and_disconnected(self):
        mininet = MiniNet()
        _container, node = make_telnet_host(mininet, password="S3cure!")
        client, _n, _ = mininet.host_container("client", rate_bps=10e6)
        transcript = telnet_dialogue(
            mininet, client, mininet.star.address_of(node),
            ["root", "a", "root", "b", "root", "c"],
        )
        assert transcript.count(b"Login incorrect") == 3
        assert b"BusyBox" not in transcript

    def test_shell_commands_touch_the_filesystem(self):
        mininet = MiniNet()
        container, node = make_telnet_host(mininet)
        client, _n, _ = mininet.host_container("client", rate_bps=10e6)
        telnet_dialogue(
            mininet, client, mininet.star.address_of(node),
            ["root", "xc3511", "echo owned > /tmp/mark", "exit"],
        )
        assert container.fs.read_file("/tmp/mark") == b"owned\n"


class TestVectorEndToEnd:
    def _run(self, vector, weak_fraction, n_devs=8, seed=9):
        config = SimulationConfig(
            n_devs=n_devs, seed=seed, attack_duration=15.0,
            recruit_timeout=60.0, sim_duration=250.0,
            recruitment_vector=vector,
            weak_credential_fraction=weak_fraction,
        )
        ddosim = DDoSim(config)
        result = ddosim.run()
        return ddosim, result

    def test_credentials_vector_recruits_only_weak_devices(self):
        ddosim, result = self._run("credentials", 0.5)
        weak = ddosim.devs.weak_credential_count()
        assert 0 < weak < 8
        assert result.recruitment.bots_recruited == weak
        stats = ddosim.attacker.loader_stats
        assert stats.logins_succeeded == weak
        assert stats.hosts_with_telnet == 8

    def test_memory_error_ignores_credential_hygiene(self):
        _ddosim, result = self._run("memory_error", 0.0)
        assert result.recruitment.infection_rate == 1.0

    def test_both_vectors_reach_everything(self):
        _ddosim, result = self._run("both", 0.5)
        assert result.recruitment.bots_recruited == 8

    def test_all_weak_fleet_fully_recruited_by_credentials(self):
        ddosim, result = self._run("credentials", 1.0)
        assert ddosim.devs.weak_credential_count() == 8
        assert result.recruitment.bots_recruited == 8

    def test_all_strong_fleet_resists_credentials(self):
        ddosim, result = self._run("credentials", 0.0)
        assert result.recruitment.bots_recruited == 0
        assert ddosim.attacker.loader_stats.logins_succeeded == 0
        # But the dictionary was tried everywhere.
        assert ddosim.attacker.loader_stats.hosts_with_telnet == 8

    def test_credential_bots_attack_like_any_bot(self):
        ddosim, result = self._run("credentials", 1.0)
        assert result.attack.avg_received_kbps > 0
        assert result.attack.bots_commanded == 8

    def test_invalid_vector_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_devs=2, recruitment_vector="pigeon")
        with pytest.raises(ValueError):
            SimulationConfig(n_devs=2, weak_credential_fraction=1.5)


class TestVectorComparisonRunner:
    def test_rows_and_ordering(self):
        from repro.core.experiment import run_vector_comparison

        rows = run_vector_comparison(n_devs=6, seed=2,
                                     weak_credential_fraction=0.5)
        by_vector = {row["vector"]: row for row in rows}
        assert by_vector["memory_error"]["infection_rate"] == 1.0
        assert (
            by_vector["credentials"]["recruited"]
            == by_vector["credentials"]["weak_credential_devs"]
        )
        assert (
            by_vector["credentials"]["recruited"]
            <= by_vector["memory_error"]["recruited"]
        )


class TestLoaderSession:
    """Direct tests for the loader's buffered prompt reader."""

    def _session_with_chunks(self, sim, chunks):
        from repro.botnet.loader import _Session
        from repro.netsim.process import SimFuture

        class FakeSock:
            def __init__(self):
                self.queue = list(chunks)

            def recv(self):
                future = SimFuture(sim)
                future.succeed(self.queue.pop(0) if self.queue else b"")
                return future

        return _Session(FakeSock())

    def test_finds_prompt_across_chunk_boundaries(self, sim):
        from tests.conftest import drive

        session = self._session_with_chunks(sim, [b"log", b"in: rest"])

        def worker():
            token = yield from session.read_until(b"login: ")
            return token, session.buffer

        token, leftover = drive(sim, worker())
        assert token == b"login: "
        assert leftover == b"rest"

    def test_earliest_token_wins(self, sim):
        from tests.conftest import drive

        session = self._session_with_chunks(
            sim, [b"Login incorrect ... $ "]
        )

        def worker():
            return (yield from session.read_until(b"$ ", b"Login incorrect"))

        assert drive(sim, worker()) == b"Login incorrect"

    def test_eof_returns_none_and_marks_closed(self, sim):
        from tests.conftest import drive

        session = self._session_with_chunks(sim, [b"partial"])

        def worker():
            return (yield from session.read_until(b"never-appears"))

        assert drive(sim, worker()) is None
        assert session.closed
