"""Unit + property tests for MAC/IPv4/IPv6 addresses."""

import copy
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from repro.netsim.address import (
    ALL_DHCP_RELAY_AGENTS_AND_SERVERS,
    AddressError,
    Ipv4Address,
    Ipv4AddressAllocator,
    Ipv6Address,
    Ipv6AddressAllocator,
    MacAddress,
)


class TestIpv4:
    def test_parse_and_format(self):
        assert str(Ipv4Address.parse("10.0.0.1")) == "10.0.0.1"

    def test_parse_extremes(self):
        assert Ipv4Address.parse("0.0.0.0").value == 0
        assert Ipv4Address.parse("255.255.255.255").value == 0xFFFFFFFF

    @pytest.mark.parametrize(
        "text",
        ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "01.2.3.4", "", "1..2.3"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(AddressError):
            Ipv4Address.parse(text)

    def test_multicast_detection(self):
        assert Ipv4Address.parse("224.0.0.1").is_multicast
        assert not Ipv4Address.parse("10.1.2.3").is_multicast

    def test_broadcast_detection(self):
        assert Ipv4Address.parse("255.255.255.255").is_broadcast

    def test_equality_and_hash(self):
        one = Ipv4Address.parse("10.0.0.1")
        two = Ipv4Address.parse("10.0.0.1")
        assert one == two
        assert hash(one) == hash(two)
        assert one != Ipv4Address.parse("10.0.0.2")

    def test_not_equal_to_same_valued_ipv6(self):
        assert Ipv4Address(5) != Ipv6Address(5)

    def test_out_of_range_rejected(self):
        with pytest.raises(AddressError):
            Ipv4Address(1 << 32)
        with pytest.raises(AddressError):
            Ipv4Address(-1)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_roundtrip_property(self, value):
        address = Ipv4Address(value)
        assert Ipv4Address.parse(str(address)) == address


class TestIpv6:
    def test_parse_full_form(self):
        address = Ipv6Address.parse("2001:0db8:0000:0000:0000:0000:0000:0001")
        assert str(address) == "2001:db8::1"

    def test_parse_compressed(self):
        assert Ipv6Address.parse("::1").value == 1
        assert Ipv6Address.parse("::").value == 0

    def test_compression_picks_longest_zero_run(self):
        address = Ipv6Address.parse("1:0:0:2:0:0:0:3")
        assert str(address) == "1:0:0:2::3"

    def test_single_zero_group_not_compressed(self):
        address = Ipv6Address.parse("1:0:2:3:4:5:6:7")
        assert str(address) == "1:0:2:3:4:5:6:7"

    @pytest.mark.parametrize(
        "text",
        ["", ":::", "1::2::3", "1:2:3:4:5:6:7", "1:2:3:4:5:6:7:8:9", "12345::", "g::1"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(AddressError):
            Ipv6Address.parse(text)

    def test_multicast_detection(self):
        assert ALL_DHCP_RELAY_AGENTS_AND_SERVERS.is_multicast
        assert Ipv6Address.parse("ff02::1").is_multicast
        assert not Ipv6Address.parse("2001:db8::1").is_multicast

    def test_link_local_detection(self):
        assert Ipv6Address.parse("fe80::1").is_link_local
        assert not Ipv6Address.parse("2001:db8::1").is_link_local

    def test_dhcp_group_value(self):
        assert str(ALL_DHCP_RELAY_AGENTS_AND_SERVERS) == "ff02::1:2"

    def test_groups(self):
        address = Ipv6Address.parse("1:2:3:4:5:6:7:8")
        assert address.groups == (1, 2, 3, 4, 5, 6, 7, 8)

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_roundtrip_property(self, value):
        address = Ipv6Address(value)
        assert Ipv6Address.parse(str(address)) == address


class TestMac:
    def test_parse_and_format(self):
        assert str(MacAddress.parse("02:00:00:00:00:2a")) == "02:00:00:00:00:2a"

    @pytest.mark.parametrize("text", ["", "02:00", "zz:00:00:00:00:00", "020000000000"])
    def test_malformed_rejected(self, text):
        with pytest.raises(AddressError):
            MacAddress.parse(text)

    def test_allocation_is_unique(self):
        macs = {MacAddress.allocate() for _ in range(100)}
        assert len(macs) == 100

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_roundtrip_property(self, value):
        address = MacAddress(value)
        assert MacAddress.parse(str(address)) == address


class TestAllocators:
    def test_ipv6_allocator_sequential_and_unique(self):
        pool = Ipv6AddressAllocator("2001:db8:0:1")
        first = pool.allocate()
        second = pool.allocate()
        assert first != second
        assert str(first) == "2001:db8:0:1::1"
        assert str(second) == "2001:db8:0:1::2"

    def test_ipv4_allocator_stays_in_prefix(self):
        pool = Ipv4AddressAllocator("10.7.0.0")
        for _ in range(10):
            address = pool.allocate()
            assert str(address).startswith("10.7.")

    def test_ipv4_allocator_exhaustion(self):
        pool = Ipv4AddressAllocator("10.0.0.0")
        pool._next_host = 0xFFFE
        with pytest.raises(AddressError):
            pool.allocate()


ADDRESS_VALUES = [
    (Ipv6Address, 0x20010DB8000000010000000000000001),
    (Ipv4Address, 0x0A000001),
    (MacAddress, 0x020000000001),
]


class TestCachedHash:
    @pytest.mark.parametrize("cls,value", ADDRESS_VALUES)
    def test_hash_equals_the_tuple_hash(self, cls, value):
        # dict and set orders must not depend on the cache
        assert hash(cls(value)) == hash((cls.__name__, value))

    @pytest.mark.parametrize("cls,value", ADDRESS_VALUES)
    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy])
    def test_copies_keep_hash_and_equality(self, cls, value, clone):
        address = cls(value)
        copied = clone(address)
        assert copied == address
        assert hash(copied) == hash(address)
        assert {address: "hit"}[copied] == "hit"

    @pytest.mark.parametrize("cls,value", ADDRESS_VALUES)
    def test_unpickled_in_another_process_hashes_like_a_fresh_address(
            self, cls, value):
        # String hashes are salted per process, so a pickled hash cache
        # would be stale under any other PYTHONHASHSEED.
        blob = pickle.dumps(cls(value))
        script = (
            "import pickle, sys\n"
            "from repro.netsim import address\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            f"fresh = address.{cls.__name__}({value})\n"
            "assert hash(loaded) == hash(fresh), (hash(loaded), hash(fresh))\n"
            "assert {fresh: 'hit'}[loaded] == 'hit'\n"
            "print(hash(fresh))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        hashes = set()
        for seed in ("1", "2"):
            env["PYTHONHASHSEED"] = seed
            result = subprocess.run(
                [sys.executable, "-c", script], input=blob, env=env,
                capture_output=True, timeout=60,
            )
            assert result.returncode == 0, result.stderr.decode()
            hashes.add(result.stdout)
        assert len(hashes) == 2  # the seeds really salted the hash
