"""Unit + property tests for the DNS wire format."""

import pytest
from hypothesis import given, strategies as st

from repro.services.dns import (
    DnsDecodeError,
    DnsMessage,
    DnsResourceRecord,
    FLAG_QR,
    FLAG_RD,
    RCODE_SERVFAIL,
    TYPE_A,
    TYPE_TXT,
    decode_name,
    encode_name,
    make_query,
    make_response,
)


class TestNames:
    def test_roundtrip_simple(self):
        encoded = encode_name("time.example.com")
        name, offset = decode_name(encoded, 0)
        assert name == "time.example.com"
        assert offset == len(encoded)

    def test_root_name(self):
        assert encode_name("") == b"\x00"
        assert decode_name(b"\x00", 0) == ("", 1)

    def test_trailing_dot_ignored(self):
        assert encode_name("a.b.") == encode_name("a.b")

    def test_long_label_rejected(self):
        with pytest.raises(DnsDecodeError):
            encode_name("x" * 64 + ".com")

    def test_empty_label_rejected(self):
        with pytest.raises(DnsDecodeError):
            encode_name("a..b")

    def test_truncated_name_rejected(self):
        with pytest.raises(DnsDecodeError):
            decode_name(b"\x05ab", 0)

    @given(
        st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=20),
            min_size=1,
            max_size=6,
        )
    )
    def test_roundtrip_property(self, labels):
        name = ".".join(labels)
        decoded, _ = decode_name(encode_name(name), 0)
        assert decoded == name


class TestMessages:
    def test_query_roundtrip(self):
        query = make_query(0x1234, "host.example", TYPE_A)
        decoded = DnsMessage.decode(query.encode())
        assert decoded.id == 0x1234
        assert not decoded.is_response
        assert decoded.flags & FLAG_RD
        assert decoded.questions[0].name == "host.example"
        assert decoded.questions[0].qtype == TYPE_A

    def test_response_roundtrip_with_binary_rdata(self):
        """RDATA must carry arbitrary bytes — the exploit payload path."""
        query = make_query(7, "victim.example")
        payload = bytes(range(256)) * 3
        response = make_response(
            query, [DnsResourceRecord("victim.example", TYPE_TXT, payload)]
        )
        decoded = DnsMessage.decode(response.encode())
        assert decoded.is_response
        assert decoded.id == 7
        assert decoded.answers[0].rdata == payload
        assert decoded.answers[0].rtype == TYPE_TXT

    def test_servfail_rcode(self):
        message = DnsMessage(id=1, flags=FLAG_QR | RCODE_SERVFAIL)
        decoded = DnsMessage.decode(message.encode())
        assert decoded.rcode == RCODE_SERVFAIL

    def test_multiple_answers(self):
        query = make_query(1, "a.b")
        response = make_response(
            query,
            [
                DnsResourceRecord("a.b", TYPE_A, b"\x0a\x00\x00\x01"),
                DnsResourceRecord("a.b", TYPE_TXT, b"text"),
            ],
        )
        decoded = DnsMessage.decode(response.encode())
        assert len(decoded.answers) == 2

    @pytest.mark.parametrize(
        "blob",
        [b"", b"\x00\x01", b"\x00" * 11, b"\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x05abc"],
    )
    def test_malformed_rejected(self, blob):
        with pytest.raises(DnsDecodeError):
            DnsMessage.decode(blob)

    def test_truncated_rdata_rejected(self):
        query = make_query(1, "x.y")
        response = make_response(query, [DnsResourceRecord("x.y", TYPE_A, b"abcd")])
        blob = response.encode()[:-2]
        with pytest.raises(DnsDecodeError):
            DnsMessage.decode(blob)

    @given(st.integers(min_value=0, max_value=0xFFFF), st.binary(max_size=200))
    def test_answer_rdata_roundtrip_property(self, message_id, rdata):
        query = make_query(message_id, "p.q")
        response = make_response(query, [DnsResourceRecord("p.q", TYPE_TXT, rdata)])
        decoded = DnsMessage.decode(response.encode())
        assert decoded.answers[0].rdata == rdata
        assert decoded.id == message_id
