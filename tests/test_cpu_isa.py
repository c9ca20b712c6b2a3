"""ISA encoding/decoding and sensitivity classification."""

import ast
import dataclasses
import enum

import pytest
from hypothesis import given, strategies as st

from repro.cpu import isa
from repro.cpu.assembler import Assembler
from repro.cpu.disasm import format_instruction
from repro.cpu.isa import (
    BRANCH_OPS,
    CSR,
    Cause,
    DIV_OPS,
    DecodeError,
    IMM_FLAG,
    MEM_OPS,
    OPS,
    Op,
    OpSpec,
    PRIVILEGED,
    PRIVILEGED_OPS,
    PUBLIC_CSRS,
    READONLY_CSRS,
    SENSITIVE_UNPRIV_OPS,
    SLOTS,
    STORE_OPS,
    decode,
    encode,
    is_privileged,
)
from repro.mem.costs import CostModel


def _decode_bytes(data: bytes):
    word = int.from_bytes(data[:4], "little")
    imm = int.from_bytes(data[4:8], "little") if len(data) > 4 else 0
    return decode(word, imm)


class TestEncodeDecode:
    def test_simple_roundtrip(self):
        ins = _decode_bytes(encode(Op.ADD, rd=1, ra=2, rb=3))
        assert ins.op is Op.ADD
        assert (ins.rd, ins.ra, ins.rb) == (1, 2, 3)
        assert not ins.has_imm32 and ins.length == 4

    def test_imm32_roundtrip(self):
        ins = _decode_bytes(encode(Op.ADD, rd=1, ra=2, imm32=0xDEADBEEF))
        assert ins.has_imm32 and ins.length == 8
        assert ins.imm32 == 0xDEADBEEF
        assert ins.b_imm

    def test_simm12_sign_extension(self):
        ins = _decode_bytes(encode(Op.LD, rd=1, ra=2, simm12=-4))
        assert ins.simm12 == -4
        ins = _decode_bytes(encode(Op.LD, rd=1, ra=2, simm12=2047))
        assert ins.simm12 == 2047

    def test_operand_b_register_form(self):
        ins = _decode_bytes(encode(Op.SUB, rd=1, ra=2, rb=7))
        assert not ins.b_imm and ins.rb == 7

    def test_register_range_checked(self):
        with pytest.raises(ValueError):
            encode(Op.ADD, rd=16)
        with pytest.raises(ValueError):
            encode(Op.ADD, ra=-1)

    def test_simm12_range_checked(self):
        with pytest.raises(ValueError):
            encode(Op.LD, simm12=2048)
        with pytest.raises(ValueError):
            encode(Op.LD, simm12=-2049)

    def test_invalid_opcode_rejected(self):
        with pytest.raises(DecodeError):
            decode(0x7F << 24)

    @given(
        st.sampled_from(sorted(Op)),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=-2048, max_value=2047),
        st.one_of(st.none(), st.integers(min_value=0, max_value=0xFFFFFFFF)),
    )
    def test_roundtrip_property(self, op, rd, ra, rb, simm12, imm32):
        data = encode(op, rd, ra, rb, simm12, imm32)
        ins = _decode_bytes(data)
        assert ins.op is op
        assert (ins.rd, ins.ra, ins.rb, ins.simm12) == (rd, ra, rb, simm12)
        if imm32 is None:
            assert not ins.has_imm32 and len(data) == 4
        else:
            assert ins.imm32 == imm32 and len(data) == 8


class TestSensitivityClassification:
    def test_privileged_ops(self):
        for op in PRIVILEGED_OPS:
            assert is_privileged(op)
        assert not is_privileged(Op.ADD)
        assert not is_privileged(Op.SYSCALL)  # traps by design, not priv

    def test_csrr_split_by_register(self):
        assert not is_privileged(Op.CSRR, int(CSR.MODE))
        assert not is_privileged(Op.CSRR, int(CSR.CYCLES))
        assert is_privileged(Op.CSRR, int(CSR.PTBR))
        assert is_privileged(Op.CSRR, int(CSR.ECAUSE))
        assert is_privileged(Op.CSRR, 999)  # unknown CSR

    def test_sensitive_unprivileged_set(self):
        assert SENSITIVE_UNPRIV_OPS == {Op.STI, Op.CLI}
        # The sensitive reads: CSRR of MODE/IE does not trap in user mode.
        assert not is_privileged(Op.CSRR, int(CSR.MODE))
        assert not is_privileged(Op.CSRR, int(CSR.IE))
        assert is_privileged(Op.CSRW, int(CSR.IE))  # traps: fine

    def test_derived_sets(self):
        assert PRIVILEGED_OPS == {Op.IRET, Op.HLT, Op.CSRW, Op.OUT, Op.IN,
                                  Op.INVLPG}
        assert MEM_OPS == {Op.LD, Op.ST, Op.LDB, Op.STB}
        assert STORE_OPS == {Op.ST, Op.STB}
        assert BRANCH_OPS == {Op.JAL, Op.JALR, Op.BEQ, Op.BNE, Op.BLT,
                              Op.BGE, Op.BLTU, Op.BGEU}
        assert DIV_OPS == {Op.DIVU, Op.REMU}

    def test_csr_sets_answer_plain_ints(self):
        assert int(CSR.MODE) in PUBLIC_CSRS and 999 not in PUBLIC_CSRS
        assert int(CSR.CPUID) in READONLY_CSRS
        assert int(CSR.PTBR) not in READONLY_CSRS

    def test_popek_goldberg_violation_exists(self):
        # The ISA deliberately has sensitive instructions that are not
        # privileged -- the premise of E1.
        violators = set(SENSITIVE_UNPRIV_OPS)
        assert violators and not (violators & PRIVILEGED_OPS)

    def test_public_csrs_include_the_trap(self):
        assert CSR.MODE in PUBLIC_CSRS and CSR.IE in PUBLIC_CSRS


def _sample(op, imm_b=False):
    """An instruction of ``op`` with a distinct value in every slot of
    its form and zero everywhere else (so it prints completely)."""
    fields = {}
    for slot in OPS[op].slots:
        if slot in ("rd", "ra", "rb"):
            fields[slot] = {"rd": 3, "ra": 5, "rb": 7}[slot]
        elif slot == "b":
            fields.update({"imm32": 0x12345678} if imm_b else {"rb": 7})
        elif slot == "imm":
            fields["imm32"] = 0x9ABCDEF0
        elif slot == "[ra+simm]":
            fields.update(ra=5, simm12=-12)
        else:  # simm / port / csr
            fields["simm12"] = 9
    return encode(op, **fields)


class TestOpsTable:
    """The table is total and self-consistent, so a new opcode is
    covered by adding its row."""

    def test_every_op_has_a_row_and_a_unique_mnemonic(self):
        assert set(OPS) == set(Op)
        mnemonics = [spec.mnemonic for spec in OPS.values()]
        assert len(set(mnemonics)) == len(mnemonics)

    @pytest.mark.parametrize("op", sorted(Op), ids=lambda op: op.name)
    def test_row_is_well_formed(self, op):
        spec = OPS[op]
        assert set(spec.slots) <= SLOTS
        assert len(set(spec.slots)) == len(spec.slots)
        cost_fields = {f.name for f in dataclasses.fields(CostModel)}
        assert spec.extra == "" or spec.extra in cost_fields
        if spec.expr:
            value = spec.fn(6, 3)
            assert isinstance(value, int) and 0 <= value <= 0xFFFFFFFF
            # Call-free over a and b only: the block compiler pastes it.
            tree = ast.parse(spec.expr.format(a="a", b="b"), mode="eval")
            nodes = list(ast.walk(tree))
            assert not any(isinstance(n, ast.Call) for n in nodes)
            assert {n.id for n in nodes if isinstance(n, ast.Name)} <= {"a", "b"}
        else:
            assert spec.fn is None

    def test_rows_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            OPS[Op.ADD].expr = "0"

    @pytest.mark.parametrize("op", sorted(Op), ids=lambda op: op.name)
    def test_print_reassemble_round_trip(self, op):
        variants = [_sample(op)]
        if "b" in OPS[op].slots:
            variants.append(_sample(op, imm_b=True))
        for data in variants:
            word = int.from_bytes(data[:4], "little")
            imm = int.from_bytes(data[4:8], "little") if len(data) > 4 else 0
            text = format_instruction(decode(word, imm))
            assert Assembler().assemble(text).data == data, text


class TestResolvedRecord:
    """What ``decode`` writes on an ``Instruction`` beside the encoded
    fields is what the table and the opcode sets say: they stay the
    source of truth, the record is their memo."""

    @pytest.mark.parametrize("op", sorted(Op), ids=lambda op: op.name)
    def test_derived_fields_follow_the_table(self, op):
        spec = OPS[op]
        # A public and a private CSR number where the row is BY_CSR;
        # elsewhere the 12-bit field must not matter.
        for number in (int(CSR.MODE), int(CSR.PTBR)):
            for imm32 in (None, 0x12345678):
                ins = _decode_bytes(
                    encode(op, rd=3, ra=5, rb=7, simm12=number, imm32=imm32))
                assert ins.b_imm == (imm32 is not None or "imm" in spec.slots)
                assert ins.fn is spec.fn and ins.extra == spec.extra
                assert ins.user_traps == is_privileged(op, number)
                assert ins.user_ignored == (op in SENSITIVE_UNPRIV_OPS)
                assert ins.stores == (op in STORE_OPS)
                assert not (ins.user_traps and ins.user_ignored)
                # Branches and system ops end a compiled block, bar OUT/IN.
                assert ins.ends_block == (op in BRANCH_OPS or op > Op.BGEU
                                          and op not in (Op.OUT, Op.IN))

    def test_identity_is_the_encoded_fields_alone(self):
        data = encode(Op.ADD, rd=1, ra=2, imm32=0xDEADBEEF)
        before = _decode_bytes(data)
        isa.DECODED.clear()
        after = _decode_bytes(data)
        assert after is not before
        assert after == before and hash(after) == hash(before)
        derived = {f.name for f in dataclasses.fields(before) if not f.compare}
        assert derived == {"b_imm", "fn", "extra", "user_traps",
                           "user_ignored", "stores", "ends_block"}

    def test_a_new_row_resolves_with_no_other_edit(self, monkeypatch):
        members = {m.name: m.value for m in Op}
        members["STP"] = 0x14
        wider = enum.IntEnum("Op", members)
        row = OpSpec("stp", "[ra+simm], rb", extra="mul_extra_cycles",
                     klass=PRIVILEGED)
        monkeypatch.setattr(isa, "Op", wider)
        monkeypatch.setattr(isa, "OPS", {**OPS, wider.STP: row})
        isa.DECODED.clear()
        try:
            ins = decode((0x14 << 24) | (7 << 12))
            assert ins.op is wider.STP and ins.length == 4
            assert (ins.b_imm, ins.fn, ins.extra) == (False, None, row.extra)
            assert (ins.user_traps, ins.user_ignored, ins.stores) == (
                True, False, True)
            # An existing row still resolves from the copied table.
            assert decode((int(Op.ADD) << 24) | (1 << 20)).fn is OPS[Op.ADD].fn
        finally:
            isa.DECODED.clear()  # records resolved against the copy


def test_cause_values_distinct():
    values = [int(c) for c in Cause]
    assert len(values) == len(set(values))


def test_imm_flag_bit():
    data = encode(Op.MOVI, rd=1, imm32=5)
    assert data[3] & IMM_FLAG
