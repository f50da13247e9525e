#include "ir/opcode.hh"

#include <array>
#include <cstdint>

#include "support/logging.hh"

namespace sched91
{

namespace
{

constexpr std::array<OpcodeInfo,
                     static_cast<std::size_t>(Opcode::kNumOpcodes)>
buildTable()
{
    std::array<OpcodeInfo, static_cast<std::size_t>(Opcode::kNumOpcodes)> t{};
    auto def = [&t](Opcode op, const char *mn, InstClass cls, OperandSig sig,
                    bool is_double = false, bool is_float = false) {
        t[static_cast<std::size_t>(op)] =
            OpcodeInfo{op, mn, cls, sig, is_double, is_float};
    };

    def(Opcode::Invalid, "<invalid>", InstClass::Nop, OperandSig::None);

    def(Opcode::Add, "add", InstClass::IntAlu, OperandSig::Alu3);
    def(Opcode::Sub, "sub", InstClass::IntAlu, OperandSig::Alu3);
    def(Opcode::And, "and", InstClass::IntAlu, OperandSig::Alu3);
    def(Opcode::Or, "or", InstClass::IntAlu, OperandSig::Alu3);
    def(Opcode::Xor, "xor", InstClass::IntAlu, OperandSig::Alu3);
    def(Opcode::Sll, "sll", InstClass::IntAlu, OperandSig::Alu3);
    def(Opcode::Srl, "srl", InstClass::IntAlu, OperandSig::Alu3);
    def(Opcode::Sra, "sra", InstClass::IntAlu, OperandSig::Alu3);
    def(Opcode::Addcc, "addcc", InstClass::IntAlu, OperandSig::Alu3);
    def(Opcode::Subcc, "subcc", InstClass::IntAlu, OperandSig::Alu3);
    def(Opcode::Cmp, "cmp", InstClass::IntAlu, OperandSig::Cmp2);
    def(Opcode::Mov, "mov", InstClass::IntAlu, OperandSig::Mov2);
    def(Opcode::Sethi, "sethi", InstClass::IntAlu, OperandSig::Sethi2);
    def(Opcode::Smul, "smul", InstClass::IntMul, OperandSig::Alu3);
    def(Opcode::Sdiv, "sdiv", InstClass::IntDiv, OperandSig::Alu3);

    def(Opcode::Ld, "ld", InstClass::Load, OperandSig::LoadOp);
    def(Opcode::Ldd, "ldd", InstClass::LoadDouble, OperandSig::LoadOp, true);
    def(Opcode::Ldub, "ldub", InstClass::Load, OperandSig::LoadOp);
    def(Opcode::Lduh, "lduh", InstClass::Load, OperandSig::LoadOp);
    def(Opcode::Ldsb, "ldsb", InstClass::Load, OperandSig::LoadOp);
    def(Opcode::Ldsh, "ldsh", InstClass::Load, OperandSig::LoadOp);
    def(Opcode::St, "st", InstClass::Store, OperandSig::StoreOp);
    def(Opcode::Std, "std", InstClass::StoreDouble, OperandSig::StoreOp,
        true);
    def(Opcode::Stb, "stb", InstClass::Store, OperandSig::StoreOp);
    def(Opcode::Sth, "sth", InstClass::Store, OperandSig::StoreOp);
    def(Opcode::Ldx, "ldx", InstClass::Load, OperandSig::LoadOp);
    def(Opcode::Stx, "stx", InstClass::Store, OperandSig::StoreOp);
    def(Opcode::Ldf, "ldf", InstClass::Load, OperandSig::LoadOp, false,
        true);
    def(Opcode::Lddf, "lddf", InstClass::LoadDouble, OperandSig::LoadOp,
        true, true);
    def(Opcode::Stf, "stf", InstClass::Store, OperandSig::StoreOp, false,
        true);
    def(Opcode::Stdf, "stdf", InstClass::StoreDouble, OperandSig::StoreOp,
        true, true);

    def(Opcode::Fadds, "fadds", InstClass::FpAdd, OperandSig::Fp3, false,
        true);
    def(Opcode::Faddd, "faddd", InstClass::FpAdd, OperandSig::Fp3, true,
        true);
    def(Opcode::Fsubs, "fsubs", InstClass::FpAdd, OperandSig::Fp3, false,
        true);
    def(Opcode::Fsubd, "fsubd", InstClass::FpAdd, OperandSig::Fp3, true,
        true);
    def(Opcode::Fmuls, "fmuls", InstClass::FpMul, OperandSig::Fp3, false,
        true);
    def(Opcode::Fmuld, "fmuld", InstClass::FpMul, OperandSig::Fp3, true,
        true);
    def(Opcode::Fdivs, "fdivs", InstClass::FpDiv, OperandSig::Fp3, false,
        true);
    def(Opcode::Fdivd, "fdivd", InstClass::FpDiv, OperandSig::Fp3, true,
        true);
    def(Opcode::Fsqrts, "fsqrts", InstClass::FpSqrt, OperandSig::Fp2, false,
        true);
    def(Opcode::Fsqrtd, "fsqrtd", InstClass::FpSqrt, OperandSig::Fp2, true,
        true);
    def(Opcode::Fmovs, "fmovs", InstClass::FpMove, OperandSig::Fp2, false,
        true);
    def(Opcode::Fnegs, "fnegs", InstClass::FpMove, OperandSig::Fp2, false,
        true);
    def(Opcode::Fabss, "fabss", InstClass::FpMove, OperandSig::Fp2, false,
        true);
    def(Opcode::Fcmps, "fcmps", InstClass::FpCmp, OperandSig::Fcmp2, false,
        true);
    def(Opcode::Fcmpd, "fcmpd", InstClass::FpCmp, OperandSig::Fcmp2, true,
        true);
    def(Opcode::Fitos, "fitos", InstClass::FpAdd, OperandSig::Fp2, false,
        true);
    def(Opcode::Fitod, "fitod", InstClass::FpAdd, OperandSig::Fp2, false,
        true);
    def(Opcode::Fstoi, "fstoi", InstClass::FpAdd, OperandSig::Fp2, false,
        true);
    def(Opcode::Fdtoi, "fdtoi", InstClass::FpAdd, OperandSig::Fp2, false,
        true);
    def(Opcode::Fstod, "fstod", InstClass::FpAdd, OperandSig::Fp2, false,
        true);
    def(Opcode::Fdtos, "fdtos", InstClass::FpAdd, OperandSig::Fp2, false,
        true);

    def(Opcode::Ba, "ba", InstClass::Branch, OperandSig::BranchOp);
    def(Opcode::Bn, "bn", InstClass::Branch, OperandSig::BranchOp);
    def(Opcode::Be, "be", InstClass::Branch, OperandSig::BranchOp);
    def(Opcode::Bne, "bne", InstClass::Branch, OperandSig::BranchOp);
    def(Opcode::Bg, "bg", InstClass::Branch, OperandSig::BranchOp);
    def(Opcode::Ble, "ble", InstClass::Branch, OperandSig::BranchOp);
    def(Opcode::Bge, "bge", InstClass::Branch, OperandSig::BranchOp);
    def(Opcode::Bl, "bl", InstClass::Branch, OperandSig::BranchOp);
    def(Opcode::Bgu, "bgu", InstClass::Branch, OperandSig::BranchOp);
    def(Opcode::Bleu, "bleu", InstClass::Branch, OperandSig::BranchOp);
    def(Opcode::Bcc, "bcc", InstClass::Branch, OperandSig::BranchOp);
    def(Opcode::Bcs, "bcs", InstClass::Branch, OperandSig::BranchOp);
    def(Opcode::Fba, "fba", InstClass::Branch, OperandSig::BranchOp, false,
        true);
    def(Opcode::Fbe, "fbe", InstClass::Branch, OperandSig::BranchOp, false,
        true);
    def(Opcode::Fbne, "fbne", InstClass::Branch, OperandSig::BranchOp,
        false, true);
    def(Opcode::Fbg, "fbg", InstClass::Branch, OperandSig::BranchOp, false,
        true);
    def(Opcode::Fbl, "fbl", InstClass::Branch, OperandSig::BranchOp, false,
        true);
    def(Opcode::Fbge, "fbge", InstClass::Branch, OperandSig::BranchOp,
        false, true);
    def(Opcode::Fble, "fble", InstClass::Branch, OperandSig::BranchOp,
        false, true);

    def(Opcode::Call, "call", InstClass::Call, OperandSig::CallOp);
    def(Opcode::Jmpl, "jmpl", InstClass::Call, OperandSig::JmplOp);
    def(Opcode::Ret, "ret", InstClass::Branch, OperandSig::None);
    def(Opcode::Retl, "retl", InstClass::Branch, OperandSig::None);

    def(Opcode::Save, "save", InstClass::WindowOp, OperandSig::Alu3);
    def(Opcode::Restore, "restore", InstClass::WindowOp, OperandSig::None);

    def(Opcode::Nop, "nop", InstClass::Nop, OperandSig::None);
    return t;
}

const auto kOpcodeTable = buildTable();

/**
 * Mnemonics are at most 7 characters, so each packs into one word:
 * its bytes, little-endian, with its length in the top byte.  The
 * word is the key of an open-addressing table that the parser probes
 * once per instruction.
 */
class MnemonicTable
{
  public:
    static constexpr std::size_t kMaxLen = 7;

    MnemonicTable()
    {
        for (const auto &info : kOpcodeTable) {
            if (info.op == Opcode::Invalid)
                continue;
            std::string_view m = info.mnemonic;
            SCHED91_ASSERT(m.size() <= kMaxLen, "mnemonic too long: ", m);
            std::size_t i = slot(pack(m));
            while (ops_[i] != Opcode::Invalid)
                i = (i + 1) % kSlots;
            keys_[i] = pack(m);
            ops_[i] = info.op;
        }
    }

    Opcode
    find(std::string_view m) const
    {
        if (m.size() > kMaxLen)
            return Opcode::Invalid;
        const std::uint64_t key = pack(m);
        for (std::size_t i = slot(key); ops_[i] != Opcode::Invalid;
             i = (i + 1) % kSlots)
            if (keys_[i] == key)
                return ops_[i];
        return Opcode::Invalid;
    }

  private:
    static constexpr std::size_t kSlots = 256; // >= 2x the opcodes

    static std::uint64_t
    pack(std::string_view m)
    {
        std::uint64_t key = std::uint64_t{m.size()} << 56;
        for (std::size_t i = 0; i < m.size(); ++i)
            key |= std::uint64_t{static_cast<unsigned char>(m[i])} << (8 * i);
        return key;
    }

    static std::size_t
    slot(std::uint64_t key)
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 56);
    }

    std::array<std::uint64_t, kSlots> keys_{};
    std::array<Opcode, kSlots> ops_{};
};

} // namespace

const OpcodeInfo &
opcodeInfo(Opcode op)
{
    return kOpcodeTable[static_cast<std::size_t>(op)];
}

Opcode
opcodeFromMnemonic(std::string_view mnemonic)
{
    static const MnemonicTable table;
    return table.find(mnemonic);
}

std::string_view
opcodeName(Opcode op)
{
    return opcodeInfo(op).mnemonic;
}

std::uint8_t
memAccessWidth(Opcode op)
{
    switch (op) {
      case Opcode::Ldub:
      case Opcode::Ldsb:
      case Opcode::Stb:
        return 1;
      case Opcode::Lduh:
      case Opcode::Ldsh:
      case Opcode::Sth:
        return 2;
      case Opcode::Ldd:
      case Opcode::Lddf:
      case Opcode::Std:
      case Opcode::Stdf:
      case Opcode::Ldx:
      case Opcode::Stx:
        return 8;
      default:
        return 4;
    }
}

Opcode
fpMemoryForm(Opcode op)
{
    switch (op) {
      case Opcode::Ld:
        return Opcode::Ldf;
      case Opcode::Ldd:
        return Opcode::Lddf;
      case Opcode::St:
        return Opcode::Stf;
      case Opcode::Std:
        return Opcode::Stdf;
      default:
        return op;
    }
}

InstClass
instClass(Opcode op)
{
    return opcodeInfo(op).cls;
}

IssueGroup
issueGroup(InstClass cls)
{
    switch (cls) {
      case InstClass::Load:
      case InstClass::LoadDouble:
      case InstClass::Store:
      case InstClass::StoreDouble:
        return IssueGroup::Memory;
      case InstClass::FpAdd:
      case InstClass::FpMul:
      case InstClass::FpDiv:
      case InstClass::FpSqrt:
      case InstClass::FpCmp:
      case InstClass::FpMove:
        return IssueGroup::FloatingPoint;
      case InstClass::Branch:
      case InstClass::Call:
        return IssueGroup::Control;
      default:
        return IssueGroup::Integer;
    }
}

bool
isControlTransfer(InstClass cls)
{
    return cls == InstClass::Branch || cls == InstClass::Call;
}

bool
isLoadClass(InstClass cls)
{
    return cls == InstClass::Load || cls == InstClass::LoadDouble;
}

bool
isStoreClass(InstClass cls)
{
    return cls == InstClass::Store || cls == InstClass::StoreDouble;
}

bool
isFpClass(InstClass cls)
{
    switch (cls) {
      case InstClass::FpAdd:
      case InstClass::FpMul:
      case InstClass::FpDiv:
      case InstClass::FpSqrt:
      case InstClass::FpCmp:
      case InstClass::FpMove:
        return true;
      default:
        return false;
    }
}

} // namespace sched91
