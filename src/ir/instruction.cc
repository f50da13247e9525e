#include "ir/instruction.hh"

#include <algorithm>
#include <cstring>
#include <initializer_list>

namespace sched91
{

namespace
{

/**
 * Copy @p n bytes, at most InstStrings::kInline, with a few fixed-size
 * moves instead of a call: every source byte is read before any is
 * written.
 */
void
copyShort(char *dst, const char *src, std::size_t n)
{
    static_assert(InstStrings::kInline <= 24);
    if (n >= 8) {
        std::uint64_t head, mid, tail;
        std::memcpy(&head, src, 8);
        std::memcpy(&mid, src + 8 * (n > 16), 8);
        std::memcpy(&tail, src + n - 8, 8);
        std::memcpy(dst, &head, 8);
        std::memcpy(dst + 8 * (n > 16), &mid, 8);
        std::memcpy(dst + n - 8, &tail, 8);
    } else if (n >= 4) {
        std::uint32_t head, tail;
        std::memcpy(&head, src, 4);
        std::memcpy(&tail, src + n - 4, 4);
        std::memcpy(dst, &head, 4);
        std::memcpy(dst + n - 4, &tail, 4);
    } else if (n != 0) {
        const char first = src[0], mid = src[n / 2], last = src[n - 1];
        dst[0] = first;
        dst[n / 2] = mid;
        dst[n - 1] = last;
    }
}

} // namespace

void
InstStrings::assign(std::string_view text, std::string_view target)
{
    const std::size_t n = text.size() + target.size();
    auto outside = [this](std::string_view s) {
        const std::less<const char *> before;
        return before(s.data(), buf_) || !before(s.data(), buf_ + kInline);
    };
    if (n <= kInline && !onHeap() && outside(text) && outside(target)) {
        // Neither points into this: straight into place.
        copyShort(buf_, text.data(), text.size());
        copyShort(buf_ + text.size(), target.data(), target.size());
        size_ = static_cast<std::uint32_t>(n);
        textSize_ = static_cast<std::uint32_t>(text.size());
        return;
    }

    // Copy both out before releasing: either may point into this.
    char inline_copy[kInline] = {};
    char *dst = n > kInline ? new char[n] : inline_copy;
    std::copy_n(text.data(), text.size(), dst);
    std::copy_n(target.data(), target.size(), dst + text.size());
    release();
    if (n > kInline)
        std::memcpy(buf_, &dst, sizeof dst);
    else
        std::memcpy(buf_, inline_copy, kInline);
    size_ = static_cast<std::uint32_t>(n);
    textSize_ = static_cast<std::uint32_t>(text.size());
}

int
Instruction::usePosition(Resource r) const
{
    for (std::size_t i = 0; i < numUses_; ++i)
        if (uses_[i] == r)
            return usePositions_[i];
    return -1;
}

int
Instruction::defPairHalf(Resource r) const
{
    for (std::size_t i = 0; i < numDefs_; ++i)
        if (defs_[i] == r)
            return defPairHalves_[i];
    return -1;
}

bool
Instruction::definesResource(Resource r) const
{
    auto d = defs();
    return std::find(d.begin(), d.end(), r) != d.end();
}

bool
Instruction::usesResource(Resource r) const
{
    auto u = uses();
    return std::find(u.begin(), u.end(), r) != u.end();
}

std::string
Instruction::toString() const
{
    if (!text().empty())
        return std::string(text());

    const OpcodeInfo &info = opcodeInfo(op_);
    std::string out(info.mnemonic);
    if (annul_)
        out += ",a";

    // First register at a given source position (pairs render as the
    // even register only).
    auto src = [this](int pos) -> std::string {
        for (std::size_t i = 0; i < numUses_; ++i)
            if (usePositions_[i] == pos)
                return uses_[i].toString();
        return "%g0";
    };
    auto dst = [this]() -> std::string {
        return numDefs_ == 0 ? "%g0" : defs_[0].toString();
    };
    auto src_or_imm = [&](int pos) -> std::string {
        return usesImm_ ? std::to_string(imm_) : src(pos);
    };

    auto mem = [this]() -> std::string {
        return mem_ ? mem_->toString() : "[%g0]";
    };
    // " a, b, c" after the mnemonic.
    auto operands = [&out](std::initializer_list<std::string> ops) {
        const char *sep = " ";
        for (const std::string &op : ops) {
            out += sep;
            out += op;
            sep = ", ";
        }
    };

    switch (info.sig) {
      case OperandSig::Alu3:
        operands({src(0), src_or_imm(1), dst()});
        break;
      case OperandSig::Cmp2:
        operands({src(0), src_or_imm(1)});
        break;
      case OperandSig::Mov2:
        operands({src_or_imm(0), dst()});
        break;
      case OperandSig::Sethi2:
        operands({std::to_string(imm_), dst()});
        break;
      case OperandSig::LoadOp:
        operands({mem(), dst()});
        break;
      case OperandSig::StoreOp:
        operands({src(0), mem()});
        break;
      case OperandSig::Fp3:
        operands({src(0), src(1), dst()});
        break;
      case OperandSig::Fp2:
        operands({src(0), dst()});
        break;
      case OperandSig::Fcmp2:
        operands({src(0), src(1)});
        break;
      case OperandSig::BranchOp:
      case OperandSig::CallOp:
        out += " ";
        out += target().empty() ? std::string_view(".L0") : target();
        break;
      case OperandSig::JmplOp:
        operands({src(0), dst()});
        break;
      case OperandSig::None:
        // Three-operand restore carries ALU-style operands.
        if (op_ == Opcode::Restore && numDefs_ != 0)
            operands({src(0), src_or_imm(1), dst()});
        break;
    }
    return out;
}

namespace
{

/** Does a Fp2 opcode read a double-precision source? */
bool
fp2SrcDouble(Opcode op)
{
    switch (op) {
      case Opcode::Fsqrtd:
      case Opcode::Fdtoi:
      case Opcode::Fdtos:
        return true;
      default:
        return false;
    }
}

/** Does a Fp2 opcode write a double-precision destination? */
bool
fp2DstDouble(Opcode op)
{
    switch (op) {
      case Opcode::Fsqrtd:
      case Opcode::Fitod:
      case Opcode::Fstod:
        return true;
      default:
        return false;
    }
}

/** Add a possibly-paired FP use at source position @p pos. */
void
addFpUse(Instruction &inst, Resource r, bool dbl, int pos)
{
    inst.addUse(r, pos);
    if (dbl && r.kind() == Resource::Kind::FpReg)
        inst.addUse(Resource::fpReg(r.index() + 1), pos);
}

/** Add a possibly-paired def; the second register is pair half 1. */
void
addPairDef(Instruction &inst, Resource r, bool dbl)
{
    inst.addDef(r, 0);
    if (dbl) {
        if (r.kind() == Resource::Kind::FpReg)
            inst.addDef(Resource::fpReg(r.index() + 1), 1);
        else if (r.kind() == Resource::Kind::IntReg)
            inst.addDef(Resource::intReg(r.index() + 1), 1);
    }
}

} // namespace

template <OperandSig Sig>
void
fillOperands(Instruction &inst, Resource rs1, Resource rs2, Resource rd)
{
    const Opcode op = inst.op();
    const OpcodeInfo &info = opcodeInfo(op);
    const std::optional<MemOperand> &mem = inst.mem();

    switch (Sig) {
      case OperandSig::Alu3:
        inst.addUse(rs1, 0);
        if (rs2.valid())
            inst.addUse(rs2, 1);
        else
            inst.setUsesImm(true);
        inst.addDef(rd);
        if (op == Opcode::Addcc || op == Opcode::Subcc)
            inst.addDef(Resource::icc());
        if (op == Opcode::Smul)
            inst.addDef(Resource::y());
        if (op == Opcode::Sdiv)
            inst.addUse(Resource::y(), 2);
        if (op == Opcode::Save || op == Opcode::Restore) {
            inst.addUse(Resource::callState(), 2);
            inst.addDef(Resource::callState());
        }
        break;

      case OperandSig::Cmp2:
        inst.addUse(rs1, 0);
        if (rs2.valid())
            inst.addUse(rs2, 1);
        else
            inst.setUsesImm(true);
        inst.addDef(Resource::icc());
        break;

      case OperandSig::Mov2:
        if (rs1.valid())
            inst.addUse(rs1, 0);
        else
            inst.setUsesImm(true);
        inst.addDef(rd);
        break;

      case OperandSig::Sethi2:
        inst.setUsesImm(true);
        inst.addDef(rd);
        break;

      case OperandSig::LoadOp:
        SCHED91_ASSERT(mem.has_value(), "load without memory operand");
        if (mem->base >= 0)
            inst.addUse(Resource::intReg(mem->base), 0);
        if (mem->index >= 0)
            inst.addUse(Resource::intReg(mem->index), 0);
        addPairDef(inst, rd, info.isDouble);
        break;

      case OperandSig::StoreOp:
        SCHED91_ASSERT(mem.has_value(), "store without memory operand");
        inst.addUse(rs1, 0);
        if (info.isDouble) {
            if (rs1.kind() == Resource::Kind::FpReg)
                inst.addUse(Resource::fpReg(rs1.index() + 1), 0);
            else if (rs1.kind() == Resource::Kind::IntReg)
                inst.addUse(Resource::intReg(rs1.index() + 1), 0);
        }
        if (mem->base >= 0)
            inst.addUse(Resource::intReg(mem->base), 1);
        if (mem->index >= 0)
            inst.addUse(Resource::intReg(mem->index), 1);
        break;

      case OperandSig::Fp3:
        addFpUse(inst, rs1, info.isDouble, 0);
        addFpUse(inst, rs2, info.isDouble, 1);
        addPairDef(inst, rd, info.isDouble);
        break;

      case OperandSig::Fp2:
        addFpUse(inst, rs1, fp2SrcDouble(op), 0);
        addPairDef(inst, rd, fp2DstDouble(op));
        break;

      case OperandSig::Fcmp2:
        addFpUse(inst, rs1, info.isDouble, 0);
        addFpUse(inst, rs2, info.isDouble, 1);
        inst.addDef(Resource::fcc());
        break;

      case OperandSig::BranchOp:
        if (op == Opcode::Ba || op == Opcode::Bn) {
            // unconditional: no condition-code use
        } else if (info.isFloat) {
            inst.addUse(Resource::fcc(), 0);
        } else if (op == Opcode::Ret) {
            inst.addUse(Resource::intReg(31), 0); // %i7
        } else if (op == Opcode::Retl) {
            inst.addUse(Resource::intReg(15), 0); // %o7
        } else {
            inst.addUse(Resource::icc(), 0);
        }
        break;

      case OperandSig::CallOp:
        // Outgoing argument registers %o0-%o5 and the stack pointer are
        // live into a call; %o7 receives the return address and the
        // call clobbers the caller-saved %o registers.
        for (int i = 8; i <= 13; ++i)
            inst.addUse(Resource::intReg(i), 0);
        inst.addUse(Resource::intReg(14), 0); // %sp
        inst.addUse(Resource::callState(), 0);
        for (int i = 8; i <= 13; ++i)
            inst.addDef(Resource::intReg(i));
        inst.addDef(Resource::intReg(15)); // %o7
        inst.addDef(Resource::callState());
        break;

      case OperandSig::JmplOp:
        inst.addUse(rs1, 0);
        inst.addDef(rd);
        break;

      case OperandSig::None:
        if (op == Opcode::Ret)
            inst.addUse(Resource::intReg(31), 0); // %i7
        if (op == Opcode::Retl)
            inst.addUse(Resource::intReg(15), 0); // %o7
        if (op == Opcode::Restore) {
            inst.addUse(Resource::callState(), 0);
            inst.addDef(Resource::callState());
        }
        break;

      default:
        break;
    }
}

#define SCHED91_FILL_OPERANDS(sig)                                        \
    template void fillOperands<OperandSig::sig>(Instruction &, Resource,  \
                                                Resource, Resource);
SCHED91_FILL_OPERANDS(None)
SCHED91_FILL_OPERANDS(Alu3)
SCHED91_FILL_OPERANDS(Cmp2)
SCHED91_FILL_OPERANDS(Mov2)
SCHED91_FILL_OPERANDS(Sethi2)
SCHED91_FILL_OPERANDS(LoadOp)
SCHED91_FILL_OPERANDS(StoreOp)
SCHED91_FILL_OPERANDS(Fp3)
SCHED91_FILL_OPERANDS(Fp2)
SCHED91_FILL_OPERANDS(Fcmp2)
SCHED91_FILL_OPERANDS(BranchOp)
SCHED91_FILL_OPERANDS(CallOp)
SCHED91_FILL_OPERANDS(JmplOp)
#undef SCHED91_FILL_OPERANDS

void
fillOperands(Instruction &inst, Resource rs1, Resource rs2, Resource rd)
{
    switch (opcodeInfo(inst.op()).sig) {
#define SCHED91_FILL_OPERANDS(sig)                                        \
      case OperandSig::sig:                                               \
        return fillOperands<OperandSig::sig>(inst, rs1, rs2, rd);
      SCHED91_FILL_OPERANDS(None)
      SCHED91_FILL_OPERANDS(Alu3)
      SCHED91_FILL_OPERANDS(Cmp2)
      SCHED91_FILL_OPERANDS(Mov2)
      SCHED91_FILL_OPERANDS(Sethi2)
      SCHED91_FILL_OPERANDS(LoadOp)
      SCHED91_FILL_OPERANDS(StoreOp)
      SCHED91_FILL_OPERANDS(Fp3)
      SCHED91_FILL_OPERANDS(Fp2)
      SCHED91_FILL_OPERANDS(Fcmp2)
      SCHED91_FILL_OPERANDS(BranchOp)
      SCHED91_FILL_OPERANDS(CallOp)
      SCHED91_FILL_OPERANDS(JmplOp)
#undef SCHED91_FILL_OPERANDS
    }
}

Instruction
makeInstruction(Opcode op, Resource rs1, Resource rs2, Resource rd,
                std::optional<MemOperand> mem, std::int64_t imm)
{
    Instruction inst(op);
    inst.setImm(imm);
    if (mem.has_value())
        inst.mem() = std::move(mem);
    fillOperands(inst, rs1, rs2, rd);
    return inst;
}

Instruction
renameRegisters(const Instruction &inst,
                const std::function<Resource(Resource)> &rename_use,
                const std::function<Resource(Resource)> &rename_def)
{
    const OpcodeInfo &info = opcodeInfo(inst.op());

    // First register at a given source-operand position (pairs are
    // represented by their even register).
    auto src = [&inst](int pos) -> Resource {
        auto uses = inst.uses();
        auto positions = inst.usePositions();
        for (std::size_t i = 0; i < uses.size(); ++i)
            if (positions[i] == pos)
                return uses[i];
        return Resource();
    };
    auto ren_u = [&rename_use](Resource r) {
        return r.valid() ? rename_use(r) : r;
    };
    auto ren_d = [&rename_def](Resource r) {
        return r.valid() ? rename_def(r) : r;
    };

    Resource rs1, rs2, rd;
    std::optional<MemOperand> mem = inst.mem();
    if (mem.has_value()) {
        if (mem->base >= 0)
            mem->base = ren_u(Resource::intReg(mem->base)).index();
        if (mem->index >= 0)
            mem->index = ren_u(Resource::intReg(mem->index)).index();
    }

    switch (info.sig) {
      case OperandSig::Alu3:
      case OperandSig::Cmp2:
      case OperandSig::Fp3:
      case OperandSig::Fcmp2:
        rs1 = ren_u(src(0));
        if (!inst.usesImm())
            rs2 = ren_u(src(1));
        rd = inst.defs().empty() ? Resource()
                                 : ren_d(inst.defs().front());
        break;
      case OperandSig::Mov2:
      case OperandSig::Fp2:
      case OperandSig::JmplOp:
        rs1 = ren_u(src(0));
        rd = inst.defs().empty() ? Resource()
                                 : ren_d(inst.defs().front());
        break;
      case OperandSig::Sethi2:
        rd = inst.defs().empty() ? Resource()
                                 : ren_d(inst.defs().front());
        break;
      case OperandSig::LoadOp:
        rd = inst.defs().empty() ? Resource()
                                 : ren_d(inst.defs().front());
        break;
      case OperandSig::StoreOp:
        rs1 = ren_u(src(0));
        break;
      case OperandSig::BranchOp:
      case OperandSig::CallOp:
      case OperandSig::None:
        // No renamable explicit register operands (implicit resources
        // like %icc / %o7 are not allocatable).
        break;
    }

    Instruction out = makeInstruction(inst.op(), rs1, rs2, rd,
                                      std::move(mem), inst.imm());
    out.setUsesImm(inst.usesImm());
    out.setTarget(inst.target());
    out.setAnnul(inst.annul());
    out.setIndex(inst.index());
    return out;
}

} // namespace sched91
