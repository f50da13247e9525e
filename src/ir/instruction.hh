/**
 * @file
 * Instruction representation: opcode plus resource definitions/uses.
 *
 * An instruction records, in operand order, the register-like resources
 * it uses and defines (Section 2 of the paper: dependencies are
 * determined on "general registers, special purpose registers ... and
 * memory locations").  Use order matters because asymmetric
 * bypass/forwarding paths (the paper's IBM RS/6000 example) give
 * different RAW delays to a value consumed as the first vs second
 * source operand.  Definition order matters for double-word register
 * pairs, whose two halves can become available on different cycles.
 */

#ifndef SCHED91_IR_INSTRUCTION_HH
#define SCHED91_IR_INSTRUCTION_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "ir/opcode.hh"
#include "ir/operand.hh"
#include "ir/resource.hh"
#include "support/logging.hh"

namespace sched91
{

/**
 * An instruction's strings, its source text and its branch target,
 * stored back to back: inline up to kInline characters together, on
 * the heap beyond.  Instruction text is short (p50 17-18 characters,
 * at most 24, on the Table 3 and serve corpora) and targets shorter;
 * a std::string each would take 64 bytes, and text past 15
 * characters would allocate.
 */
class InstStrings
{
  public:
    static constexpr std::size_t kInline = 24;

    InstStrings() = default;
    InstStrings(const InstStrings &other)
    {
        assign(other.text(), other.target());
    }
    InstStrings(InstStrings &&other) noexcept { take(other); }
    ~InstStrings() { release(); }

    InstStrings &
    operator=(const InstStrings &other)
    {
        if (this != &other)
            assign(other.text(), other.target());
        return *this;
    }

    InstStrings &
    operator=(InstStrings &&other) noexcept
    {
        if (this != &other) {
            release();
            take(other);
        }
        return *this;
    }

    std::string_view text() const { return {data(), textSize_}; }

    std::string_view
    target() const
    {
        return {data() + textSize_, size_ - textSize_};
    }

    /** Replace both strings; either may point into this object. */
    void assign(std::string_view text, std::string_view target);

  private:
    bool onHeap() const { return size_ > kInline; }
    const char *data() const { return onHeap() ? heap() : buf_; }

    char *
    heap() const
    {
        char *p;
        std::memcpy(&p, buf_, sizeof p);
        return p;
    }

    void
    release()
    {
        if (onHeap())
            delete[] heap();
    }

    void
    take(InstStrings &other)
    {
        std::memcpy(buf_, other.buf_, kInline);
        size_ = other.size_;
        textSize_ = other.textSize_;
        other.size_ = other.textSize_ = 0;
    }

    std::uint32_t size_ = 0;     ///< text and target together
    std::uint32_t textSize_ = 0;
    /** The characters, or on the heap a pointer to them. */
    char buf_[kInline] = {};
};

/** One assembly instruction. */
class Instruction
{
  public:
    /** Most uses / defs any operand signature produces: call reads
     * %o0-%o5, %sp and call state and writes %o0-%o5, %o7 and call
     * state. */
    static constexpr std::size_t kMaxUses = 8;
    static constexpr std::size_t kMaxDefs = 8;

    Instruction() = default;

    explicit Instruction(Opcode op) : op_(op) {}

    Opcode op() const { return op_; }
    InstClass cls() const { return instClass(op_); }
    IssueGroup group() const { return issueGroup(cls()); }

    /** Position of this instruction within its Program. */
    std::uint32_t index() const { return index_; }
    void setIndex(std::uint32_t idx) { index_ = idx; }

    /** Register-like resources read, in source-operand order. */
    std::span<const Resource>
    uses() const
    {
        return {uses_.data(), numUses_};
    }

    /** Register-like resources written, pair-first order. */
    std::span<const Resource>
    defs() const
    {
        return {defs_.data(), numDefs_};
    }

    /**
     * Source operand position (0-based) of each entry of uses(); a
     * double-precision operand contributes two uses with the same
     * position.  Drives the asymmetric-bypass delay adjustment.
     */
    std::span<const std::uint8_t>
    usePositions() const
    {
        return {usePositions_.data(), numUses_};
    }

    /**
     * Pair half (0 = even/first, 1 = odd/second) of each entry of
     * defs().  The odd half of a double-word load can become available
     * a cycle later (paper Section 2).
     */
    std::span<const std::uint8_t>
    defPairHalves() const
    {
        return {defPairHalves_.data(), numDefs_};
    }

    /** Memory operand, if the instruction accesses memory. */
    const std::optional<MemOperand> &mem() const { return mem_; }
    std::optional<MemOperand> &mem() { return mem_; }

    /** True when the instruction reads memory. */
    bool isLoad() const { return isLoadClass(cls()); }

    /** True when the instruction writes memory. */
    bool isStore() const { return isStoreClass(cls()); }

    /** True for control transfers / window ops that end a basic block. */
    bool
    endsBlock() const
    {
        return isControlTransfer(cls()) || cls() == InstClass::WindowOp;
    }

    /** Annulling branch (",a" suffix). */
    bool annul() const { return annul_; }
    void setAnnul(bool a) { annul_ = a; }

    /** Immediate operand value (0 when absent). */
    std::int64_t imm() const { return imm_; }
    void setImm(std::int64_t v) { imm_ = v; }

    /** True when the second ALU source is the immediate. */
    bool usesImm() const { return usesImm_; }
    void setUsesImm(bool b) { usesImm_ = b; }

    /** Branch / call target label (empty when absent). */
    std::string_view target() const { return strings_.target(); }
    void setTarget(std::string_view t) { strings_.assign(text(), t); }

    /** Record a use at source-operand position @p pos (%g0 dropped). */
    void
    addUse(Resource r, int pos = 0)
    {
        if (r.valid() && !r.isZeroReg()) {
            SCHED91_ASSERT(numUses_ < kMaxUses, "too many uses");
            uses_[numUses_] = r;
            usePositions_[numUses_++] = static_cast<std::uint8_t>(pos);
        }
    }

    /** Record a definition; @p half selects the register-pair half. */
    void
    addDef(Resource r, int half = 0)
    {
        if (r.valid() && !r.isZeroReg()) {
            SCHED91_ASSERT(numDefs_ < kMaxDefs, "too many defs");
            defs_[numDefs_] = r;
            defPairHalves_[numDefs_++] = static_cast<std::uint8_t>(half);
        }
    }

    /** Source-operand position at which @p r is used, or -1. */
    int usePosition(Resource r) const;

    /** Pair half in which @p r is defined, or -1 when not defined. */
    int defPairHalf(Resource r) const;

    /** True when the instruction defines @p r. */
    bool definesResource(Resource r) const;

    /** True when the instruction uses @p r. */
    bool usesResource(Resource r) const;

    /** Assembly text as parsed or synthesized. */
    std::string_view text() const { return strings_.text(); }
    void setText(std::string_view t) { strings_.assign(t, target()); }

    /** Set the text and the target together. */
    void
    setStrings(std::string_view text, std::string_view target)
    {
        strings_.assign(text, target);
    }

    /** Render the instruction as assembly. */
    std::string toString() const;

  private:
    std::optional<MemOperand> mem_;
    std::int64_t imm_ = 0;
    InstStrings strings_;
    std::uint32_t index_ = 0;
    std::array<Resource, kMaxUses> uses_;
    std::array<Resource, kMaxDefs> defs_;
    std::array<std::uint8_t, kMaxUses> usePositions_{};
    std::array<std::uint8_t, kMaxDefs> defPairHalves_{};
    Opcode op_ = Opcode::Invalid;
    std::uint8_t numUses_ = 0;
    std::uint8_t numDefs_ = 0;
    bool usesImm_ = false;
    bool annul_ = false;
};

/**
 * Record @p inst's defs and uses from its opcode, its memory operand
 * and its operand resources: the dependence semantics, in exactly one
 * place.  @p inst holds its opcode, and a load or store its memory
 * operand; its other fields are the caller's.  The parser fills the
 * instructions it builds in place with it; makeInstruction() wraps it
 * for everything else.
 *
 * @param rs1,rs2 source registers (invalid when absent; an ALU-style
 *                op with no rs2 reads its immediate)
 * @param rd      destination register (invalid when absent)
 */
void fillOperands(Instruction &inst, Resource rs1, Resource rs2,
                  Resource rd);

/** fillOperands() for an opcode of operand signature @p Sig, for a
 * caller that knows it as it compiles. */
template <OperandSig Sig>
void fillOperands(Instruction &inst, Resource rs1, Resource rs2,
                  Resource rd);

/**
 * Build an instruction from its opcode and operands (fillOperands()).
 * Used by the synthetic generators, the register allocator and the
 * reference parser.
 *
 * @param op      opcode
 * @param rs1,rs2 source registers (invalid when absent)
 * @param rd      destination register (invalid when absent)
 * @param mem     memory operand when the opcode accesses memory
 * @param imm     immediate value (used when rs2 invalid for ALU ops)
 */
Instruction makeInstruction(Opcode op, Resource rs1, Resource rs2,
                            Resource rd,
                            std::optional<MemOperand> mem = std::nullopt,
                            std::int64_t imm = 0);

/**
 * Rebuild @p inst with its register operands replaced: source
 * operands (including memory base/index registers) go through
 * @p rename_use and destination operands through @p rename_def — two
 * maps because an instruction that reads and writes the same register
 * (add %l0, 1, %l0) refers to two different *values* after
 * allocation.  Register pairs are renamed through their even (first)
 * register; the functions must map even registers to even registers
 * for double-precision operands.  Used by the local register
 * allocator.
 */
Instruction renameRegisters(
    const Instruction &inst,
    const std::function<Resource(Resource)> &rename_use,
    const std::function<Resource(Resource)> &rename_def);

} // namespace sched91

#endif // SCHED91_IR_INSTRUCTION_HH
