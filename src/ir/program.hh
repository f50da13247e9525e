/**
 * @file
 * A Program is an ordered list of instructions plus label positions and
 * the interned memory-expression table.
 *
 * Each instruction is numbered as it joins the program (commit()): its
 * memory operand gets its expression id and the generations of its
 * base and index registers (MemOperand::baseGen), the count of their
 * definitions before it; then its own integer-register definitions
 * are counted.  Generations are a property of the instruction
 * sequence, so a built Program is complete: partitioning and
 * scheduling read it as const.
 *
 * The instructions live in an InstStore: a vector that can also grow
 * by slots it leaves unconstructed.  A lane parse reserves the program
 * once, parses the text's first piece in place and grows the store by
 * unconstructed slots for the rest.  Each later piece is numbered on
 * its own, from expression 0 and no definitions; joinPiece() takes its
 * expressions and definition counts into the program's, and each lane
 * moves its piece's instructions, rebased (PieceRebase), straight into
 * their final slots, so the calling thread constructs none of them
 * (ir/parser.hh).
 */

#ifndef SCHED91_IR_PROGRAM_HH
#define SCHED91_IR_PROGRAM_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "ir/instruction.hh"
#include "ir/operand.hh"

namespace sched91
{

// A lane's move into an unconstructed slot cannot throw, so a store is
// never left with a slot half built.
static_assert(std::is_nothrow_move_constructible_v<Instruction>);

/**
 * A Program's instructions: a growable array that can also append
 * slots without constructing them (appendUnbuilt), for callers that
 * construct each slot in place, from any thread, before the store is
 * next read, copied, grown or destroyed.
 */
class InstStore
{
  public:
    InstStore() = default;
    InstStore(const InstStore &other);
    InstStore(InstStore &&other) noexcept;
    InstStore &operator=(InstStore other) noexcept;
    ~InstStore();

    Instruction *data() { return data_; }
    const Instruction *data() const { return data_; }
    std::size_t size() const { return size_; }

    const Instruction &operator[](std::size_t i) const { return data_[i]; }

    /** Make room for @p n instructions in all. */
    void reserve(std::size_t n);

    /** Construct an instruction from @p op at the end. */
    Instruction &emplaceBack(Opcode op);

    /** Move @p inst to the end. */
    Instruction &pushBack(Instruction &&inst);

    void popBack();

    /**
     * Append @p n slots that nothing constructs and return the first.
     * Each must be constructed (std::construct_at) before the store is
     * next read, copied, grown or destroyed.
     */
    Instruction *appendUnbuilt(std::size_t n);

  private:
    /** Room for @p capacity, the instructions moved over. */
    void reallocate(std::size_t capacity);
    /** Room for one more, growing as std::vector does. */
    void grow();

    Instruction *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

/** An assembly program: instructions, labels, memory expressions. */
class Program
{
  public:
    /** A label's map node, as unordered_map::extract() hands it out. */
    using LabelNode =
        std::unordered_map<std::string, std::uint32_t>::node_type;

    /** Definitions of each integer register, by register index. */
    using DefCounts = std::array<std::uint32_t, Resource::kNumIntRegs>;

    /**
     * How the memory operands of a piece numbered on its own read once
     * the piece follows this program's instructions (joinPiece()).
     */
    struct PieceRebase
    {
        /** Element i is the id here of the piece's expression id i. */
        std::vector<std::uint32_t> exprIds;
        /** Definitions before the piece's first instruction. */
        DefCounts defsBefore{};

        void
        apply(MemOperand &mem) const
        {
            mem.exprId = exprIds[mem.exprId];
            if (mem.base >= 0)
                mem.baseGen += defsBefore[mem.base];
            if (mem.index >= 0)
                mem.indexGen += defsBefore[mem.index];
        }
    };

    /** Append an instruction; assigns its index and commits it. */
    Instruction &append(Instruction inst);

    /**
     * Append a bare @p op instruction in place and return it, its
     * index assigned, for the caller to fill (the parser's path) and
     * then commit().  A caller that gives up on it before then takes
     * it back with store().popBack().
     */
    Instruction &emplace(Opcode op);

    /**
     * Number @p inst, the newest instruction, once it is filled:
     * intern its memory operand's expression, stamp the operand with
     * the definitions of its base and index registers so far, then
     * count @p inst's own integer-register definitions.
     */
    void
    commit(Instruction &inst)
    {
        if (auto &mem = inst.mem()) {
            mem->exprId = memExprs_.intern(*mem);
            mem->baseGen = mem->base >= 0 ? defs_[mem->base] : 0;
            mem->indexGen = mem->index >= 0 ? defs_[mem->index] : 0;
        }
        for (Resource r : inst.defs())
            if (r.kind() == Resource::Kind::IntReg)
                ++defs_[r.index()];
    }

    /** Make room for @p insts instructions and, when @p labels, for
     * that many labels at instruction indices up to @p insts. */
    void reserve(std::size_t insts, std::size_t labels = 0);

    /**
     * Attach a label to the next appended instruction position.
     * Returns false when @p name is already defined; its first
     * definition stays.
     */
    bool addLabel(std::string_view name);

    /**
     * Attach a label node made elsewhere: its key is the name, its
     * value the instruction index.  Returns false, leaving the node in
     * @p node, when the name is already defined; its first definition
     * stays.  Either way that index now carries a label.
     */
    bool addLabel(LabelNode &node);

    /**
     * Number @p piece, a program built on its own from the
     * instructions that follow this one's, as their continuation here:
     * intern its expressions in its id order (MemExprTable::merge) and
     * count its definitions in.  The caller then moves the piece's
     * instructions here, each memory operand rebased by the result.
     */
    PieceRebase joinPiece(const Program &piece);

    std::span<const Instruction> insts() const
    {
        return {insts_.data(), insts_.size()};
    }
    std::span<Instruction> insts() { return {insts_.data(), insts_.size()}; }

    /** The instructions' storage, for the parser: it pops a failed
     * line's instruction, and a lane parse appends the slots its lanes
     * fill. */
    InstStore &store() { return insts_; }

    std::size_t size() const { return insts_.size(); }

    const Instruction &operator[](std::size_t i) const { return insts_[i]; }

    /** Every label and the instruction index it points at. */
    const std::unordered_map<std::string, std::uint32_t> &
    labels() const
    {
        return labels_;
    }

    /** Instruction index a label points at, or -1 when unknown. */
    std::int64_t labelTarget(const std::string &name) const;

    /** True when instruction @p idx carries a label. */
    bool hasLabelAt(std::uint32_t idx) const;

    /** Interned memory expressions across the whole program. */
    const MemExprTable &memExprs() const { return memExprs_; }

    /** Render the program as assembly text: each instruction under
     * its labels, in the order they were defined. */
    std::string toString() const;

  private:
    InstStore insts_;
    std::unordered_map<std::string, std::uint32_t> labels_;
    std::vector<std::string> labelOrder_; ///< labels_' keys as defined
    std::vector<bool> labelAt_; ///< at least up to the last labelled index
    MemExprTable memExprs_;
    DefCounts defs_{}; ///< of every committed instruction
};

} // namespace sched91

#endif // SCHED91_IR_PROGRAM_HH
