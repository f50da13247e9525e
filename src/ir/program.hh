/**
 * @file
 * A Program is an ordered list of instructions plus label positions and
 * the interned memory-expression table.
 */

#ifndef SCHED91_IR_PROGRAM_HH
#define SCHED91_IR_PROGRAM_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ir/instruction.hh"
#include "ir/operand.hh"

namespace sched91
{

/** An assembly program: instructions, labels, memory expressions. */
class Program
{
  public:
    /** A label's map node, as unordered_map::extract() hands it out. */
    using LabelNode =
        std::unordered_map<std::string, std::uint32_t>::node_type;

    /** Append an instruction; assigns its index and interns memory. */
    Instruction &append(Instruction inst);

    /**
     * Append a bare @p op instruction in place and return it, its
     * index assigned, for the caller to fill (the parser's path).  Once
     * its memory operand is set, internMem() gives it its expression
     * id; a caller that gives up on it takes it back with
     * insts().pop_back().
     */
    Instruction &emplace(Opcode op);

    /** Intern @p inst's memory operand, if it has one, and set its
     * expression id. */
    void
    internMem(Instruction &inst)
    {
        if (auto &mem = inst.mem())
            mem->exprId = memExprs_.intern(*mem);
    }

    /** Make room for @p insts instructions and, when @p labels, for
     * that many labels at instruction indices up to @p insts (the map
     * of their names still grows as they are added). */
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
     * Intern @p exprs' expressions here in its id order
     * (MemExprTable::merge).  Element i of the result is the id here
     * of its id i.
     */
    std::vector<std::uint32_t> internMemExprs(const MemExprTable &exprs);

    const std::vector<Instruction> &insts() const { return insts_; }
    std::vector<Instruction> &insts() { return insts_; }

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
    std::vector<Instruction> insts_;
    std::unordered_map<std::string, std::uint32_t> labels_;
    std::vector<std::string> labelOrder_; ///< labels_' keys as defined
    std::vector<bool> labelAt_; ///< at least up to the last labelled index
    MemExprTable memExprs_;
};

} // namespace sched91

#endif // SCHED91_IR_PROGRAM_HH
