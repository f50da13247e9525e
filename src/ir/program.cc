#include "ir/program.hh"

#include <sstream>

namespace sched91
{

Instruction &
Program::append(Instruction inst)
{
    inst.setIndex(static_cast<std::uint32_t>(insts_.size()));
    internMem(inst);
    insts_.push_back(std::move(inst));
    return insts_.back();
}

Instruction &
Program::emplace(Opcode op)
{
    const auto idx = static_cast<std::uint32_t>(insts_.size());
    Instruction &inst = insts_.emplace_back(op);
    inst.setIndex(idx);
    return inst;
}

void
Program::reserve(std::size_t insts, std::size_t labels)
{
    insts_.reserve(insts);
    if (labels == 0)
        return;
    // A label may follow the last instruction.
    if (labelAt_.size() < insts + 1)
        labelAt_.resize(insts + 1, false);
    labelOrder_.reserve(labels);
}

bool
Program::addLabel(std::string_view name)
{
    auto idx = static_cast<std::uint32_t>(insts_.size());
    auto [it, added] = labels_.try_emplace(std::string(name), idx);
    if (added)
        labelOrder_.push_back(it->first);
    if (labelAt_.size() <= idx)
        labelAt_.resize(idx + 1, false);
    labelAt_[idx] = true;
    return added;
}

bool
Program::addLabel(LabelNode &node)
{
    const std::uint32_t idx = node.mapped();
    if (labelAt_.size() <= idx)
        labelAt_.resize(idx + 1, false);
    labelAt_[idx] = true;
    auto result = labels_.insert(std::move(node));
    if (result.inserted)
        labelOrder_.push_back(result.position->first);
    else
        node = std::move(result.node);
    return result.inserted;
}

std::vector<std::uint32_t>
Program::internMemExprs(const MemExprTable &exprs)
{
    return memExprs_.merge(exprs);
}

std::int64_t
Program::labelTarget(const std::string &name) const
{
    auto it = labels_.find(name);
    return it == labels_.end() ? -1 : it->second;
}

bool
Program::hasLabelAt(std::uint32_t idx) const
{
    return idx < labelAt_.size() && labelAt_[idx];
}

std::string
Program::toString() const
{
    // Labels render above their instruction in definition order.
    std::unordered_map<std::uint32_t, std::vector<std::string>> names;
    for (const std::string &name : labelOrder_)
        names[labels_.find(name)->second].push_back(name);

    std::ostringstream os;
    for (const auto &inst : insts_) {
        auto it = names.find(inst.index());
        if (it != names.end())
            for (const auto &name : it->second)
                os << name << ":\n";
        os << "    " << inst.toString() << "\n";
    }
    return os.str();
}

} // namespace sched91
