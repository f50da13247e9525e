#include "ir/program.hh"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

namespace sched91
{

namespace
{

Instruction *
allocate(std::size_t n)
{
    return std::allocator<Instruction>().allocate(n);
}

void
deallocate(Instruction *p, std::size_t n)
{
    if (p)
        std::allocator<Instruction>().deallocate(p, n);
}

} // namespace

InstStore::InstStore(const InstStore &other)
{
    if (other.size_ == 0)
        return;
    data_ = allocate(other.size_);
    try {
        std::uninitialized_copy_n(other.data_, other.size_, data_);
    } catch (...) {
        deallocate(data_, other.size_);
        data_ = nullptr;
        throw;
    }
    size_ = capacity_ = other.size_;
}

InstStore::InstStore(InstStore &&other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      capacity_(std::exchange(other.capacity_, 0))
{
}

InstStore &
InstStore::operator=(InstStore other) noexcept
{
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
    return *this;
}

InstStore::~InstStore()
{
    std::destroy_n(data_, size_);
    deallocate(data_, capacity_);
}

void
InstStore::reallocate(std::size_t capacity)
{
    Instruction *data = allocate(capacity);
    std::uninitialized_move_n(data_, size_, data);
    std::destroy_n(data_, size_);
    deallocate(data_, capacity_);
    data_ = data;
    capacity_ = capacity;
}

void
InstStore::grow()
{
    reallocate(size_ + std::max<std::size_t>(size_, 1));
}

void
InstStore::reserve(std::size_t n)
{
    if (n > capacity_)
        reallocate(n);
}

Instruction &
InstStore::emplaceBack(Opcode op)
{
    if (size_ == capacity_)
        grow();
    return *std::construct_at(data_ + size_++, op);
}

Instruction &
InstStore::pushBack(Instruction &&inst)
{
    if (size_ == capacity_)
        grow();
    return *std::construct_at(data_ + size_++, std::move(inst));
}

void
InstStore::popBack()
{
    std::destroy_at(data_ + --size_);
}

Instruction *
InstStore::appendUnbuilt(std::size_t n)
{
    if (size_ + n > capacity_)
        reallocate(size_ + n);
    Instruction *first = data_ + size_;
    size_ += n;
    return first;
}

Instruction &
Program::append(Instruction inst)
{
    inst.setIndex(static_cast<std::uint32_t>(insts_.size()));
    internMem(inst);
    return insts_.pushBack(std::move(inst));
}

Instruction &
Program::emplace(Opcode op)
{
    const auto idx = static_cast<std::uint32_t>(insts_.size());
    Instruction &inst = insts_.emplaceBack(op);
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
    labels_.reserve(labels);
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
    for (const Instruction &inst : insts()) {
        auto it = names.find(inst.index());
        if (it != names.end())
            for (const auto &name : it->second)
                os << name << ":\n";
        os << "    " << inst.toString() << "\n";
    }
    return os.str();
}

} // namespace sched91
