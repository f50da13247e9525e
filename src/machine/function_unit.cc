#include "machine/function_unit.hh"

#include <algorithm>

namespace sched91
{

FuState::FuState(const MachineModel &machine) : machine_(&machine)
{
    for (int k = 0; k < kNumFuKinds; ++k) {
        first_[k + 1] =
            first_[k] +
            std::max(1, machine.fuDesc(static_cast<FuKind>(k)).count);
    }
    if (first_[kNumFuKinds] > kInlineUnits)
        spilled_.assign(static_cast<std::size_t>(first_[kNumFuKinds]), 0);
}

std::span<const int>
FuState::pool(FuKind kind) const
{
    const auto k = static_cast<std::size_t>(kind);
    return {busyUntil() + first_[k], busyUntil() + first_[k + 1]};
}

void
FuState::reset()
{
    std::fill(busyUntil(), busyUntil() + first_[kNumFuKinds], 0);
}

int
FuState::earliestFree(FuKind kind, int now) const
{
    return std::max(now, std::ranges::min(pool(kind)));
}

void
FuState::occupy(InstClass cls, int start)
{
    occupy(machine_->fuFor(cls), start, machine_->fuBusyCycles(cls));
}

void
FuState::occupy(FuKind kind, int start, int busy)
{
    const auto k = static_cast<std::size_t>(kind);
    int *units = busyUntil();
    *std::min_element(units + first_[k], units + first_[k + 1]) =
        start + busy;
}

int
FuState::maxBusyUntil(FuKind kind) const
{
    return std::ranges::max(pool(kind));
}

} // namespace sched91
