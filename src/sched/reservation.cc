#include "sched/reservation.hh"

#include <algorithm>

#include "support/logging.hh"

namespace sched91
{

std::vector<FuUse>
reservationPattern(const MachineModel &machine, InstClass cls)
{
    switch (cls) {
      case InstClass::Load:
      case InstClass::LoadDouble:
      case InstClass::Store:
      case InstClass::StoreDouble:
        // Address generation on the ALU, then the memory port.
        return {{FuKind::IntAlu, 0, 1}, {FuKind::MemPort, 1, 1}};
      case InstClass::IntMul:
      case InstClass::IntDiv:
        return {{FuKind::IntMulDiv, 0, machine.latency(cls)}};
      case InstClass::FpDiv:
      case InstClass::FpSqrt:
        return {{FuKind::FpDivSqrt, 0, machine.latency(cls)}};
      case InstClass::FpMul:
        return {{FuKind::FpMul, 0, 1}};
      case InstClass::FpAdd:
      case InstClass::FpCmp:
      case InstClass::FpMove:
        return {{FuKind::FpAdd, 0, 1}};
      case InstClass::Branch:
      case InstClass::Call:
        return {{FuKind::BranchUnit, 0, 1}};
      default:
        return {{FuKind::IntAlu, 0, 1}};
    }
}

ReservationPatterns
reservationPatterns(const MachineModel &machine)
{
    ReservationPatterns patterns;
    for (std::size_t c = 0; c < patterns.size(); ++c)
        patterns[c] = reservationPattern(machine, static_cast<InstClass>(c));
    return patterns;
}

ReservationTable::ReservationTable(const MachineModel &machine)
    : machine_(machine), busy_(kNumFuKinds)
{
}

bool
ReservationTable::busy(FuKind fu, int cycle) const
{
    const auto &row = busy_[static_cast<std::size_t>(fu)];
    if (cycle >= static_cast<int>(row.size()))
        return false;
    return row[cycle] >= machine_.fuDesc(fu).count;
}

void
ReservationTable::setBusy(FuKind fu, int cycle)
{
    auto &row = busy_[static_cast<std::size_t>(fu)];
    if (cycle >= static_cast<int>(row.size()))
        row.resize(cycle + 1, 0);
    ++row[cycle];
}

bool
ReservationTable::fits(const std::vector<FuUse> &pattern, int start) const
{
    for (const FuUse &use : pattern)
        for (int c = 0; c < use.duration; ++c)
            if (busy(use.fu, start + use.start + c))
                return false;
    return true;
}

void
ReservationTable::place(const std::vector<FuUse> &pattern, int start)
{
    for (const FuUse &use : pattern)
        for (int c = 0; c < use.duration; ++c)
            setBusy(use.fu, start + use.start + c);
}

int
ReservationTable::earliestFit(const std::vector<FuUse> &pattern,
                              int from) const
{
    for (int start = from;; ++start)
        if (fits(pattern, start))
            return start;
}

ReservationResult
scheduleWithReservationTable(Dag &dag, const MachineModel &machine)
{
    std::uint32_t n = dag.size();
    ReservationResult result;
    result.cycle.assign(n, -1);

    ReservationTable table(machine);
    const ReservationPatterns patterns = reservationPatterns(machine);
    std::vector<int> unplaced_parents(n);
    for (std::uint32_t i = 0; i < n; ++i)
        unplaced_parents[i] = dag.numParents(i);

    // Ready set ordered by priority: critical path (max delay to a
    // leaf) first, then execution time, then original order.
    auto priority_less = [&dag](std::uint32_t a, std::uint32_t b) {
        const NodeAnnotations &ann = dag.ann();
        if (ann.maxDelayToLeaf[a] != ann.maxDelayToLeaf[b])
            return ann.maxDelayToLeaf[a] > ann.maxDelayToLeaf[b];
        if (ann.execTime[a] != ann.execTime[b])
            return ann.execTime[a] > ann.execTime[b];
        return a < b;
    };

    std::vector<std::uint32_t> ready;
    for (std::uint32_t i = 0; i < n; ++i)
        if (unplaced_parents[i] == 0)
            ready.push_back(i);

    std::uint32_t placed = 0;
    while (!ready.empty()) {
        auto it = std::min_element(ready.begin(), ready.end(),
                                   priority_less);
        std::uint32_t node_id = *it;
        ready.erase(it);

        // Operand dependences set the floor; the table sets the slot.
        int floor = 0;
        std::span<const std::uint32_t> from = dag.predFrom(node_id);
        std::span<const std::int32_t> pdelay = dag.predDelay(node_id);
        for (std::size_t k = 0; k < from.size(); ++k)
            floor = std::max(floor, result.cycle[from[k]] + pdelay[k]);
        const std::vector<FuUse> &pattern = patterns[static_cast<std::size_t>(
            dag.inst(node_id).cls())];
        int slot = table.earliestFit(pattern, floor);
        table.place(pattern, slot);
        result.cycle[node_id] = slot;
        result.makespan = std::max(
            result.makespan, slot + dag.ann().execTime[node_id]);
        ++placed;

        for (std::uint32_t child : dag.succTo(node_id)) {
            if (--unplaced_parents[child] == 0)
                ready.push_back(child);
        }
    }
    SCHED91_ASSERT(placed == n, "reservation scheduling lost nodes");

    // Emission order: by placement cycle, original order on ties.
    result.sched.order.resize(n);
    for (std::uint32_t i = 0; i < n; ++i)
        result.sched.order[i] = i;
    std::sort(result.sched.order.begin(), result.sched.order.end(),
              [&result](std::uint32_t a, std::uint32_t b) {
                  if (result.cycle[a] != result.cycle[b])
                      return result.cycle[a] < result.cycle[b];
                  return a < b;
              });
    result.sched.makespan = result.makespan;
    for (std::uint32_t node_id : result.sched.order)
        result.sched.issueCycle.push_back(result.cycle[node_id]);
    return result;
}

} // namespace sched91
