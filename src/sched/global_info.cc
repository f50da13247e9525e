#include "sched/global_info.hh"

#include <algorithm>

#include "support/logging.hh"

namespace sched91
{

InheritedLatencies
computeOutgoingLatencies(const Dag &dag, const Schedule &sched,
                         const MachineModel &machine)
{
    SCHED91_ASSERT(sched.issueCycle.size() == sched.order.size(),
                   "schedule lacks issue cycles");
    InheritedLatencies out;
    if (sched.order.empty())
        return out;

    int next_issue = sched.issueCycle.back() + 1;
    std::array<int, Resource::kNumSlots> settle{};
    for (std::size_t p = 0; p < sched.order.size(); ++p) {
        const Instruction &inst = dag.inst(sched.order[p]);
        int done = sched.issueCycle[p] + machine.latency(inst.cls());
        for (Resource r : inst.defs())
            if (const int s = r.slot(); s >= 0)
                settle[s] = std::max(settle[s], done);
    }
    for (int s = 0; s < Resource::kNumSlots; ++s)
        out.ready[s] = std::max(0, settle[s] - next_issue);
    return out;
}

void
applyInheritedLatencies(Dag &dag, const InheritedLatencies &in)
{
    NodeAnnotations &ann = dag.ann();
    for (std::uint32_t i = 0; i < dag.size(); ++i) {
        const Instruction &inst = dag.inst(i);
        int floor = 0;
        for (Resource r : inst.uses())
            floor = std::max(floor, in.ready[r.slot()]);
        for (Resource r : inst.defs())
            floor = std::max(floor, in.ready[r.slot()]);
        ann.inheritedEet[i] = floor;
    }
}

std::vector<int>
inheritedReadyTimes(const Dag &dag, const InheritedLatencies &in)
{
    std::vector<int> ready(dag.size(), 0);
    for (std::uint32_t i = 0; i < dag.size(); ++i) {
        const Instruction &inst = dag.inst(i);
        int floor = 0;
        for (Resource r : inst.uses())
            floor = std::max(floor, in.ready[r.slot()]);
        for (Resource r : inst.defs())
            floor = std::max(floor, in.ready[r.slot()]);
        ready[i] = floor;
    }
    return ready;
}

} // namespace sched91
