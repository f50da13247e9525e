#include "sched/pipeline_sim.hh"

#include <algorithm>

#include "machine/function_unit.hh"
#include "support/logging.hh"

namespace sched91
{

SimResult
simulateSchedule(const Dag &ground_truth,
                 const std::vector<std::uint32_t> &order,
                 const MachineModel &machine,
                 const std::vector<int> *initial_ready,
                 std::span<int> issue_cycles)
{
    SCHED91_ASSERT(isValidTopologicalOrder(ground_truth, order),
                   "schedule violates dependences");
    SCHED91_ASSERT(issue_cycles.empty() ||
                   issue_cycles.size() == order.size());

    std::vector<int> dep_ready(ground_truth.size(), 0);
    if (initial_ready) {
        SCHED91_ASSERT(initial_ready->size() == ground_truth.size());
        dep_ready = *initial_ready;
    }
    FuState fus(machine);

    SimResult result;
    int cycle = 0;
    int issued_this_cycle = 0;
    unsigned groups_used = 0;
    int prev_issue = -1;

    for (std::size_t p = 0; p < order.size(); ++p) {
        const std::uint32_t n = order[p];
        const Instruction &inst = ground_truth.inst(n);
        InstClass cls = inst.cls();
        unsigned group_bit = 1u << static_cast<unsigned>(inst.group());

        int earliest = std::max(dep_ready[n],
                                fus.earliestFree(machine.fuFor(cls), 0));
        int t = std::max(cycle, earliest);

        auto reset_cycle = [&](int new_cycle) {
            cycle = new_cycle;
            issued_this_cycle = 0;
            groups_used = 0;
        };

        if (t > cycle)
            reset_cycle(t);
        // Issue-slot and group constraints (superscalar only).
        while (issued_this_cycle >= machine.issueWidth ||
               (machine.issueWidth > 1 && (groups_used & group_bit))) {
            reset_cycle(cycle + 1);
        }

        int issue = cycle;
        if (!issue_cycles.empty())
            issue_cycles[p] = issue;
        ++issued_this_cycle;
        groups_used |= group_bit;
        fus.occupy(cls, issue);

        int latency = machine.latency(cls);
        result.cycles = std::max(result.cycles, issue + latency);
        if (prev_issue >= 0)
            result.stallCycles += std::max(0, issue - prev_issue - 1);
        prev_issue = issue;
        result.lastIssue = issue;

        std::span<const std::uint32_t> to = ground_truth.succTo(n);
        std::span<const std::int32_t> delay = ground_truth.succDelay(n);
        for (std::size_t k = 0; k < to.size(); ++k) {
            dep_ready[to[k]] =
                std::max(dep_ready[to[k]], issue + delay[k]);
        }
    }

    return result;
}

} // namespace sched91
