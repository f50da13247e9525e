#include "sched/fixup.hh"

#include <algorithm>

#include "support/worker_context.hh"

namespace sched91
{

namespace
{

/** Lookahead distance when hunting for a slot filler. */
constexpr std::size_t kFixupWindow = 64;

} // namespace

int
applyPostpassFixup(const Dag &dag, Schedule &sched)
{
    const std::size_t n = sched.order.size();
    WorkerContext *wc = WorkerContext::current();
    std::vector<int> local_pos, local_dep;
    std::vector<int> &pos = wc ? wc->schedPos : local_pos;
    std::vector<int> &dep_ready = wc ? wc->depReady : local_dep;
    pos.assign(dag.size(), 0);
    for (std::size_t p = 0; p < n; ++p)
        pos[sched.order[p]] = static_cast<int>(p);

    dep_ready.assign(dag.size(), 0);
    for (std::uint32_t i = 0; i < dag.size(); ++i)
        dep_ready[i] = dag.ann().inheritedEet[i];
    int moved = 0;
    int time = 0;
    // Positions before p keep their nodes, so each issue cycle is the
    // final order's.
    sched.issueCycle.assign(n, 0);
    sched.makespan = 0;

    for (std::size_t p = 0; p < n; ++p) {
        std::uint32_t node = sched.order[p];
        int issue = std::max(time, dep_ready[node]);

        if (issue > time) {
            // Stall cycle(s): look ahead for an instruction that is
            // ready now and whose parents are all already placed.
            std::size_t limit = std::min(n, p + 1 + kFixupWindow);
            for (std::size_t q = p + 1; q < limit; ++q) {
                std::uint32_t cand = sched.order[q];
                if (dep_ready[cand] > time)
                    continue;
                bool parents_placed = true;
                for (std::uint32_t from : dag.predFrom(cand)) {
                    if (pos[from] >= static_cast<int>(p)) {
                        parents_placed = false;
                        break;
                    }
                }
                if (!parents_placed)
                    continue;

                // Move the candidate up into the stall slot.
                std::rotate(sched.order.begin() +
                                static_cast<std::ptrdiff_t>(p),
                            sched.order.begin() +
                                static_cast<std::ptrdiff_t>(q),
                            sched.order.begin() +
                                static_cast<std::ptrdiff_t>(q) + 1);
                for (std::size_t r = p; r <= q; ++r)
                    pos[sched.order[r]] = static_cast<int>(r);
                node = cand;
                issue = std::max(time, dep_ready[node]);
                ++moved;
                break;
            }
        }

        std::span<const std::uint32_t> to = dag.succTo(node);
        std::span<const std::int32_t> delay = dag.succDelay(node);
        for (std::size_t k = 0; k < to.size(); ++k) {
            dep_ready[to[k]] =
                std::max(dep_ready[to[k]], issue + delay[k]);
        }
        sched.issueCycle[p] = issue;
        sched.makespan =
            std::max(sched.makespan, issue + dag.ann().execTime[node]);
        time = issue + 1;
    }

    return moved;
}

} // namespace sched91
