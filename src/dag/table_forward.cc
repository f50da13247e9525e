#include "dag/table_forward.hh"

#include "obs/events.hh"
#include "support/worker_context.hh"

namespace sched91
{

void
TableForwardBuilder::addArcs(Dag &dag, const BlockView &block,
                             const MachineModel &machine,
                             const BuildOptions &opts) const
{
    DelayCalc delays(machine, dag);
    // The lane's table, when there is a lane; its use lists join the
    // lane arena's block lifetime.
    WorkerContext *wc = WorkerContext::current();
    ResourceTable local;
    ResourceTable &table = wc ? wc->resources : local;
    table.begin(Resource::kNumSlots, WorkerContext::currentArena());
    MemTable mem(opts.memPolicy, WorkerContext::currentScratchArena());

    // Definition-table probes, accumulated locally and flushed with
    // the memory table's once per block (Table 5's unit of work).
    std::uint64_t probes = 0;

    std::uint32_t n = block.size();
    for (std::uint32_t j = 0; j < n; ++j) {
        // One poll per instruction bounds the overrun to a single
        // row's table work (the rows are O(ops + live mem exprs)).
        if (opts.cancel)
            opts.cancel->poll();
        const Instruction &inst = block.inst(j);
        dag.beginArcGroup(j);

        // --- resources used (processed before definitions) ----------
        for (Resource r : inst.uses()) {
            ++probes;
            ResourceTable::Slot &e = table[r.slot()];
            if (e.def >= 0) {
                std::uint32_t d = static_cast<std::uint32_t>(e.def);
                dag.addArc(d, j, DepKind::RAW, delays.raw(d, j, r), r);
            }
            e.uses.push_back(j);
        }

        if (inst.isLoad() && inst.mem().has_value()) {
            const MemOperand &ref = *inst.mem();
            bool claimed = mem.forEachAlias(
                ref, [&](MemTable::Entry &e, AliasResult rel) {
                    if (e.def >= 0) {
                        auto d = static_cast<std::uint32_t>(e.def);
                        dag.addArc(d, j, DepKind::RAW,
                                   delays.raw(d, j, Resource()));
                    }
                    if (rel == AliasResult::MustAlias)
                        e.uses.push_back(j);
                });
            if (!claimed)
                mem.add(ref).uses.push_back(j);
        }

        // --- resources defined ---------------------------------------
        for (Resource r : inst.defs()) {
            ++probes;
            ResourceTable::Slot &e = table[r.slot()];
            if (!e.uses.empty()) {
                for (std::uint32_t u : e.uses)
                    if (u != j)
                        dag.addArc(u, j, DepKind::WAR, delays.war(), r);
                e.uses.clear();
            } else if (e.def >= 0) {
                std::uint32_t d = static_cast<std::uint32_t>(e.def);
                dag.addArc(d, j, DepKind::WAW, delays.waw(d, j), r);
            }
            e.def = j;
        }

        if (inst.isStore() && inst.mem().has_value()) {
            const MemOperand &ref = *inst.mem();
            bool claimed = mem.forEachAlias(
                ref, [&](MemTable::Entry &e, AliasResult rel) {
                    if (!e.uses.empty()) {
                        for (std::uint32_t u : e.uses)
                            if (u != j)
                                dag.addArc(u, j, DepKind::WAR,
                                           delays.war());
                    } else if (e.def >= 0) {
                        auto d = static_cast<std::uint32_t>(e.def);
                        dag.addArc(d, j, DepKind::WAW, delays.waw(d, j));
                    }
                    if (rel == AliasResult::MustAlias) {
                        e.def = j;
                        e.uses.clear();
                    }
                });
            if (!claimed)
                mem.add(ref).def = j;
        }
    }

    obs::ev::dagTableProbes.inc(probes + mem.probes());
}

} // namespace sched91
