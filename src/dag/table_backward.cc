#include "dag/table_backward.hh"

#include "obs/events.hh"
#include "support/worker_context.hh"

namespace sched91
{

void
TableBackwardBuilder::addArcs(Dag &dag, const BlockView &block,
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

    for (std::uint32_t j = block.size(); j-- > 0;) {
        if (opts.cancel)
            opts.cancel->poll();
        const Instruction &inst = block.inst(j);
        dag.beginArcGroup(j);

        // --- resources defined (processed before uses) ---------------
        for (Resource r : inst.defs()) {
            ++probes;
            ResourceTable::Slot &e = table[r.slot()];
            if (e.def >= 0 && e.uses.empty()) {
                std::uint32_t d = static_cast<std::uint32_t>(e.def);
                dag.addArc(j, d, DepKind::WAW, delays.waw(j, d), r);
            }
            for (std::uint32_t u : e.uses)
                dag.addArc(j, u, DepKind::RAW, delays.raw(j, u, r), r);
            e.uses.clear();
            e.def = j;
        }

        if (inst.isStore() && inst.mem().has_value()) {
            const MemOperand &ref = *inst.mem();
            bool claimed = mem.forEachAlias(
                ref, [&](MemTable::Entry &e, AliasResult rel) {
                    if (e.def >= 0 && e.uses.empty()) {
                        auto d = static_cast<std::uint32_t>(e.def);
                        dag.addArc(j, d, DepKind::WAW, delays.waw(j, d));
                    }
                    for (std::uint32_t u : e.uses)
                        dag.addArc(j, u, DepKind::RAW,
                                   delays.raw(j, u, Resource()));
                    if (rel == AliasResult::MustAlias) {
                        e.uses.clear();
                        e.def = j;
                    }
                });
            if (!claimed)
                mem.add(ref).def = j;
        }

        // --- resources used -------------------------------------------
        for (Resource r : inst.uses()) {
            ++probes;
            ResourceTable::Slot &e = table[r.slot()];
            if (e.def >= 0 && e.def != j) {
                std::uint32_t d = static_cast<std::uint32_t>(e.def);
                dag.addArc(j, d, DepKind::WAR, delays.war(), r);
            }
            e.uses.push_back(j);
        }

        if (inst.isLoad() && inst.mem().has_value()) {
            const MemOperand &ref = *inst.mem();
            bool claimed = mem.forEachAlias(
                ref, [&](MemTable::Entry &e, AliasResult rel) {
                    if (e.def >= 0 &&
                        e.def != static_cast<std::int64_t>(j)) {
                        auto d = static_cast<std::uint32_t>(e.def);
                        dag.addArc(j, d, DepKind::WAR, delays.war());
                    }
                    if (rel == AliasResult::MustAlias)
                        e.uses.push_back(j);
                });
            if (!claimed)
                mem.add(ref).uses.push_back(j);
        }
    }

    obs::ev::dagTableProbes.inc(probes + mem.probes());
}

} // namespace sched91
