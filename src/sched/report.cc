#include "sched/report.hh"

#include <algorithm>
#include <sstream>

#include "dag/table_forward.hh"
#include "support/string_util.hh"

namespace sched91
{

std::vector<BlockReport>
ProgramReport::worstBlocks(std::size_t n) const
{
    std::vector<BlockReport> sorted = blocks;
    std::sort(sorted.begin(), sorted.end(),
              [](const BlockReport &a, const BlockReport &b) {
                  return a.slackToBound() > b.slackToBound();
              });
    if (sorted.size() > n)
        sorted.resize(n);
    return sorted;
}

std::string
ProgramReport::render(std::size_t n) const
{
    std::ostringstream os;
    os << "blocks " << blocks.size() << ", cycles " << cyclesOriginal
       << " -> " << cyclesScheduled << "\n";
    os << padRight("block@", 8) << padLeft("size", 6)
       << padLeft("orig", 7) << padLeft("sched", 7)
       << padLeft("bound", 7) << padLeft("excess", 7) << "\n";
    for (const BlockReport &b : worstBlocks(n)) {
        os << padRight(std::to_string(b.begin), 8)
           << padLeft(std::to_string(b.size), 6)
           << padLeft(std::to_string(b.cyclesOriginal), 7)
           << padLeft(std::to_string(b.cyclesScheduled), 7)
           << padLeft(std::to_string(b.criticalPath), 7)
           << padLeft(std::to_string(b.slackToBound()), 7) << "\n";
    }
    return os.str();
}

ProgramReport
reportProgram(const Program &prog, const MachineModel &machine,
              const PipelineOptions &opts)
{
    std::vector<Schedule> schedules;
    PipelineOptions run = opts;
    run.schedules = &schedules;
    ProgramReport report;
    report.run = runPipeline(prog, machine, run);

    const std::vector<BasicBlock> &blocks = report.run.blocks;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const BasicBlock &bb = blocks[b];
        BlockView block(prog, bb);
        Dag gt = TableForwardBuilder().build(block, machine, opts.build);
        SimResult before = simulateSchedule(
            gt, originalOrderSchedule(gt).order, machine);
        SimResult after =
            simulateSchedule(gt, schedules[b].order, machine);

        // Critical path: longest arc-delay path closed with the final
        // node's latency.
        std::vector<int> tail(gt.size(), 0);
        int critical = 0;
        for (std::uint32_t i = gt.size(); i-- > 0;) {
            tail[i] = gt.ann().execTime[i];
            std::span<const std::uint32_t> to = gt.succTo(i);
            std::span<const std::int32_t> delay = gt.succDelay(i);
            for (std::size_t k = 0; k < to.size(); ++k)
                tail[i] = std::max(tail[i], delay[k] + tail[to[k]]);
            critical = std::max(critical, tail[i]);
        }

        BlockReport r;
        r.begin = bb.begin;
        r.size = bb.size();
        r.cyclesOriginal = before.cycles;
        r.cyclesScheduled = after.cycles;
        r.stallsOriginal = before.stallCycles;
        r.stallsScheduled = after.stallCycles;
        r.criticalPath = critical;
        report.blocks.push_back(r);
        report.cyclesOriginal += before.cycles;
        report.cyclesScheduled += after.cycles;
    }
    return report;
}

} // namespace sched91
