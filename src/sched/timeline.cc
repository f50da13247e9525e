#include "sched/timeline.hh"

#include <algorithm>
#include <sstream>
#include <vector>

#include "machine/function_unit.hh"
#include "sched/pipeline_sim.hh"
#include "support/string_util.hh"

namespace sched91
{

namespace
{

char
positionMark(std::size_t pos)
{
    static const char digits[] =
        "0123456789abcdefghijklmnopqrstuvwxyz";
    return digits[pos % 36];
}

const char *
fuName(FuKind kind)
{
    switch (kind) {
      case FuKind::IntAlu: return "int-alu";
      case FuKind::IntMulDiv: return "int-muldiv";
      case FuKind::MemPort: return "mem-port";
      case FuKind::BranchUnit: return "branch";
      case FuKind::FpAdd: return "fp-add";
      case FuKind::FpMul: return "fp-mul";
      case FuKind::FpDivSqrt: return "fp-divsqrt";
      default: return "?";
    }
}

} // namespace

std::string
renderTimeline(const Dag &dag, const std::vector<std::uint32_t> &order,
               const MachineModel &machine, const TimelineOptions &opts)
{
    // Issue cycles from the pipeline simulator, seeded with the
    // block's cross-block latency floors.
    const std::vector<int> floors(dag.ann().inheritedEet.begin(),
                                  dag.ann().inheritedEet.end());
    std::vector<int> issue(order.size());
    simulateSchedule(dag, order, machine, &floors, issue);
    int last_cycle = 0;
    for (std::size_t p = 0; p < order.size(); ++p)
        last_cycle = std::max(
            last_cycle,
            issue[p] + machine.fuBusyCycles(dag.inst(order[p]).cls()));

    int width = std::min(last_cycle, opts.maxCycles);
    bool truncated = last_cycle > opts.maxCycles;

    std::ostringstream os;
    // Cycle ruler (tens).
    os << padRight("", 12);
    for (int c = 0; c < width; ++c)
        os << (c % 10 == 0 ? static_cast<char>('0' + (c / 10) % 10)
                           : ' ');
    os << "\n";

    for (int k = 0; k < kNumFuKinds; ++k) {
        FuKind kind = static_cast<FuKind>(k);
        std::string row(static_cast<std::size_t>(width), '.');
        bool used = false;
        for (std::size_t p = 0; p < order.size(); ++p) {
            const InstClass cls = dag.inst(order[p]).cls();
            if (machine.fuFor(cls) != kind)
                continue;
            used = true;
            const int at = issue[p];
            if (at < width)
                row[at] = positionMark(p);
            for (int b = 1; b < machine.fuBusyCycles(cls) && at + b < width;
                 ++b)
                if (row[at + b] == '.')
                    row[at + b] = '=';
        }
        if (used)
            os << padRight(fuName(kind), 12) << row
               << (truncated ? "…" : "") << "\n";
    }

    if (opts.showLegend) {
        os << "\n(" << order.size() << " instructions, "
           << last_cycle << " cycles; digits mark issue position, "
           << "'=' marks non-pipelined busy cycles)\n";
    }
    return os.str();
}

} // namespace sched91
