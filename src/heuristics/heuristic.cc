#include "heuristics/heuristic.hh"

#include <array>

#include "support/logging.hh"

namespace sched91
{

namespace
{

using H = Heuristic;
using C = HeuristicCategory;
using P = CalcPass;

// Table 1, row by row.  The boolean columns are: timing-based, pass,
// transitive-arc sensitivity ("**").
constexpr std::array<HeuristicInfo, kNumHeuristics> kTable = {{
    {H::InterlockWithPrevious, "interlock with previous inst.",
     C::StallBehavior, false, P::Visitation, false},
    {H::EarliestExecutionTime, "earliest execution time",
     C::StallBehavior, true, P::Visitation, true},
    {H::InterlockWithChild, "interlock with child",
     C::StallBehavior, false, P::AddArc, true},
    {H::ExecutionTime, "execution time",
     C::StallBehavior, true, P::AddArc, false},

    {H::AlternateType, "alternate type",
     C::InstructionClass, false, P::Visitation, false},
    {H::FpuBusyTimes, "busy times for flt. pt. function units",
     C::InstructionClass, true, P::Visitation, false},

    {H::MaxPathToLeaf, "max path length to a leaf",
     C::CriticalPath, false, P::Backward, false},
    {H::MaxDelayToLeaf, "max total delay to a leaf",
     C::CriticalPath, true, P::Backward, false},
    {H::MaxPathFromRoot, "max path length from root",
     C::CriticalPath, false, P::Forward, false},
    {H::MaxDelayFromRoot, "max total delay from root",
     C::CriticalPath, true, P::Forward, false},
    {H::EarliestStartTime, "earliest start time (EST)",
     C::CriticalPath, true, P::Forward, true},
    {H::LatestStartTime, "latest start time (LST)",
     C::CriticalPath, true, P::Backward, true},
    {H::Slack, "slack (= LST-EST)",
     C::CriticalPath, true, P::ForwardBackward, true},

    {H::NumChildren, "#children",
     C::Uncovering, false, P::AddArc, true},
    {H::DelaysToChildren, "phi delays to children",
     C::Uncovering, true, P::AddArc, true},
    {H::NumSingleParentChildren, "#single-parent children",
     C::Uncovering, false, P::Visitation, false},
    {H::SumDelaysToSingleParentChildren,
     "sum of delays to single-parent children",
     C::Uncovering, true, P::Visitation, false},
    {H::NumUncoveredChildren, "#uncovered children",
     C::Uncovering, false, P::Visitation, false},

    {H::NumParents, "#parents",
     C::Structural, false, P::AddArc, true},
    {H::DelaysFromParents, "phi delays from parents",
     C::Structural, true, P::AddArc, true},
    {H::NumDescendants, "#descendants",
     C::Structural, false, P::Backward, false},
    {H::SumExecTimesOfDescendants,
     "sum of execution times of descendants",
     C::Structural, true, P::Backward, false},

    {H::RegistersBorn, "#registers born",
     C::RegisterUsage, false, P::AddArc, false},
    {H::RegistersKilled, "#registers killed",
     C::RegisterUsage, false, P::AddArc, false},
    {H::Liveness, "liveness",
     C::RegisterUsage, false, P::AddArc, false},
    {H::BirthingInstruction, "birthing instruction",
     C::RegisterUsage, false, P::AddArc, false},
}};

} // namespace

const HeuristicInfo &
heuristicInfo(Heuristic h)
{
    const auto &info = kTable[static_cast<std::size_t>(h)];
    SCHED91_ASSERT(info.heuristic == h, "table order mismatch");
    return info;
}

std::span<const HeuristicInfo>
allHeuristics()
{
    return kTable;
}

std::string_view
heuristicCategoryName(HeuristicCategory cat)
{
    switch (cat) {
      case HeuristicCategory::StallBehavior: return "stall behavior";
      case HeuristicCategory::InstructionClass: return "inst. class";
      case HeuristicCategory::CriticalPath: return "critical path";
      case HeuristicCategory::Uncovering: return "uncovering";
      case HeuristicCategory::Structural: return "structural";
      case HeuristicCategory::RegisterUsage: return "register usage";
    }
    return "?";
}

std::string_view
calcPassName(CalcPass pass)
{
    switch (pass) {
      case CalcPass::AddArc: return "a";
      case CalcPass::Forward: return "f";
      case CalcPass::Backward: return "b";
      case CalcPass::ForwardBackward: return "f+b";
      case CalcPass::Visitation: return "v";
    }
    return "?";
}

StaticColumn
staticColumn(const Dag &dag, Heuristic h, bool phiMax)
{
    const NodeAnnotations &a = dag.ann();
    switch (h) {
      case Heuristic::EarliestExecutionTime:
        return StaticColumn(a.earliestExecTime);
      case Heuristic::InterlockWithChild:
        return StaticColumn(a.interlockWithChild);
      case Heuristic::ExecutionTime: return StaticColumn(a.execTime);
      case Heuristic::AlternateType: return StaticColumn(a.altType);
      case Heuristic::MaxPathToLeaf: return StaticColumn(a.maxPathToLeaf);
      case Heuristic::MaxDelayToLeaf: return StaticColumn(a.maxDelayToLeaf);
      case Heuristic::MaxPathFromRoot:
        return StaticColumn(a.maxPathFromRoot);
      case Heuristic::MaxDelayFromRoot:
        return StaticColumn(a.maxDelayFromRoot);
      case Heuristic::EarliestStartTime: return StaticColumn(a.earliestStart);
      case Heuristic::LatestStartTime: return StaticColumn(a.latestStart);
      case Heuristic::Slack: return StaticColumn(a.slack);
      case Heuristic::NumChildren: return StaticColumn(dag.childCounts());
      case Heuristic::DelaysToChildren:
        return StaticColumn(phiMax ? a.maxDelayToChild
                                   : a.sumDelaysToChildren);
      case Heuristic::NumParents: return StaticColumn(dag.parentCounts());
      case Heuristic::DelaysFromParents:
        return StaticColumn(phiMax ? a.maxDelayFromParents
                                   : a.sumDelaysFromParents);
      case Heuristic::NumDescendants: return StaticColumn(a.numDescendants);
      case Heuristic::SumExecTimesOfDescendants:
        return StaticColumn(a.sumExecOfDescendants);
      case Heuristic::RegistersBorn: return StaticColumn(a.regsBorn);
      case Heuristic::RegistersKilled: return StaticColumn(a.regsKilled);
      case Heuristic::Liveness: return StaticColumn(a.liveness);
      case Heuristic::BirthingInstruction:
        return StaticColumn(a.priorityBoost);
      default:
        // InterlockWithPrevious, FpuBusyTimes and the uncovering counts
        // are the scheduler's to evaluate.
        return {};
    }
}

long long
staticValue(const Dag &dag, std::uint32_t n, Heuristic h)
{
    return staticColumn(dag, h).at(n);
}

long long
staticValueMax(const Dag &dag, std::uint32_t n, Heuristic h)
{
    return staticColumn(dag, h, true).at(n);
}

} // namespace sched91
