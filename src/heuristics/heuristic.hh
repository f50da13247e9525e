/**
 * @file
 * The 26 instruction scheduling heuristics surveyed in Table 1 of the
 * paper, as a programmatic metadata table: category, relationship- vs
 * timing-based, calculation pass ("a" = at add-arc/add-node time,
 * "f" = forward pass, "b" = backward pass, "f+b" = both, "v" = node
 * visitation during scheduling), and whether the table marks the
 * heuristic's calculation as affected by transitive arcs ("**").
 */

#ifndef SCHED91_HEURISTICS_HEURISTIC_HH
#define SCHED91_HEURISTICS_HEURISTIC_HH

#include <cstdint>
#include <span>
#include <string_view>

#include "dag/dag.hh"

namespace sched91
{

/** All heuristics of Table 1, in table order. */
enum class Heuristic : std::uint8_t {
    // stall behavior
    InterlockWithPrevious,
    EarliestExecutionTime,
    InterlockWithChild,
    ExecutionTime,
    // instruction class
    AlternateType,
    FpuBusyTimes,
    // critical path
    MaxPathToLeaf,
    MaxDelayToLeaf,
    MaxPathFromRoot,
    MaxDelayFromRoot,
    EarliestStartTime,
    LatestStartTime,
    Slack,
    // uncovering
    NumChildren,
    DelaysToChildren,            ///< phi(sum or max) delays to children
    NumSingleParentChildren,
    SumDelaysToSingleParentChildren,
    NumUncoveredChildren,
    // structural
    NumParents,
    DelaysFromParents,           ///< phi(sum or max) delays from parents
    NumDescendants,
    SumExecTimesOfDescendants,
    // register usage
    RegistersBorn,
    RegistersKilled,
    Liveness,
    BirthingInstruction,
    kNumHeuristics,
};

constexpr int kNumHeuristics = static_cast<int>(Heuristic::kNumHeuristics);

/** Table 1's six broad categories. */
enum class HeuristicCategory : std::uint8_t {
    StallBehavior,
    InstructionClass,
    CriticalPath,
    Uncovering,
    Structural,
    RegisterUsage,
};

/** How / when a heuristic can be calculated (Table 1 legend). */
enum class CalcPass : std::uint8_t {
    AddArc,          ///< "a": during DAG construction
    Forward,         ///< "f": forward pass over the block
    Backward,        ///< "b": backward pass over the block
    ForwardBackward, ///< "f+b": both passes (slack)
    Visitation,      ///< "v": node visitation during scheduling
};

/** Static description of one heuristic (one Table 1 row entry). */
struct HeuristicInfo
{
    Heuristic heuristic;
    const char *name;
    HeuristicCategory category;
    bool timingBased;          ///< timing column vs relationship column
    CalcPass pass;
    bool transitiveSensitive;  ///< "**" in Table 1
};

/** Metadata for one heuristic. */
const HeuristicInfo &heuristicInfo(Heuristic h);

/** The full table, in Table 1 order. */
std::span<const HeuristicInfo> allHeuristics();

/** Category display name. */
std::string_view heuristicCategoryName(HeuristicCategory cat);

/** Pass legend letter ("a", "f", "b", "f+b", "v"). */
std::string_view calcPassName(CalcPass pass);

/**
 * Value of a *static* heuristic from node @p n's annotation slots, as
 * filled by DAG construction and the static passes.  Dynamic ("v")
 * heuristics are evaluated by the scheduler (see heuristics/
 * dynamic.hh); querying one here returns the value of its
 * scheduling-state slot when meaningful (e.g. EarliestExecutionTime)
 * and 0 otherwise.
 *
 * For the phi heuristics this returns the sum form; staticValueMax()
 * returns the max form.
 */
long long staticValue(const Dag &dag, std::uint32_t n, Heuristic h);

/** phi = max variant for DelaysToChildren / DelaysFromParents. */
long long staticValueMax(const Dag &dag, std::uint32_t n, Heuristic h);

/**
 * Where staticValue() reads one heuristic for every node of a DAG: an
 * annotation array (or the DAG's child or parent counts), or nothing
 * for a heuristic that reads 0.  A caller that reads many nodes takes
 * the column once instead of switching on the heuristic per node.
 */
class StaticColumn
{
  public:
    StaticColumn() = default;
    explicit StaticColumn(std::span<const int> v)
        : kind_(Int), data_(v.data())
    {
    }
    explicit StaticColumn(std::span<const std::uint8_t> v)
        : kind_(Byte), data_(v.data())
    {
    }
    explicit StaticColumn(std::span<const long long> v)
        : kind_(Wide), data_(v.data())
    {
    }
    explicit StaticColumn(std::span<const double> v)
        : kind_(Real), data_(v.data())
    {
    }

    /** Node @p n's value: staticValue()'s. */
    long long
    at(std::uint32_t n) const
    {
        switch (kind_) {
          case Int: return static_cast<const int *>(data_)[n];
          case Byte: return static_cast<const std::uint8_t *>(data_)[n];
          case Wide: return static_cast<const long long *>(data_)[n];
          case Real:
            return static_cast<long long>(
                static_cast<const double *>(data_)[n]);
          case Zero: break;
        }
        return 0;
    }

  private:
    enum Kind : std::uint8_t { Zero, Int, Byte, Wide, Real };
    Kind kind_ = Zero;
    const void *data_ = nullptr;
};

/** The column staticValue() reads @p h from, or with @p phiMax
 * staticValueMax(). */
StaticColumn staticColumn(const Dag &dag, Heuristic h, bool phiMax = false);

} // namespace sched91

#endif // SCHED91_HEURISTICS_HEURISTIC_HH
