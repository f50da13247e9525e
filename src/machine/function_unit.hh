/**
 * @file
 * Function-unit occupancy tracking (resource reservation).
 *
 * Supports the "busy times for floating point function units" dynamic
 * heuristic of Table 1 and the structural-hazard component of the
 * pipeline simulator: non-pipelined units (FP divide/sqrt, integer
 * multiply/divide) stay busy for their full latency.
 */

#ifndef SCHED91_MACHINE_FUNCTION_UNIT_HH
#define SCHED91_MACHINE_FUNCTION_UNIT_HH

#include <array>
#include <span>
#include <vector>

#include "machine/machine_model.hh"

namespace sched91
{

/** Busy-until times for every function-unit pool of a machine. */
class FuState
{
  public:
    explicit FuState(const MachineModel &machine);

    /** Forget all occupancy. */
    void reset();

    /**
     * Earliest cycle >= @p now at which some unit of @p kind can accept
     * a new operation.
     */
    int earliestFree(FuKind kind, int now) const;

    /**
     * Record that an operation of class @p cls starts at @p start,
     * occupying its unit for the machine-defined busy time.  Picks the
     * unit in the pool that frees soonest.
     */
    void occupy(InstClass cls, int start);

    /** occupy() with the class's unit and busy time looked up already:
     * a unit of @p kind takes an operation at @p start for @p busy
     * cycles. */
    void occupy(FuKind kind, int start, int busy);

    /** Busy-until time of the most-loaded unit of @p kind. */
    int maxBusyUntil(FuKind kind) const;

  private:
    /** Machines with at most this many units keep them inline, so a
     * state (or a search-state snapshot) allocates nothing. */
    static constexpr int kInlineUnits = 16;

    /** Busy-until times, one entry per unit, pool after pool. */
    int *
    busyUntil()
    {
        return spilled_.empty() ? inline_.data() : spilled_.data();
    }
    const int *
    busyUntil() const
    {
        return spilled_.empty() ? inline_.data() : spilled_.data();
    }
    std::span<const int> pool(FuKind kind) const;

    /** Non-owning; FuState stays copyable for search-state snapshots. */
    const MachineModel *machine_;
    /** Pool k is busyUntil()[first_[k], first_[k + 1]). */
    std::array<int, kNumFuKinds + 1> first_{};
    std::array<int, kInlineUnits> inline_{};
    std::vector<int> spilled_; ///< the units, past kInlineUnits
};

} // namespace sched91

#endif // SCHED91_MACHINE_FUNCTION_UNIT_HH
