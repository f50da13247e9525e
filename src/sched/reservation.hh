/**
 * @file
 * Resource-reservation-table scheduling (paper Section 1).
 *
 * "A more refined form of scheduling uses an explicit resource
 * reservation table and is more popular for use with processors
 * having a large number of multi-cycle instructions or multiple
 * resource usage instructions.  This latter approach always inserts
 * the 'highest priority' instruction into the earliest empty slots of
 * the table; that is, an instruction is an aggregate structure
 * represented by blocks of busy cycles for one or more function
 * units, and scheduling involves pattern matching these blocks into a
 * partially-filled reservation table as well as considering operand
 * dependencies."
 *
 * Each instruction class maps to a reservation pattern — a set of
 * (function unit, start offset, duration) blocks (e.g. a load uses
 * the integer ALU for address generation in its first cycle and the
 * memory port in its second; a divide holds the non-pipelined divider
 * for its full latency).  The scheduler repeatedly takes the
 * highest-priority instruction whose parents are placed and pattern-
 * matches it into the earliest feasible cycle, which — unlike list
 * scheduling — can back-fill holes left earlier in the table.
 */

#ifndef SCHED91_SCHED_RESERVATION_HH
#define SCHED91_SCHED_RESERVATION_HH

#include <array>
#include <cstdint>
#include <vector>

#include "dag/dag.hh"
#include "machine/machine_model.hh"
#include "sched/schedule.hh"

namespace sched91
{

/** One busy block of a reservation pattern. */
struct FuUse
{
    FuKind fu;
    int start;    ///< offset from issue, cycles
    int duration; ///< busy cycles
};

/** Reservation pattern (busy blocks) for an instruction class. */
std::vector<FuUse> reservationPattern(const MachineModel &machine,
                                      InstClass cls);

/** Every instruction class's reservationPattern(), indexed by class:
 * made once per run, looked up per node. */
using ReservationPatterns =
    std::array<std::vector<FuUse>,
               static_cast<std::size_t>(InstClass::kNumClasses)>;
ReservationPatterns reservationPatterns(const MachineModel &machine);

/** A partially filled reservation table. */
class ReservationTable
{
  public:
    explicit ReservationTable(const MachineModel &machine);

    /** Can @p pattern be placed with issue cycle @p start? */
    bool fits(const std::vector<FuUse> &pattern, int start) const;

    /** Occupy the table for @p pattern issued at @p start. */
    void place(const std::vector<FuUse> &pattern, int start);

    /** Earliest cycle >= @p from at which @p pattern fits. */
    int earliestFit(const std::vector<FuUse> &pattern, int from) const;

  private:
    bool busy(FuKind fu, int cycle) const;
    void setBusy(FuKind fu, int cycle);

    const MachineModel &machine_;
    /** busy_[fu][cycle] = units of that pool in use. */
    std::vector<std::vector<int>> busy_;
};

/** Result of reservation scheduling. */
struct ReservationResult
{
    Schedule sched;          ///< order sorted by placement cycle
    std::vector<int> cycle;  ///< placement cycle per block node id
    int makespan = 0;        ///< max placement + latency
};

/**
 * Schedule @p dag by reservation-table insertion, prioritized by
 * maximum delay to a leaf (critical path first).  Static annotations
 * must be computed (runAllStaticPasses).
 */
ReservationResult scheduleWithReservationTable(Dag &dag,
                                               const MachineModel &machine);

} // namespace sched91

#endif // SCHED91_SCHED_RESERVATION_HH
