#include "sched/verifier.hh"

#include <algorithm>
#include <sstream>

#include "support/worker_context.hh"

namespace sched91
{

namespace
{

/** Stop collecting after this many reasons; one is enough to reject
 * and a corrupted permutation could otherwise produce thousands. */
constexpr std::size_t kMaxReasons = 8;

void
fail(VerifyResult &r, std::string reason)
{
    if (r.reasons.size() < kMaxReasons)
        r.reasons.push_back(std::move(reason));
}

template <typename... Args>
std::string
concat(const Args &...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

/**
 * Fill pos[node] = schedule position.  Returns false (with reasons)
 * unless @p order is a permutation of [0, dag.size()).
 */
bool
buildPositions(const Dag &dag, const std::vector<std::uint32_t> &order,
               std::vector<int> &pos, VerifyResult &r)
{
    if (order.size() != dag.size()) {
        fail(r, concat("order covers ", order.size(), " of ",
                       dag.size(), " nodes"));
        return false;
    }
    pos.assign(dag.size(), -1);
    bool ok = true;
    for (std::uint32_t p = 0; p < order.size(); ++p) {
        std::uint32_t n = order[p];
        if (n >= dag.size()) {
            fail(r, concat("position ", p, " names node ", n,
                           " outside the block"));
            ok = false;
            continue;
        }
        if (pos[n] != -1) {
            fail(r, concat("node ", n, " scheduled twice (positions ",
                           pos[n], " and ", p, ")"));
            ok = false;
            continue;
        }
        pos[n] = static_cast<int>(p);
    }
    return ok;
}

/** The block-ending control transfer, or none. */
bool
blockEndsInControl(const Dag &dag)
{
    if (dag.size() == 0)
        return false;
    const Instruction *tail = dag.instPtr(dag.size() - 1);
    return tail != nullptr && tail->endsBlock();
}

/** Is this arc the advisory control anchor into the final branch? */
bool
isBranchAnchor(const Dag &dag, const Arc &arc)
{
    return arc.kind == DepKind::CTRL && arc.to == dag.size() - 1 &&
           blockEndsInControl(dag);
}

} // namespace

std::string
VerifyResult::summary() const
{
    if (reasons.empty())
        return "ok";
    std::string out;
    for (const std::string &reason : reasons) {
        if (!out.empty())
            out += "; ";
        out += reason;
    }
    return out;
}

VerifyResult
verifySchedule(const Dag &dag, const Schedule &sched,
               const MachineModel &machine, const VerifyOptions &opts)
{
    (void)machine; // reserved for future structural checks
    VerifyResult r;

    // 1. Permutation.  A lane's positions keep their capacity.
    WorkerContext *wc = WorkerContext::current();
    std::vector<int> local_pos;
    std::vector<int> &pos = wc ? wc->schedPos : local_pos;
    if (!buildPositions(dag, sched.order, pos, r))
        return r; // positions unusable; later checks would lie

    // 2. Precedence: every arc points forward in the order.  In
    // delay-slot mode the advisory control anchors into the final
    // branch are exempt (the filler legally moves past the branch).
    for (const Arc &arc : dag.arcs()) {
        if (opts.allowDelaySlot && isBranchAnchor(dag, arc))
            continue;
        if (pos[arc.from] >= pos[arc.to])
            fail(r, concat("arc ", arc.from, " -> ", arc.to, " (",
                           depKindName(arc.kind), ", delay ",
                           arc.delay, ") runs backward: positions ",
                           pos[arc.from], " >= ", pos[arc.to]));
    }

    // 3. Branch placement.
    if (opts.requireBranchLast && blockEndsInControl(dag)) {
        const std::uint32_t branch = dag.size() - 1;
        const int last = static_cast<int>(dag.size()) - 1;
        if (opts.allowDelaySlot) {
            if (pos[branch] < last - 1)
                fail(r, concat("block-ending control transfer at "
                               "position ",
                               pos[branch], " leaves more than one "
                               "delay-slot instruction behind it"));
        } else if (pos[branch] != last) {
            fail(r, concat("block-ending control transfer scheduled "
                           "at position ",
                           pos[branch], ", not last (", last, ")"));
        }
    }

    // 4. Timing claims.  An all-zero issueCycle vector is "no claim"
    // (originalOrderSchedule); a real fillTiming vector is strictly
    // increasing, so the two cannot be confused for blocks >= 2.
    const std::vector<int> &cyc = sched.issueCycle;
    bool claims_timing =
        opts.checkTiming && cyc.size() == sched.order.size() &&
        !cyc.empty() &&
        std::any_of(cyc.begin(), cyc.end(),
                    [](int c) { return c != 0; });
    if (claims_timing) {
        for (std::size_t p = 1; p < cyc.size(); ++p)
            if (cyc[p] < cyc[p - 1])
                fail(r, concat("issue cycles not monotone: position ",
                               p, " issues at ", cyc[p],
                               " after cycle ", cyc[p - 1]));
        for (const Arc &arc : dag.arcs()) {
            if (opts.allowDelaySlot && isBranchAnchor(dag, arc))
                continue;
            if (pos[arc.from] >= pos[arc.to])
                continue; // already reported as a precedence failure
            int from_cyc = cyc[static_cast<std::size_t>(pos[arc.from])];
            int to_cyc = cyc[static_cast<std::size_t>(pos[arc.to])];
            if (to_cyc < from_cyc + arc.delay)
                fail(r, concat("arc ", arc.from, " -> ", arc.to,
                               " latency violated: issue ", to_cyc,
                               " < ", from_cyc, " + ", arc.delay));
        }
    }

    return r;
}

VerifyResult
verifyReservation(const Dag &dag, const ReservationResult &res,
                  const MachineModel &machine)
{
    VerifyResult r;

    std::vector<int> pos;
    if (!buildPositions(dag, res.sched.order, pos, r))
        return r;

    if (res.cycle.size() != dag.size()) {
        fail(r, concat("placement cycles cover ", res.cycle.size(),
                       " of ", dag.size(), " nodes"));
        return r;
    }

    // Precedence and latency on placement cycles.
    for (const Arc &arc : dag.arcs())
        if (res.cycle[arc.to] < res.cycle[arc.from] + arc.delay)
            fail(r, concat("arc ", arc.from, " -> ", arc.to,
                           " latency violated: cycle ",
                           res.cycle[arc.to], " < ",
                           res.cycle[arc.from], " + ", arc.delay));

    // Reservation conflicts: replay every pattern into a fresh table.
    ReservationTable table(machine);
    const ReservationPatterns patterns = reservationPatterns(machine);
    for (std::uint32_t n : res.sched.order) {
        const Instruction *inst = dag.instPtr(n);
        if (inst == nullptr)
            continue;
        const std::vector<FuUse> &pattern =
            patterns[static_cast<std::size_t>(inst->cls())];
        int start = res.cycle[n];
        if (!table.fits(pattern, start)) {
            fail(r, concat("node ", n, " reservation pattern conflicts "
                           "at cycle ",
                           start));
            continue;
        }
        table.place(pattern, start);
    }

    return r;
}

} // namespace sched91
