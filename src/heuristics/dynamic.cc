#include "heuristics/dynamic.hh"

#include <algorithm>

namespace sched91
{

void
initDynamicState(Dag &dag)
{
    NodeAnnotations &a = dag.ann();
    for (std::uint32_t i = 0; i < dag.size(); ++i) {
        a.earliestExecTime[i] = a.inheritedEet[i];
        a.unscheduledParents[i] = dag.numParents(i);
        a.unscheduledChildren[i] = dag.numChildren(i);
        a.priorityBoost[i] = 0.0;
        a.scheduled[i] = 0;
    }
}

int
numSingleParentChildren(const Dag &dag, std::uint32_t n)
{
    const int *unsched_parents = dag.ann().unscheduledParents.data();
    int count = 0;
    for (std::uint32_t c : dag.succTo(n))
        count += unsched_parents[c] == 1;
    return count;
}

int
sumDelaysToSingleParentChildren(const Dag &dag, std::uint32_t n)
{
    const int *unsched_parents = dag.ann().unscheduledParents.data();
    std::span<const std::uint32_t> to = dag.succTo(n);
    std::span<const std::int32_t> delay = dag.succDelay(n);
    int sum = 0;
    for (std::size_t k = 0; k < to.size(); ++k)
        if (unsched_parents[to[k]] == 1)
            sum += delay[k];
    return sum;
}

int
numUncoveredChildren(const Dag &dag, std::uint32_t n)
{
    const int *unsched_parents = dag.ann().unscheduledParents.data();
    std::span<const std::uint32_t> to = dag.succTo(n);
    std::span<const std::int32_t> delay = dag.succDelay(n);
    int count = 0;
    for (std::size_t k = 0; k < to.size(); ++k)
        count += delay[k] == 1 && unsched_parents[to[k]] == 1;
    return count;
}

bool
interlocksWithPrevious(const Dag &dag, std::uint32_t candidate,
                       std::int64_t last_scheduled)
{
    if (last_scheduled < 0)
        return false;
    std::span<const std::uint32_t> from = dag.predFrom(candidate);
    std::span<const std::int32_t> delay = dag.predDelay(candidate);
    for (std::size_t k = 0; k < from.size(); ++k) {
        if (from[k] == static_cast<std::uint32_t>(last_scheduled) &&
            delay[k] > 1) {
            return true;
        }
    }
    return false;
}

std::size_t
onScheduledForward(Dag &dag, std::uint32_t n, int issue_time)
{
    NodeAnnotations &a = dag.ann();
    a.scheduled[n] = 1;
    std::span<const std::uint32_t> to = dag.succTo(n);
    std::span<const std::int32_t> delay = dag.succDelay(n);
    int *unsched_parents = a.unscheduledParents.data();
    int *eet = a.earliestExecTime.data();
    for (std::size_t k = 0; k < to.size(); ++k) {
        std::uint32_t c = to[k];
        --unsched_parents[c];
        eet[c] = std::max(eet[c], issue_time + delay[k]);
    }
    return to.size();
}

std::size_t
onScheduledBackward(Dag &dag, std::uint32_t n, bool birthing,
                    double birthing_boost)
{
    NodeAnnotations &a = dag.ann();
    a.scheduled[n] = 1;
    std::span<const std::uint32_t> from = dag.predFrom(n);
    std::span<const DepKind> kind = dag.predKind(n);
    int *unsched_children = a.unscheduledChildren.data();
    double *boost = a.priorityBoost.data();
    for (std::size_t k = 0; k < from.size(); ++k) {
        std::uint32_t p = from[k];
        --unsched_children[p];
        if (birthing && kind[k] == DepKind::RAW)
            boost[p] += birthing_boost;
    }
    return from.size();
}

} // namespace sched91
