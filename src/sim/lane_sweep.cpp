/**
 * @file
 * Memoized X-mask group plans for expectationBatchSweep, and the
 * per-thread sweep scratch. Bucketing a Hamiltonian by X-mask is cheap
 * once, but GA and shot loops evaluate the same Hamiltonian tens of
 * thousands of times — so the plan is cached per content hash.
 */

#include "sim/lane_sweep.hpp"

#include "common/lru.hpp"
#include "pauli/term_groups.hpp"

namespace eftvqa {
namespace detail {

namespace {

using PlanPtr = std::shared_ptr<const SweepPlan>;

constexpr size_t kPlanCacheCap = 64;

LruCache<PlanPtr> &
planMemo()
{
    static LruCache<PlanPtr> memo(kPlanCacheCap);
    return memo;
}

PlanPtr
buildPlan(const Hamiltonian &h)
{
    const auto &terms = h.terms();
    auto plan = std::make_shared<SweepPlan>();
    plan->begin.push_back(0);
    for (const auto &group : groupByXMask(h)) {
        plan->x.push_back(group.x_mask);
        for (const size_t t : group.term_indices) {
            const auto &zw = terms[t].op.zWords();
            plan->z.push_back(zw.empty() ? 0 : zw[0]);
            plan->term.push_back(t);
            plan->phase.push_back(terms[t].op.phase());
        }
        plan->begin.push_back(plan->z.size());
        plan->max_group =
            std::max(plan->max_group, group.term_indices.size());
    }
    return plan;
}

} // namespace

std::shared_ptr<const SweepPlan>
sweepPlan(const Hamiltonian &h)
{
    const uint64_t key = h.contentHash();
    if (auto plan = planMemo().find(key))
        return *plan;
    // Build outside the lock: plans are deterministic, so two threads
    // racing on the same key produce interchangeable results.
    return planMemo().insert(key, buildPlan(h));
}

uint64_t
sweepPlanCacheHits()
{
    return planMemo().hits();
}

uint64_t
sweepPlanCacheMisses()
{
    return planMemo().misses();
}

SweepScratch &
sweepScratch()
{
    thread_local SweepScratch scratch;
    return scratch;
}

} // namespace detail
} // namespace eftvqa
