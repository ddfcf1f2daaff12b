/**
 * @file
 * Memoized sweep chunk plans for expectationBatchSweep. Bucketing a
 * Hamiltonian by X-mask and flattening the buckets into 4-lane chunks
 * is cheap once, but GA and shot loops evaluate the same Hamiltonian
 * tens of thousands of times — so the plan is cached per content hash.
 */

#include "sim/lane_sweep.hpp"

#include "common/lru.hpp"

namespace eftvqa {
namespace detail {

namespace {

using PlanPtr = std::shared_ptr<const std::vector<SweepChunk>>;

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
    auto plan = std::make_shared<std::vector<SweepChunk>>();
    const auto groups = groupByXMask(h);
    for (const auto &group : groups) {
        const size_t nt = group.term_indices.size();
        for (size_t c0 = 0; c0 < nt; c0 += 4) {
            // Partial chunks round up to the next lane count with a
            // zero mask in the spare lanes.
            SweepChunk c{group.x_mask, std::min<size_t>(4, nt - c0),
                         {0, 0, 0, 0}, {0, 0, 0, 0}};
            for (size_t k = 0; k < c.lanes; ++k) {
                const size_t t = group.term_indices[c0 + k];
                const auto &zw = terms[t].op.zWords();
                c.z[k] = zw.empty() ? 0 : zw[0];
                c.term[k] = t;
            }
            plan->push_back(c);
        }
    }
    return plan;
}

} // namespace

std::shared_ptr<const std::vector<SweepChunk>>
sweepChunkPlan(const Hamiltonian &h)
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

} // namespace detail
} // namespace eftvqa
