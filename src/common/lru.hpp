/**
 * @file
 * The one LRU cache of the stack: a thread-safe, capacity-bounded map
 * from 64-bit content keys to values. It has two instances: the
 * energy cache (SharedEnergyCache, vqa/estimation.hpp) and the sweep
 * group-plan memo (sim/lane_sweep.cpp). Every key is a content hash of
 * whatever the value was computed from, so a resident entry is always
 * interchangeable with recomputation — which is why a racing insert
 * may keep the first writer's value and why eviction never changes
 * results.
 */

#ifndef EFTVQA_COMMON_LRU_HPP
#define EFTVQA_COMMON_LRU_HPP

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace eftvqa {

template <typename V>
class LruCache
{
  public:
    /** @p capacity entries; must be > 0 (a cache with no storage would
     *  miss on every lookup — hold no cache instead of zeroing one). */
    explicit LruCache(size_t capacity) : capacity_(capacity)
    {
        if (capacity == 0)
            throw std::invalid_argument(
                "LruCache.capacity: must be > 0 (a cache with no storage "
                "would miss on every lookup; drop the cache instead of "
                "zeroing it)");
    }

    /** A copy of the entry for @p key, which becomes the most recently
     *  used; counts one hit or one miss. */
    std::optional<V> find(uint64_t key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = index_.find(key);
        if (it == index_.end()) {
            ++misses_;
            return std::nullopt;
        }
        lru_.splice(lru_.begin(), lru_, it->second);
        ++hits_;
        return it->second->second;
    }

    /**
     * Insert @p value under @p key, evicting the least recently used
     * entry past capacity. First writer wins: a key that is already
     * resident keeps its value and its place. Returns the resident
     * value — the caller's on a fresh insert, the earlier writer's when
     * the key raced in — so every caller ends up holding the canonical
     * entry.
     */
    V insert(uint64_t key, V value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = index_.find(key);
        if (it != index_.end())
            return it->second->second;
        lru_.emplace_front(key, std::move(value));
        index_.emplace(key, lru_.begin());
        if (lru_.size() > capacity_) {
            index_.erase(lru_.back().first);
            lru_.pop_back();
        }
        return lru_.front().second;
    }

    size_t hits() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hits_;
    }

    size_t misses() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return misses_;
    }

    size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return lru_.size();
    }

    size_t capacity() const { return capacity_; }

    /** Drop every entry (counters survive). */
    void clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        lru_.clear();
        index_.clear();
    }

  private:
    using Entry = std::pair<uint64_t, V>;

    mutable std::mutex mutex_;
    const size_t capacity_;
    std::list<Entry> lru_; ///< front = most recently used
    std::unordered_map<uint64_t, typename std::list<Entry>::iterator>
        index_;
    size_t hits_ = 0;
    size_t misses_ = 0;
};

} // namespace eftvqa

#endif // EFTVQA_COMMON_LRU_HPP
