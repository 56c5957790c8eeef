#include "wmc/component_cache.h"

#include <utility>

namespace swfomc::wmc {

std::uint64_t HashComponentKey(const ComponentKey& key) {
  std::uint64_t hash = ComponentHashInit();
  for (std::uint32_t word : key) hash = ComponentHashStep(hash, word);
  return ComponentHashFinalize(hash);
}

ComponentCache::ComponentCache(std::size_t max_entries, std::size_t max_bytes)
    : max_entries_(max_entries), max_bytes_(max_bytes) {}

void ComponentCache::EvictOldest() {
  // Skip slots orphaned by in-place replacements: a replaced entry's old
  // slot stays in the queue with a stale token, and only the slot whose
  // token still matches the live entry names an actual victim.
  while (true) {
    const OrderSlot slot = insertion_order_.front();
    insertion_order_.pop_front();
    auto victim = entries_.find(slot.hash);
    if (victim == entries_.end() || victim->second.token != slot.token) {
      continue;
    }
    bytes_ -= victim->second.bytes();
    entries_.erase(victim);
    ++evictions_;
    return;
  }
}

void ComponentCache::CompactOrderQueue() {
  if (insertion_order_.size() <= 2 * entries_.size() + 16) return;
  std::deque<OrderSlot> live;
  for (const OrderSlot& slot : insertion_order_) {
    auto it = entries_.find(slot.hash);
    if (it != entries_.end() && it->second.token == slot.token) {
      live.push_back(slot);
    }
  }
  insertion_order_ = std::move(live);
}

void ComponentCache::Insert(ComponentKey key, std::uint64_t hash,
                            numeric::BigInt value, TraceSink::NodeId node) {
  if (max_entries_ == 0 || max_bytes_ == 0) return;
  std::size_t entry_bytes = EntryBytes(key, value);
  // A single entry bigger than the whole byte bound would force evicting
  // everything else just to hold it; skip it instead.
  if (entry_bytes > max_bytes_) return;
  ++insertions_;
  auto it = entries_.find(hash);
  if (it != entries_.end()) {
    // Hash collision with a different key (Lookup missed), or a repeat
    // insert of the same key: keep the fresh entry. Same-key replacement
    // stores the identical value — counts are determined by their keys —
    // so this is benign either way. The refresh re-enqueues
    // the entry at the back of the eviction order: it is the newest entry
    // now, and the overflow loop below must victimize the *oldest* ones,
    // never the entry this very call just paid to store.
    bytes_ -= it->second.bytes();
    std::uint64_t token = ++next_token_;
    it->second =
        Entry{std::move(key), CachedCount{std::move(value), node}, token};
    bytes_ += entry_bytes;
    insertion_order_.push_back(OrderSlot{hash, token});
    CompactOrderQueue();
    while (bytes_ > max_bytes_) EvictOldest();
    return;
  }
  while (entries_.size() >= max_entries_ ||
         (!entries_.empty() && bytes_ + entry_bytes > max_bytes_)) {
    EvictOldest();
  }
  std::uint64_t token = ++next_token_;
  insertion_order_.push_back(OrderSlot{hash, token});
  entries_.emplace(
      hash, Entry{std::move(key), CachedCount{std::move(value), node}, token});
  bytes_ += entry_bytes;
}

}  // namespace swfomc::wmc
