#ifndef SWFOMC_WMC_COMPONENT_CACHE_H_
#define SWFOMC_WMC_COMPONENT_CACHE_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "numeric/bigint.h"
#include "wmc/trace.h"

namespace swfomc::wmc {

/// Packed signature of a residual component: the free (unassigned)
/// compact literals of each active clause, clauses in ascending id order,
/// each clause terminated by kComponentKeySeparator. Literals use global
/// variable ids, so equal keys imply equal residual formulas *and* equal
/// weight vectors — a key determines its weighted count.
using ComponentKey = std::vector<std::uint32_t>;

inline constexpr std::uint32_t kComponentKeySeparator = 0xFFFFFFFFu;

/// Incremental FNV-1a over 32-bit words with a splitmix64 finalizer;
/// exposed stepwise so signatures can be hashed while they are packed.
inline constexpr std::uint64_t ComponentHashInit() {
  return 0xcbf29ce484222325ull;  // FNV offset basis
}
inline constexpr std::uint64_t ComponentHashStep(std::uint64_t hash,
                                                 std::uint32_t word) {
  return (hash ^ word) * 0x100000001b3ull;  // FNV prime
}
inline constexpr std::uint64_t ComponentHashFinalize(std::uint64_t hash) {
  hash ^= hash >> 30;
  hash *= 0xbf58476d1ce4e5b9ull;
  hash ^= hash >> 27;
  hash *= 0x94d049bb133111ebull;
  hash ^= hash >> 31;
  return hash;
}

/// 64-bit hash of a packed signature.
std::uint64_t HashComponentKey(const ComponentKey& key);

/// The DPLL counter's component memo: a hashed table from packed
/// component keys to their counts and, while tracing, the circuit node
/// each count was first emitted as. Entries are addressed by the 64-bit
/// hash, the packed key is stored alongside to resolve collisions
/// exactly, and both the entry count and the resident bytes may be
/// bounded — inserting past either bound evicts the oldest entries (FIFO
/// over *insertion or refresh* time: an entry replaced in place counts as
/// fresh and moves to the back of the eviction queue, so a just-refreshed
/// entry can never be evicted by its own insertion's overflow handling).
/// A tracing counter leaves both bounds open, so its hits always resolve
/// to a node. Unsynchronized: each DpllCounter owns one.
///
/// Byte accounting covers what the cache actually owns per entry: the
/// packed key's word buffer, the BigInt payload's limb buffer, and a
/// fixed per-entry overhead estimate for the map node + deque slot. An
/// entry larger than the whole byte bound on its own is not inserted
/// (evicting everything to fit one giant entry would destroy the cache's
/// purpose).
///
/// Counter invariants (asserted by the stress tests):
///   hits + collisions <= lookups, evictions <= insertions,
///   size() <= insertions - evictions (replacement inserts keep size flat).
class ComponentCache {
 public:
  /// What an entry memoizes: the component's count, and its circuit node
  /// (TraceSink::kNoNode when the counter is not tracing).
  struct CachedCount {
    numeric::BigInt value;
    TraceSink::NodeId node = TraceSink::kNoNode;
  };

  static constexpr std::size_t kUnbounded = ~std::size_t{0};
  /// Estimated fixed cost of one entry beyond its variable-size buffers:
  /// the unordered_map node (hash key, key + CachedCount + refresh token,
  /// bucket link) plus the insertion-order slot (hash + refresh token).
  static constexpr std::size_t kEntryOverheadBytes =
      sizeof(std::uint64_t) * 3 + sizeof(void*) * 2 + sizeof(ComponentKey) +
      sizeof(CachedCount) + sizeof(std::uint64_t);

  explicit ComponentCache(std::size_t max_entries,
                          std::size_t max_bytes = kUnbounded);

  /// Returns the entry for `key`, or nullptr on a miss. A hash match with
  /// a different stored key counts as a collision and a miss. The pointer
  /// is valid until the next Insert. Defined inline: this is the hottest
  /// call in the whole counter (~1 probe per search node).
  const CachedCount* Lookup(const ComponentKey& key, std::uint64_t hash) {
    ++lookups_;
    auto it = entries_.find(hash);
    if (it == entries_.end()) return nullptr;
    if (it->second.key != key) {
      ++collisions_;
      return nullptr;
    }
    ++hits_;
    return &it->second.count;
  }
  void Insert(ComponentKey key, std::uint64_t hash, numeric::BigInt value,
              TraceSink::NodeId node = TraceSink::kNoNode);
  /// Drops every entry and zeroes every counter; the bounds stay.
  void Clear() { *this = ComponentCache(max_entries_, max_bytes_); }

  std::size_t size() const { return entries_.size(); }
  /// Resident bytes currently accounted to entries (keys + integer limb
  /// buffers + per-entry overhead).
  std::size_t bytes() const { return bytes_; }
  std::size_t max_bytes() const { return max_bytes_; }
  std::uint64_t lookups() const { return lookups_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t collisions() const { return collisions_; }
  std::uint64_t insertions() const { return insertions_; }
  std::uint64_t evictions() const { return evictions_; }

  /// Bytes accounted to one (key, value) pair if it were an entry. Stored
  /// keys and values never change, so removal recomputes the same figure.
  static std::size_t EntryBytes(const ComponentKey& key,
                                const numeric::BigInt& value) {
    return key.capacity() * sizeof(std::uint32_t) + value.HeapBytes() +
           kEntryOverheadBytes;
  }

 private:
  struct Entry {
    ComponentKey key;
    CachedCount count;
    /// Matches exactly one insertion_order_ slot; a replacement bumps the
    /// token and enqueues a fresh slot, orphaning the old one.
    std::uint64_t token;

    std::size_t bytes() const { return EntryBytes(key, count.value); }
  };

  struct OrderSlot {
    std::uint64_t hash;
    std::uint64_t token;
  };

  void EvictOldest();
  /// Drops orphaned order slots once they outnumber the live ones, so the
  /// queue stays linear in the entry count even under replacement storms.
  void CompactOrderQueue();

  std::size_t max_entries_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  std::uint64_t next_token_ = 0;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::deque<OrderSlot> insertion_order_;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t collisions_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace swfomc::wmc

#endif  // SWFOMC_WMC_COMPONENT_CACHE_H_
