// LruMap: a bounded string-keyed map with least-recently-used eviction
// and whole-map re-keying — the storage behind the engine's two caches
// (the VectorCache of prepared instances and the result memo). Not
// thread-safe: each owner guards it with its own mutex.

#pragma once

#include <cstddef>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

namespace comparesets {

/// What one LruMap::Rekey pass kept and dropped.
struct RekeyCounts {
  size_t kept = 0;
  size_t dropped = 0;
};

template <typename Value>
class LruMap {
 public:
  /// A map that holds at most `capacity` entries (callers keep it >= 1).
  explicit LruMap(size_t capacity) : capacity_(capacity) {}

  /// The value under `key`, promoted to most-recently-used; nullptr on
  /// a miss. Valid until the next mutation.
  Value* Find(const std::string& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->second;
  }

  /// Inserts (or replaces) the value under `key` as most-recently-used,
  /// evicting the least-recently-used entry when full. Returns whether
  /// an entry was evicted.
  bool Put(const std::string& key, Value value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
      return false;
    }
    bool evicted = false;
    if (entries_.size() >= capacity_) {
      index_.erase(entries_.back().first);
      entries_.pop_back();
      evicted = true;
    }
    entries_.emplace_front(key, std::move(value));
    index_.emplace(key, entries_.begin());
    return evicted;
  }

  /// Moves every entry to the key `rekey(key, value)` returns, keeping
  /// recency order, and drops those it maps to "" (or to a key an
  /// earlier, more recent entry already took). `rekey` may update the
  /// value.
  template <typename KeyFn>
  RekeyCounts Rekey(KeyFn&& rekey) {
    RekeyCounts counts;
    counts.dropped = entries_.size();
    index_.clear();
    for (auto it = entries_.begin(); it != entries_.end();) {
      std::string key = rekey(it->first, it->second);
      if (key.empty() || index_.count(key) != 0) {
        it = entries_.erase(it);
        continue;
      }
      it->first = std::move(key);
      index_.emplace(it->first, it);
      ++it;
    }
    counts.kept = entries_.size();
    counts.dropped -= counts.kept;
    return counts;
  }

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }

  /// Calls f(key, value) for every entry, most recent first.
  template <typename F>
  void ForEach(F&& f) const {
    for (const auto& [key, value] : entries_) f(key, value);
  }

 private:
  using Entries = std::list<std::pair<std::string, Value>>;

  size_t capacity_;
  /// Front = most recently used.
  Entries entries_;
  std::unordered_map<std::string, typename Entries::iterator> index_;
};

}  // namespace comparesets
