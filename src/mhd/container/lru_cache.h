// Intrusive-list LRU cache used for the in-RAM Manifest cache (the paper's
// "cache contains a number of Manifests... freed following the LRU policy",
// with dirty entries written back before eviction) and, byte-weighted, for
// ContainerBackend's restore cache.
//
// Eviction invokes a user-supplied callback so the owner can flush dirty
// state to the storage backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace mhd {

template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  using EvictFn = std::function<void(const K&, V&)>;
  /// Optional byte-weight of a value; enables RAM-budgeted eviction so
  /// algorithms with bigger manifests cache fewer of them (the fair
  /// equal-RAM comparison the paper's analysis assumes).
  using WeightFn = std::function<std::uint64_t(const V&)>;

  explicit LruCache(std::size_t capacity, EvictFn on_evict = nullptr,
                    std::uint64_t max_weight = 0, WeightFn weigher = nullptr)
      : capacity_(capacity),
        max_weight_(max_weight),
        on_evict_(std::move(on_evict)),
        weigher_(std::move(weigher)) {
    if (capacity_ == 0) throw std::invalid_argument("LruCache: capacity 0");
  }

  /// Inserts (or replaces) and marks most-recently-used. May evict LRU
  /// entries (by count, and by total weight when a weigher is set).
  /// Returns a reference valid until the next mutation.
  V& put(const K& key, V value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      if (weigher_) {
        total_weight_ -= weigher_(it->second->second);
        total_weight_ += weigher_(value);
      }
      it->second->second = std::move(value);
      touch(it->second);
      shrink_to_budget(/*keep_front=*/true);
      return order_.front().second;
    }
    if (order_.size() >= capacity_) evict_one();
    if (weigher_) total_weight_ += weigher_(value);
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
    shrink_to_budget(/*keep_front=*/true);
    return order_.front().second;
  }

  /// Re-computes an entry's weight after in-place mutation of the value
  /// obtained from get()/peek(). `old_weight` is what the entry previously
  /// contributed (callers track it).
  void reweigh(const K& key, std::uint64_t old_weight) {
    if (!weigher_) return;
    auto it = index_.find(key);
    if (it == index_.end()) return;
    total_weight_ -= old_weight;
    total_weight_ += weigher_(it->second->second);
    shrink_to_budget(/*keep_front=*/false);
  }

  std::uint64_t total_weight() const { return total_weight_; }

  /// Looks up and marks most-recently-used; nullptr if absent.
  V* get(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    touch(it->second);
    return &order_.front().second;
  }

  /// Lookup without changing recency (for read-only scans).
  V* peek(const K& key) {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->second;
  }

  bool contains(const K& key) const { return index_.count(key) > 0; }

  /// Removes an entry *without* invoking the eviction callback.
  bool erase(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    if (weigher_) total_weight_ -= weigher_(it->second->second);
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  /// Removes every entry *without* invoking the eviction callback.
  void clear() {
    order_.clear();
    index_.clear();
    total_weight_ = 0;
  }

  /// Evicts everything (invoking the callback for each entry).
  void flush() {
    while (!order_.empty()) evict_one();
  }

  /// Iterate entries from most- to least-recently used.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& [k, v] : order_) fn(k, v);
  }

  std::size_t size() const { return order_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t eviction_count() const { return evictions_; }

 private:
  using Entry = std::pair<K, V>;
  using Iter = typename std::list<Entry>::iterator;

  void touch(Iter it) { order_.splice(order_.begin(), order_, it); }

  void evict_one() {
    auto& back = order_.back();
    if (weigher_) total_weight_ -= weigher_(back.second);
    if (on_evict_) on_evict_(back.first, back.second);
    index_.erase(back.first);
    order_.pop_back();
    ++evictions_;
  }

  /// Evicts from the LRU end until within the weight budget. With
  /// keep_front, the most-recently-used entry always survives (a single
  /// over-budget manifest must still be usable).
  void shrink_to_budget(bool keep_front) {
    if (max_weight_ == 0 || !weigher_) return;
    while (total_weight_ > max_weight_ &&
           order_.size() > (keep_front ? 1u : 0u)) {
      evict_one();
    }
  }

  std::size_t capacity_;
  std::uint64_t max_weight_;
  std::uint64_t total_weight_ = 0;
  EvictFn on_evict_;
  WeightFn weigher_;
  std::list<Entry> order_;
  std::unordered_map<K, Iter, Hash> index_;
  std::uint64_t evictions_ = 0;
};

}  // namespace mhd
