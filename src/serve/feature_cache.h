// Bounded LRU cache of featurized (program, schedule) pairs.
//
// Featurization (transform application + computation-vector assembly) is the
// per-request cost the cost model was built to avoid paying repeatedly:
// search revisits schedules across beam levels and MCTS rollouts, and a
// serving deployment sees the same (program, schedule) pairs from many
// clients. Entries are shared_ptr-to-const so a hit can be handed to the
// batcher while an eviction races with it. Hits and misses are counted in
// the tcm_serve_cache_{hits,misses}_total instruments of a metrics registry.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "model/featurize.h"
#include "obs/metrics.h"
#include "serve/fingerprint.h"

namespace tcm::serve {

class FeatureCache {
 public:
  // `capacity` = max resident entries; 0 disables caching entirely. The
  // hit/miss counters live in `metrics` (a private registry when null).
  explicit FeatureCache(std::size_t capacity,
                        std::shared_ptr<obs::MetricsRegistry> metrics = nullptr);

  // Returns the cached featurization or nullptr on miss.
  std::shared_ptr<const model::FeaturizedProgram> get(const PairKey& key);

  // Inserts (or refreshes) an entry, evicting the least recently used ones
  // beyond capacity. Returns the resident entry (inserted or pre-existing).
  std::shared_ptr<const model::FeaturizedProgram> put(
      const PairKey& key, std::shared_ptr<const model::FeaturizedProgram> feats);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const;
  std::uint64_t misses() const;

  void clear();

 private:
  struct Entry {
    PairKey key;
    std::shared_ptr<const model::FeaturizedProgram> feats;
  };

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<PairKey, std::list<Entry>::iterator, PairKeyHash> index_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;  // pins the counters below
  obs::Counter* hits_;
  obs::Counter* misses_;
};

}  // namespace tcm::serve
