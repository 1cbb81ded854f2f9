#include "serve/feature_cache.h"

namespace tcm::serve {

FeatureCache::FeatureCache(std::size_t capacity, std::shared_ptr<obs::MetricsRegistry> metrics)
    : capacity_(capacity),
      metrics_(metrics ? std::move(metrics) : std::make_shared<obs::MetricsRegistry>()),
      hits_(&metrics_->counter("tcm_serve_cache_hits_total", "Feature cache hits")),
      misses_(&metrics_->counter("tcm_serve_cache_misses_total", "Feature cache misses")) {}

std::shared_ptr<const model::FeaturizedProgram> FeatureCache::get(const PairKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_->inc();
    return nullptr;
  }
  hits_->inc();
  lru_.splice(lru_.begin(), lru_, it->second);  // move to front
  return it->second->feats;
}

std::shared_ptr<const model::FeaturizedProgram> FeatureCache::put(
    const PairKey& key, std::shared_ptr<const model::FeaturizedProgram> feats) {
  if (capacity_ == 0) return feats;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->feats;
  }
  lru_.push_front(Entry{key, std::move(feats)});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  return lru_.front().feats;
}

std::size_t FeatureCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::uint64_t FeatureCache::hits() const { return hits_->value(); }

std::uint64_t FeatureCache::misses() const { return misses_->value(); }

void FeatureCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

}  // namespace tcm::serve
