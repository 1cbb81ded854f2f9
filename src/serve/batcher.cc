#include "serve/batcher.h"

#include <stdexcept>

#include "support/clock.h"

namespace tcm::serve {

StructureBatcher::StructureBatcher(int max_batch, std::chrono::microseconds max_latency)
    : max_batch_(max_batch), max_latency_(max_latency) {
  if (max_batch <= 0) throw std::invalid_argument("StructureBatcher: max_batch must be positive");
}

void StructureBatcher::enqueue(PendingRequest req) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) throw std::runtime_error("StructureBatcher: enqueue after close");
    req.sequence = next_sequence_++;
    // Linear scan over buckets: the number of distinct structures in flight
    // is small (one per program shape being searched), and same_structure is
    // a cheap size check in the common mismatch case.
    Bucket* bucket = nullptr;
    for (Bucket& b : buckets_) {
      if (!b.requests.empty() && b.requests.front().feats->same_structure(*req.feats)) {
        bucket = &b;
        break;
      }
    }
    if (!bucket) {
      // Reuse a drained bucket before growing the vector.
      for (Bucket& b : buckets_) {
        if (b.requests.empty()) {
          bucket = &b;
          break;
        }
      }
      if (!bucket) bucket = &buckets_.emplace_back();
    }
    bucket->requests.push_back(std::move(req));
    ++pending_;
  }
  cv_.notify_one();
}

void StructureBatcher::flush() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    flushed_up_to_ = next_sequence_ - 1;
  }
  cv_.notify_all();
}

bool StructureBatcher::bucket_ready(const Bucket& b, support::TimePoint now) const {
  if (b.requests.empty()) return false;
  if (closed_) return true;
  if (static_cast<int>(b.requests.size()) >= max_batch_) return true;
  const PendingRequest& oldest = b.requests.front();
  if (oldest.sequence <= flushed_up_to_) return true;
  return now - oldest.enqueued >= max_latency_;
}

int StructureBatcher::find_ready(support::TimePoint now) const {
  int best = -1;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (!bucket_ready(buckets_[i], now)) continue;
    if (best < 0 || buckets_[i].requests.front().sequence <
                        buckets_[static_cast<std::size_t>(best)].requests.front().sequence)
      best = static_cast<int>(i);
  }
  return best;
}

std::vector<PendingRequest> StructureBatcher::next_batch() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const int ready = find_ready(support::now());
    if (ready >= 0) {
      Bucket& b = buckets_[static_cast<std::size_t>(ready)];
      const std::size_t take = std::min(b.requests.size(), static_cast<std::size_t>(max_batch_));
      std::vector<PendingRequest> batch;
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(b.requests.front()));
        b.requests.pop_front();
      }
      pending_ -= take;
      // If the bucket still holds a ready remainder another worker can start
      // on it immediately.
      if (!b.requests.empty()) cv_.notify_one();
      return batch;
    }
    if (closed_) return {};  // closed and drained
    // Sleep until the earliest partial-flush deadline, or a notify.
    auto deadline = support::TimePoint::max();
    for (const Bucket& b : buckets_)
      if (!b.requests.empty())
        deadline = std::min(deadline, b.requests.front().enqueued + max_latency_);
    support::wait_until(cv_, lock, deadline);
  }
}

void StructureBatcher::batch_done(std::size_t batch_size) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    completed_ += batch_size;
  }
  drain_cv_.notify_all();
}

void StructureBatcher::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  // Snapshot the enqueue high-water mark: completion is monotone and newer
  // requests only push completed_ further, so the wait is bounded by the
  // traffic enqueued before the call even while clients keep submitting.
  const std::uint64_t target = next_sequence_ - 1;
  drain_cv_.wait(lock, [this, target] { return completed_ >= target; });
}

void StructureBatcher::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t StructureBatcher::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

std::chrono::nanoseconds StructureBatcher::oldest_age() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto oldest = support::TimePoint::max();
  for (const Bucket& b : buckets_)
    if (!b.requests.empty()) oldest = std::min(oldest, b.requests.front().enqueued);
  if (oldest == support::TimePoint::max()) return std::chrono::nanoseconds::zero();
  return support::now() - oldest;
}

void StructureBatcher::set_max_latency(std::chrono::microseconds max_latency) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (max_latency_ == max_latency) return;
    max_latency_ = max_latency;
  }
  // A shrink can make a waiting bucket ready immediately.
  cv_.notify_all();
}

std::chrono::microseconds StructureBatcher::max_latency() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_latency_;
}

}  // namespace tcm::serve
