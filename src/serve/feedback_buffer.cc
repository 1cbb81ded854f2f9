#include "serve/feedback_buffer.h"

namespace tcm::serve {
namespace {

// splitmix64 finalizer: hashes the (seed, ticket) pair into the Bernoulli
// draw so the accept/reject decision is lock-free and deterministic per
// ticket, independent of thread interleaving.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

FeedbackBuffer::FeedbackBuffer(FeedbackBufferOptions options,
                               std::shared_ptr<obs::MetricsRegistry> metrics)
    : options_(options),
      metrics_(metrics ? std::move(metrics) : std::make_shared<obs::MetricsRegistry>()),
      offered_(&metrics_->counter("tcm_feedback_offered_total",
                                  "Raw submissions offered to the buffer")),
      sampled_(&metrics_->counter("tcm_feedback_sampled_total",
                                  "Offers that passed the Bernoulli draw")),
      buffered_(&metrics_->gauge("tcm_feedback_buffered", "Samples currently in the reservoir")),
      rng_(options.seed) {
  reservoir_.reserve(options_.capacity);
}

void FeedbackBuffer::offer(const ir::Program& program, const transforms::Schedule& schedule) {
  // Fast path: rejected offers touch one atomic and a hash — no lock, no
  // copy. This sits on every client's submit path.
  const std::uint64_t ticket = offered_->inc();
  if (options_.capacity == 0) return;
  const std::uint64_t h = mix(ticket + 0x9e3779b97f4a7c15ULL * (options_.seed | 1));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u >= options_.sample_fraction) return;

  std::lock_guard<std::mutex> lock(mu_);
  sampled_->inc();
  ++stream_count_;
  // Algorithm R over the sampled stream: each sampled offer ends up in the
  // reservoir with probability capacity / stream_count.
  if (reservoir_.size() < options_.capacity) {
    reservoir_.push_back({program, schedule});
    buffered_->set(static_cast<double>(reservoir_.size()));
    return;
  }
  const std::uint64_t slot = static_cast<std::uint64_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(stream_count_) - 1));
  if (slot < options_.capacity)
    reservoir_[static_cast<std::size_t>(slot)] = {program, schedule};
}

std::vector<ServedSample> FeedbackBuffer::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ServedSample> out;
  out.swap(reservoir_);
  reservoir_.reserve(options_.capacity);
  stream_count_ = 0;
  buffered_->set(0);
  return out;
}

std::vector<ServedSample> FeedbackBuffer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reservoir_;
}

void FeedbackBuffer::restore(std::vector<ServedSample> samples) {
  std::lock_guard<std::mutex> lock(mu_);
  for (ServedSample& s : samples) {
    if (reservoir_.size() >= options_.capacity) break;
    reservoir_.push_back(std::move(s));
    // Count the restored sample as one offered-and-sampled request so the
    // counters stay consistent (sampled <= offered always holds) and later
    // reservoir replacement stays approximately uniform.
    offered_->inc();
    sampled_->inc();
    ++stream_count_;
  }
  buffered_->set(static_cast<double>(reservoir_.size()));
}

std::size_t FeedbackBuffer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reservoir_.size();
}

std::uint64_t FeedbackBuffer::offered() const { return offered_->value(); }

std::uint64_t FeedbackBuffer::sampled() const { return sampled_->value(); }

}  // namespace tcm::serve
