// Measured-feedback buffer: a uniform sample of what the service actually
// served, kept as raw (program, schedule) pairs so a continual-learning
// cycle can re-execute them on the simulator and fine-tune on *measured*
// speedups instead of (only) fresh synthetic datagen draws — the data loop
// LOOPer and MetaTune close.
//
// The buffer sits on the PredictionService submit path (raw-pair entry
// point only; pre-featurized requests carry no program to re-execute).
// offer() first Bernoulli-samples the request stream — a lock-free
// atomic-ticket + hash draw, so rejected offers cost neither a mutex nor
// an IR copy on the serving hot path — then reservoir-samples the
// survivors into a bounded buffer: drain() therefore hands back a uniform
// sample of the sampled stream since the last drain, no matter how much
// traffic flowed. Thread-safe; the accept decision is deterministic in
// (seed, ticket index). The buffer's instruments live in a metrics
// registry: tcm_feedback_{offered,sampled}_total and the
// tcm_feedback_buffered reservoir-size gauge.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ir/program.h"
#include "obs/metrics.h"
#include "support/rng.h"
#include "transforms/schedule.h"

namespace tcm::serve {

struct ServedSample {
  ir::Program program;
  transforms::Schedule schedule;
};

struct FeedbackBufferOptions {
  std::size_t capacity = 1024;   // reservoir size handed to drain()
  double sample_fraction = 0.1;  // fraction of offered requests considered
  std::uint64_t seed = 7;
};

class FeedbackBuffer {
 public:
  // The instruments live in `metrics` (a private registry when null);
  // buffers sharing a registry share them, ticket sequence included.
  explicit FeedbackBuffer(FeedbackBufferOptions options = {},
                          std::shared_ptr<obs::MetricsRegistry> metrics = nullptr);

  // Called by the service for every raw-pair request. Cheap when the
  // Bernoulli draw rejects; otherwise copies the pair into the reservoir.
  void offer(const ir::Program& program, const transforms::Schedule& schedule);

  // Takes the reservoir (the stream restarts empty). Order is arbitrary.
  std::vector<ServedSample> drain();

  // Copies the current reservoir without consuming it: the persistence hook
  // (api::Service serializes the reservoir on quiesce/shutdown). Samples a
  // cycle already drained are gone from the reservoir, so a snapshot taken
  // afterwards can never persist — and a restart can never double-count —
  // them.
  std::vector<ServedSample> snapshot() const;

  // Seeds the reservoir with samples recovered from a previous process
  // (api::Service restores a persisted snapshot at startup). Restored
  // samples count as sampled stream entries so subsequent reservoir
  // replacement stays (approximately) uniform; excess beyond the capacity
  // is dropped. Call before serving starts.
  void restore(std::vector<ServedSample> samples);

  std::size_t size() const;
  std::uint64_t offered() const;  // total offer() calls
  std::uint64_t sampled() const;  // offers that passed the Bernoulli draw

 private:
  const FeedbackBufferOptions options_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;  // pins the counters below
  obs::Counter* offered_;  // also the lock-free ticket counter
  obs::Counter* sampled_;  // incremented under mu_
  obs::Gauge* buffered_;   // reservoir size, set under mu_
  mutable std::mutex mu_;
  Rng rng_;
  std::vector<ServedSample> reservoir_;
  std::uint64_t stream_count_ = 0;   // sampled offers since the last drain()
};

}  // namespace tcm::serve
