// Dynamic structure-aware batching queue.
//
// The cost model can only batch samples that share one loop-tree structure
// (a model::Batch holds one tree and [batch, features] tensors), so the
// queue keeps pending requests bucketed by structure. A worker blocks in
// next_batch() until some bucket is *ready*:
//   - it holds max_batch requests (full batch),
//   - its oldest request has waited max_latency (partial flush), or
//   - a flush()/close() covers it (drain now).
// Among ready buckets the one with the oldest head request wins, so no
// structure is starved by a hot one.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "model/featurize.h"
#include "support/clock.h"

namespace tcm::serve {

// A served prediction, attributable to exactly one model version: the whole
// batch that produced it ran on one pinned model snapshot (see
// PredictionService for the hot-swap protocol).
struct Prediction {
  double speedup = 0;
  int model_version = 0;
};

struct PendingRequest {
  std::shared_ptr<const model::FeaturizedProgram> feats;
  std::promise<Prediction> result;
  support::TimePoint enqueued;
  // Absolute point after which the client no longer wants the answer; the
  // worker sheds expired requests at the stage boundaries instead of
  // spending a forward pass on them. max() = no deadline.
  support::TimePoint deadline = support::TimePoint::max();
  std::uint64_t sequence = 0;  // assigned by the batcher, monotonically
  // Nonzero when the originating request was trace-sampled: carries the
  // trace id across the batcher's thread hop so batch-worker spans
  // correlate with the HTTP span (see obs/trace.h).
  std::uint64_t trace_id = 0;
};

class StructureBatcher {
 public:
  StructureBatcher(int max_batch, std::chrono::microseconds max_latency);

  // Adds a request to the bucket with the same structure (or a new one) and
  // wakes a worker. Throws std::runtime_error after close().
  void enqueue(PendingRequest req);

  // Makes every request enqueued so far immediately ready, without waiting
  // for full batches or the latency deadline. Used by blocking clients that
  // have just submitted their whole burst.
  void flush();

  // Blocks until a bucket is ready, then pops up to max_batch requests of
  // one structure. Returns an empty vector only when the batcher is closed
  // and fully drained (the worker-exit signal). A non-empty pop counts as an
  // in-flight batch until the worker calls batch_done().
  std::vector<PendingRequest> next_batch();

  // Marks one popped batch of `batch_size` requests fully processed
  // (including side work such as shadow scoring). Pairs 1:1 with non-empty
  // next_batch() returns.
  void batch_done(std::size_t batch_size);

  // Blocks until every request enqueued *before this call* has been fully
  // processed (batch_done). Requests enqueued concurrently don't extend the
  // wait, so drain() terminates even under sustained live traffic — callers
  // should flush() first or the wait spans the latency deadline.
  void drain();

  // Wakes all workers; pending requests are still handed out, further
  // enqueues are rejected.
  void close();

  std::size_t pending() const;
  int max_batch() const { return max_batch_; }

  // Age of the oldest queued request (zero when the queue is empty). The
  // admission controller's queue-age signal.
  std::chrono::nanoseconds oldest_age() const;

  // Live adjustment of the partial-flush window: the degradation ladder
  // shrinks it under pressure (smaller batches, lower queueing delay) and
  // restores it when pressure subsides. Takes effect for the next readiness
  // evaluation; already-ready batches are unaffected.
  void set_max_latency(std::chrono::microseconds max_latency);
  std::chrono::microseconds max_latency() const;

 private:
  struct Bucket {
    std::deque<PendingRequest> requests;
  };

  // Requires mu_ held. Index of a ready bucket (oldest head first), or -1.
  int find_ready(support::TimePoint now) const;
  bool bucket_ready(const Bucket& b, support::TimePoint now) const;

  const int max_batch_;
  std::chrono::microseconds max_latency_;  // guarded by mu_ (set_max_latency)

  mutable std::mutex mu_;
  std::condition_variable cv_;        // wakes workers (next_batch)
  std::condition_variable drain_cv_;  // wakes drain() waiters only
  // deque: buckets hold move-only requests and must not relocate on growth.
  std::deque<Bucket> buckets_;
  std::uint64_t next_sequence_ = 1;
  std::uint64_t flushed_up_to_ = 0;  // sequences <= this are ready now
  std::uint64_t completed_ = 0;      // requests whose batch finished batch_done()
  std::size_t pending_ = 0;
  bool closed_ = false;
};

}  // namespace tcm::serve
