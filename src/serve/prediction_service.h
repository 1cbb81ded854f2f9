// Batched inference serving for speedup predictors.
//
// Search evaluates thousands of candidate schedules per program, and the
// production setting the ROADMAP targets serves prediction traffic from many
// concurrent clients. PredictionService turns a SpeedupPredictor into a
// thread-safe, high-throughput endpoint:
//
//   client threads --submit()--> FeatureCache --> StructureBatcher
//                                                      |
//                             worker pool: pop batch, one tape-free
//                             infer_batch per structure-homogeneous
//                             [batch, features] group (worker-local
//                             InferenceArena, zero steady-state heap
//                             allocation), fulfill futures
//
// Inference is deterministic: the tape-free infer_batch path applies no
// dropout and computes each batch row independently, so a request's
// prediction is bitwise-identical however it is batched (asserted by the
// serve hammer test against direct infer_batch calls). Predictors without a
// fused engine inherit SpeedupPredictor's infer_batch fallback, which wraps
// forward_batch.
//
// Model ownership and hot-swap: the service holds a shared_ptr to an
// immutable predictor snapshot. A worker pins the snapshot once per batch
// (one pointer copy under a dedicated, practically uncontended mutex —
// nanoseconds against a milliseconds-scale forward pass, and verifiably
// race-free under TSan, unlike libstdc++'s atomic<shared_ptr>), so
// swap_model() flips traffic to a new model between batches without
// stopping the service — in-flight batches finish on the old snapshot
// (which the shared_ptr keeps alive), and no batch ever mixes models.
// Every Prediction is stamped with the version of the snapshot that
// produced it. Training never happens on a served snapshot: fine-tuning
// operates on a separate registry-loaded copy, which is then swapped in
// (see registry::ContinualTrainer).
//
// Shadow mode: set_shadow() installs a candidate model that additionally
// scores a sampled fraction of live batches. Shadow predictions are never
// returned to clients; the service records disagreement statistics against
// the incumbent (MAPE and Spearman rank correlation over the shared
// requests) into ServeStats, which is what a canary evaluation reads before
// deciding to promote.
//
// Metrics: every counter the service keeps (requests, batches, failures,
// swaps, shadow traffic, cache hits, arena allocations) is an instrument in
// its metrics registry, incremented where the event happens; stats() reads
// the instruments back into the typed ServeStats view.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "model/cost_model.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "serve/admission.h"
#include "serve/batcher.h"
#include "serve/feature_cache.h"
#include "serve/feedback_buffer.h"

namespace tcm::serve {

// Absolute per-request deadline on the serving clock; max() = none.
using RequestDeadline = std::chrono::steady_clock::time_point;
inline constexpr RequestDeadline kNoDeadline = RequestDeadline::max();

struct ServeOptions {
  int num_threads = 1;   // inference worker threads
  int max_batch = 64;    // max requests fused into one inference batch
  // How long a partial batch may wait for company before it is flushed.
  std::chrono::microseconds max_queue_latency{2000};
  std::size_t cache_capacity = 4096;  // feature-cache entries; 0 disables
  model::FeatureConfig features;      // featurization of raw pairs
  std::uint64_t seed = 0;             // shadow-sampling Rng seed
  // Shadow disagreement window: recent (incumbent, shadow) prediction pairs
  // kept for the Spearman statistic.
  std::size_t shadow_window = 1 << 12;
  // Recent incumbent predictions kept for drift detection
  // (recent_predictions(); the DriftMonitor compares this window against a
  // frozen reference). 0 disables the ring.
  std::size_t prediction_window = 1 << 12;
  // Metrics registry holding the service's counters, gauges and histograms.
  // Share one across the stack so /metrics renders everything in one pass;
  // when null the service creates a private registry (stats() still works).
  // Services sharing a registry share its counters.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  // Watchdog the batch workers register heartbeats with (critical threads:
  // a wedged worker flips /healthz to 503). Null = no liveness tracking.
  std::shared_ptr<obs::Watchdog> watchdog;
  // How long one batch may run before its worker counts as stalled.
  std::chrono::milliseconds worker_stall_after{30000};
  // Server-side default deadline applied to every request that does not
  // carry a tighter one (0 = none). Expired requests are shed at the stage
  // boundaries (submit / batch assemble / infer) with DeadlineExceededError
  // instead of burning a worker.
  std::chrono::milliseconds default_deadline{0};
  // Hard bound on the batching queue; 0 = unbounded (admission control and
  // the degradation ladder disabled). When the queue is saturated new
  // arrivals fail fast with AdmissionRejectedError (HTTP 429).
  std::size_t admission_queue_cap = 0;
  // Pressure-ladder watermarks and queue-age policy; `queue_cap` inside is
  // overwritten from admission_queue_cap.
  AdmissionOptions admission;
};

// Typed read view of the service's registry instruments; counters are
// totals since construction unless noted.
struct ServeStats {
  std::uint64_t requests = 0;        // completed predictions
  std::uint64_t batches = 0;         // infer_batch calls (incumbent only)
  std::uint64_t failed_requests = 0; // featurization/forward errors
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double mean_batch_occupancy = 0;   // requests / batches
  // Heap allocations performed by the workers' inference arenas. Plateaus
  // once the arenas are warm: steady-state inference allocates nothing.
  std::uint64_t arena_heap_allocs = 0;
  // Queue+inference latency summary, interpolated out of the
  // tcm_serve_latency_seconds histogram buckets (approximate, bounded by
  // bucket resolution).
  double p50_latency = 0;
  double p99_latency = 0;

  // Hot-swap and shadow-mode counters.
  int active_version = 0;            // version currently receiving traffic
  std::uint64_t model_swaps = 0;     // completed swap_model() calls
  int shadow_version = 0;            // 0 when no shadow is installed
  // Shadow counts since the last set_shadow() (the registry counters behind
  // them stay monotone).
  std::uint64_t shadow_requests = 0; // requests also scored by a shadow model
  std::uint64_t shadow_failures = 0; // shadow forward errors (never client-visible)
  double shadow_mape = 0;            // mean |shadow - incumbent| / incumbent
  double shadow_spearman = 0;        // rank corr over the recent shared window

  // Overload-resilience counters.
  std::uint64_t shed_requests = 0;   // rejected by admission control or deadline expiry
  int degradation_level = 0;         // pressure ladder: 0 normal .. 3 shedding
};

class PredictionService {
 public:
  // Owning form: the service shares ownership of the predictor snapshot.
  // `version` tags every prediction the snapshot produces (use the registry
  // version, or 0 for unversioned models).
  PredictionService(std::shared_ptr<model::SpeedupPredictor> predictor, int version,
                    ServeOptions options);

  // Non-owning convenience: the predictor must outlive the service (and any
  // snapshot still pinned by an in-flight batch after a swap). Its
  // parameters are read concurrently at inference; train only copies loaded
  // elsewhere, never the instance a running service serves.
  PredictionService(model::SpeedupPredictor& predictor, ServeOptions options);

  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  // Featurizes (through the cache) and enqueues; the future resolves to the
  // predicted speedup plus the version of the model that produced it.
  // Featurization failure or a forward error surfaces as an exception on
  // the future. A request whose `deadline` (tightened by
  // ServeOptions::default_deadline) has already passed — or that the
  // admission controller rejects — comes back as an *already-failed* future
  // holding DeadlineExceededError / AdmissionRejectedError: shedding never
  // touches the featurizer or a worker.
  std::future<Prediction> submit(const ir::Program& program,
                                 const transforms::Schedule& schedule,
                                 RequestDeadline deadline = kNoDeadline);

  // Pre-featurized entry point (no cache involvement).
  std::future<Prediction> submit(std::shared_ptr<const model::FeaturizedProgram> feats,
                                 RequestDeadline deadline = kNoDeadline);

  // Blocking convenience: submits the whole burst, flushes the queue so no
  // tail request waits out the latency deadline, and gathers results in
  // order. Throws if any request failed. The deadline applies to every
  // request in the burst, so a wedged batcher sheds the whole evaluation
  // with DeadlineExceededError instead of stranding the caller.
  std::vector<double> predict_many(const ir::Program& program,
                                   const std::vector<transforms::Schedule>& candidates,
                                   RequestDeadline deadline = kNoDeadline);

  // Atomically routes all subsequent batches to `next`. Batches already in
  // flight finish on the snapshot they pinned; nothing is dropped and no
  // request observes both models. Clients may keep calling submit()
  // throughout.
  void swap_model(std::shared_ptr<model::SpeedupPredictor> next, int version);
  int active_version() const;

  // Installs (or replaces) a shadow candidate scoring `sample_fraction` of
  // batches. Resets the shadow disagreement statistics.
  void set_shadow(std::shared_ptr<model::SpeedupPredictor> candidate, int version,
                  double sample_fraction = 1.0);
  void clear_shadow();

  // Installs (or, with nullptr, removes) a measured-feedback buffer: every
  // raw (program, schedule) submission is offered to it, so a continual
  // cycle can later re-execute a sample of served schedules on the
  // simulator. Pre-featurized submissions bypass the buffer (no program to
  // re-execute).
  void set_feedback(std::shared_ptr<FeedbackBuffer> feedback);

  // Snapshot of the recent incumbent predicted speedups (unordered ring of
  // the last ServeOptions::prediction_window predictions): the drift
  // monitor's distribution window. Empty until the first batch completes.
  std::vector<double> recent_predictions() const;

  // Empties the recent-prediction ring. Called after a model swap so the
  // next drift baseline reflects only the new model's predictions.
  void clear_recent_predictions();

  // Makes everything enqueued so far immediately batchable.
  void flush() { batcher_.flush(); }

  // Flushes, then blocks until every request submitted *before this call*
  // has fully completed — including shadow scoring, which runs after the
  // client promises are fulfilled. Call before reading stats() when exact
  // shadow counts matter (the canary gate does). Terminates even while
  // other clients keep submitting: the wait covers only prior traffic.
  void quiesce() {
    batcher_.flush();
    batcher_.drain();
  }

  ServeStats stats() const;
  const ServeOptions& options() const { return options_; }
  std::size_t pending() const { return batcher_.pending(); }

  // The registry holding this service's histograms (the one passed in
  // ServeOptions, or the private fallback). Never null.
  obs::MetricsRegistry& metrics_registry() const { return *metrics_; }

 private:
  // Immutable (model, version) pairing; swapped as a unit so a batch can
  // never pair one snapshot's predictions with another's version tag.
  struct ModelSnapshot {
    std::shared_ptr<model::SpeedupPredictor> predictor;
    int version = 0;
  };
  struct ShadowState {
    std::shared_ptr<model::SpeedupPredictor> predictor;
    int version = 0;
    double sample_fraction = 1.0;
  };
  // Per-worker scratch, touched only by its owning worker thread.
  struct WorkerState {
    nn::InferenceArena arena;
    std::vector<double> preds;         // incumbent predictions of the batch
    std::uint64_t arena_allocs_counted = 0;  // arena allocations already counted
  };
  // Shadow disagreement window since the last set_shadow(): data, not
  // counters, so it stays under its own mutex. Co-owned by the
  // tcm_shadow_mape/spearman callback gauges, which may outlive the service.
  struct ShadowWindow {
    std::mutex mu;
    // Shadow counter values at set_shadow(); ServeStats reports the deltas.
    std::uint64_t requests_base = 0;
    std::uint64_t failures_base = 0;
    double ape_sum = 0;
    // Ring of recent (incumbent, shadow) pairs for the Spearman statistic.
    std::vector<std::pair<double, double>> pairs;
    std::size_t next = 0;

    // Mean APE over the window; call with mu held. `requests_total` is the
    // tcm_shadow_requests_total value.
    double mape_locked(std::uint64_t requests_total) const;
    // Rank correlation over a copy of the pair ring (ranked outside mu).
    double spearman();
  };

  std::future<Prediction> submit_with_key(const PairKey& key, const ir::Program& program,
                                          const transforms::Schedule& schedule,
                                          RequestDeadline deadline);
  // Applies the server default deadline to `deadline` and runs the
  // submit-side shed points (expired deadline, admission control). Returns
  // an already-failed future when the request is shed, nullopt to proceed.
  std::optional<std::future<Prediction>> preflight(RequestDeadline& deadline);
  // Builds and enqueues the PendingRequest (no shed checks — preflight ran).
  std::future<Prediction> enqueue_request(std::shared_ptr<const model::FeaturizedProgram> feats,
                                          RequestDeadline deadline);
  // Worker-side ladder refresh: recomputes the level from the queue depth
  // and applies the level-2 batch-window shrink when the level crosses it.
  void refresh_degradation();
  void worker_loop(int worker_index);
  void run_batch(std::vector<PendingRequest> batch, WorkerState& ws);
  // Scores one batch through `predictor` with the worker's arena into
  // `out` (one prediction per row).
  void score_batch(model::SpeedupPredictor& predictor, const model::Batch& model_batch,
                   WorkerState& ws, std::vector<double>& out);
  void run_shadow(const ShadowState& shadow, const model::Batch& model_batch,
                  const std::vector<double>& incumbent_preds, std::uint64_t batch_index,
                  WorkerState& ws);
  // Adds the worker arena's heap allocations since the last call to the
  // tcm_serve_arena_heap_allocs_total counter.
  void count_arena_allocs(WorkerState& ws);

  const ServeOptions options_;
  // Declared before the members whose instruments it holds. References
  // handed out by the registry are stable for its lifetime, which this pins.
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  // Epoch-swapped model state: workers pin a snapshot once per batch and
  // hold it (refcounted) until the batch completes. model_mu_ guards only
  // these two pointers, never the forward pass.
  mutable std::mutex model_mu_;
  std::shared_ptr<const ModelSnapshot> model_;
  std::shared_ptr<const ShadowState> shadow_;  // null = disabled
  // Measured-feedback tap, behind its own mutex so the per-request pointer
  // copy on the submit path never contends with batch pinning or hot-swap;
  // the atomic flag keeps the (default) disabled path entirely lock-free.
  std::atomic<bool> has_feedback_{false};
  mutable std::mutex feedback_mu_;
  std::shared_ptr<FeedbackBuffer> feedback_;  // null = disabled
  FeatureCache cache_;  // counts hits/misses in metrics_
  StructureBatcher batcher_;
  // Admission control + degradation ladder (always constructed; inert when
  // admission_queue_cap == 0). Owns the shed/degradation instruments.
  std::unique_ptr<AdmissionController> admission_;
  // Last ladder level whose side effects (batch-window shrink) were applied;
  // workers race benignly to apply transitions.
  std::atomic<int> applied_level_{0};

  // Instruments, registered at construction; every update is wait-free.
  obs::Counter* requests_ = nullptr;           // tcm_serve_requests_total
  obs::Counter* batches_ = nullptr;            // tcm_serve_batches_total (batch index)
  obs::Counter* failed_requests_ = nullptr;    // tcm_serve_failed_requests_total
  obs::Counter* arena_heap_allocs_ = nullptr;  // tcm_serve_arena_heap_allocs_total
  obs::Counter* model_swaps_ = nullptr;        // tcm_model_swaps_total
  obs::Counter* shadow_requests_ = nullptr;    // tcm_shadow_requests_total
  obs::Counter* shadow_failures_ = nullptr;    // tcm_shadow_failures_total
  obs::Gauge* active_version_ = nullptr;       // tcm_model_active_version
  obs::Gauge* shadow_version_ = nullptr;       // tcm_shadow_version
  obs::Histogram* e2e_latency_ = nullptr;      // tcm_serve_latency_seconds
  obs::Histogram* stage_queue_wait_ = nullptr; // tcm_stage_duration_seconds{stage=...}
  obs::Histogram* stage_featurize_ = nullptr;
  obs::Histogram* stage_batch_assemble_ = nullptr;
  obs::Histogram* stage_infer_ = nullptr;
  obs::Histogram* stage_shadow_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;       // tcm_serve_batch_size
  obs::Gauge* queue_depth_ = nullptr;          // tcm_serve_queue_depth
  obs::Gauge* cache_hit_ratio_ = nullptr;      // tcm_serve_cache_hit_ratio

  // Ring of recent incumbent predictions for drift detection.
  mutable std::mutex recent_mu_;
  std::vector<double> recent_preds_;
  std::size_t recent_pred_next_ = 0;
  const std::shared_ptr<ShadowWindow> shadow_window_ = std::make_shared<ShadowWindow>();

  // unique_ptr: WorkerState holds a non-movable arena; the vector is sized
  // before the threads start and never resized after.
  std::vector<std::unique_ptr<WorkerState>> worker_states_;
  std::vector<std::thread> workers_;
};

}  // namespace tcm::serve
