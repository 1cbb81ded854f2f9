#include "serve/prediction_service.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/event_log.h"
#include "obs/trace.h"
#include "serve/errors.h"
#include "support/failpoint.h"
#include "support/stats.h"

namespace tcm::serve {
namespace {

// Nanoseconds-since-epoch of a steady_clock time_point, on the same clock
// Tracer::now_ns uses, so spans built from request timestamps line up with
// spans built from fresh clock reads.
std::uint64_t to_trace_ns(std::chrono::steady_clock::time_point tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch()).count());
}

// Wraps a caller-owned predictor in a non-owning shared_ptr (aliasing
// constructor with an empty control block target): swap/pin semantics work
// uniformly, lifetime stays with the caller.
std::shared_ptr<model::SpeedupPredictor> non_owning(model::SpeedupPredictor& predictor) {
  return std::shared_ptr<model::SpeedupPredictor>(std::shared_ptr<void>(), &predictor);
}

double mean_occupancy(std::uint64_t requests, std::uint64_t batches) {
  return batches > 0 ? static_cast<double>(requests) / static_cast<double>(batches) : 0.0;
}

std::future<Prediction> failed_future(std::exception_ptr error) {
  std::promise<Prediction> failed;
  failed.set_exception(std::move(error));
  return failed.get_future();
}

}  // namespace

double PredictionService::ShadowWindow::mape_locked(std::uint64_t requests_total) const {
  const std::uint64_t n = requests_total - requests_base;
  return n > 0 ? ape_sum / static_cast<double>(n) : 0.0;
}

double PredictionService::ShadowWindow::spearman() {
  std::vector<double> inc, sh;
  {
    std::lock_guard<std::mutex> lock(mu);
    inc.reserve(pairs.size());
    sh.reserve(pairs.size());
    for (const auto& [i, v] : pairs) {
      inc.push_back(i);
      sh.push_back(v);
    }
  }
  return inc.size() >= 2 ? tcm::spearman(inc, sh) : 0.0;
}

PredictionService::PredictionService(std::shared_ptr<model::SpeedupPredictor> predictor,
                                     int version, ServeOptions options)
    : options_(options),
      metrics_(options.metrics ? options.metrics : std::make_shared<obs::MetricsRegistry>()),
      cache_(options.cache_capacity, metrics_),
      batcher_(options.max_batch, options.max_queue_latency) {
  if (!predictor) throw std::invalid_argument("PredictionService: null predictor");
  if (options.num_threads < 1)
    throw std::invalid_argument("PredictionService: need at least one worker thread");
  model_ = std::make_shared<const ModelSnapshot>(ModelSnapshot{std::move(predictor), version});
  obs::MetricsRegistry& m = *metrics_;
  requests_ = &m.counter("tcm_serve_requests_total", "Completed predictions");
  failed_requests_ = &m.counter("tcm_serve_failed_requests_total",
                                "Requests that failed featurization or the forward pass");
  batches_ = &m.counter("tcm_serve_batches_total", "Incumbent inference batches");
  // The callbacks below read only instruments and state the registry itself
  // owns or co-owns, never `this`: the registry may outlive the service.
  m.gauge_callback("tcm_serve_batch_occupancy", "Mean requests per batch", "",
                   [&requests = *requests_, &batches = *batches_] {
                     return mean_occupancy(requests.value(), batches.value());
                   });
  arena_heap_allocs_ =
      &m.counter("tcm_serve_arena_heap_allocs_total",
                 "Heap allocations by worker inference arenas (plateaus when warm)");
  active_version_ =
      &m.gauge("tcm_model_active_version", "Registry version currently receiving traffic");
  active_version_->set(version);
  model_swaps_ = &m.counter("tcm_model_swaps_total", "Completed zero-downtime hot swaps");
  shadow_version_ =
      &m.gauge("tcm_shadow_version", "Shadow candidate version (0 when none installed)");
  shadow_requests_ =
      &m.counter("tcm_shadow_requests_total", "Requests also scored by a shadow model");
  shadow_failures_ = &m.counter("tcm_shadow_failures_total",
                                "Shadow forward errors (never client-visible)");
  m.gauge_callback("tcm_shadow_mape", "Shadow disagreement MAPE vs the incumbent", "",
                   [window = shadow_window_, &requests = *shadow_requests_] {
                     std::lock_guard<std::mutex> lock(window->mu);
                     return window->mape_locked(requests.value());
                   });
  m.gauge_callback("tcm_shadow_spearman",
                   "Shadow rank correlation vs the incumbent over the shared window", "",
                   [window = shadow_window_] { return window->spearman(); });
  // 1us..~16s log-spaced: covers cache-hit submits through pathological
  // stalls at ~2x resolution per decade step.
  const std::vector<double> latency_buckets = obs::exponential_buckets(1e-6, 2.0, 25);
  const auto stage = [&](const char* name) {
    return &metrics_->histogram("tcm_stage_duration_seconds",
                                "Per-stage serving latency in seconds.",
                                std::string("stage=\"") + name + '"', latency_buckets);
  };
  e2e_latency_ = &metrics_->histogram(
      "tcm_serve_latency_seconds",
      "End-to-end prediction latency (enqueue to fulfilled promise) in seconds.", "",
      latency_buckets);
  stage_queue_wait_ = stage("queue_wait");
  stage_featurize_ = stage("featurize");
  stage_batch_assemble_ = stage("batch_assemble");
  stage_infer_ = stage("infer");
  stage_shadow_ = stage("shadow");
  batch_size_ = &metrics_->histogram("tcm_serve_batch_size",
                                     "Requests fused per inference batch.", "",
                                     obs::exponential_buckets(1.0, 2.0, 9));
  queue_depth_ = &metrics_->gauge("tcm_serve_queue_depth",
                                  "Requests waiting in the batching queue.");
  cache_hit_ratio_ = &metrics_->gauge(
      "tcm_serve_cache_hit_ratio", "Feature-cache hit ratio since start (0 before any lookup).");
  AdmissionOptions admission = options.admission;
  admission.queue_cap = options.admission_queue_cap;
  admission_ = std::make_unique<AdmissionController>(admission, *metrics_);
  worker_states_.reserve(static_cast<std::size_t>(options.num_threads));
  for (int i = 0; i < options.num_threads; ++i)
    worker_states_.push_back(std::make_unique<WorkerState>());
  workers_.reserve(static_cast<std::size_t>(options.num_threads));
  for (int i = 0; i < options.num_threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

PredictionService::PredictionService(model::SpeedupPredictor& predictor, ServeOptions options)
    : PredictionService(non_owning(predictor), /*version=*/0, options) {}

PredictionService::~PredictionService() {
  batcher_.close();
  for (std::thread& t : workers_) t.join();
}

void PredictionService::swap_model(std::shared_ptr<model::SpeedupPredictor> next, int version) {
  if (!next) throw std::invalid_argument("PredictionService: cannot swap in a null predictor");
  auto snapshot = std::make_shared<const ModelSnapshot>(ModelSnapshot{std::move(next), version});
  int previous;
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    previous = model_->version;
    model_ = std::move(snapshot);  // old snapshot lives on in in-flight batches
    active_version_->set(version);
  }
  model_swaps_->inc();
  obs::EventLog::instance().emit(
      "hot_swap", "info", "from=v" + std::to_string(previous) + " to=v" + std::to_string(version),
      obs::current_trace_id());
}

int PredictionService::active_version() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return model_->version;
}

void PredictionService::set_shadow(std::shared_ptr<model::SpeedupPredictor> candidate,
                                   int version, double sample_fraction) {
  if (!candidate) throw std::invalid_argument("PredictionService: null shadow candidate");
  auto state = std::make_shared<const ShadowState>(ShadowState{
      std::move(candidate), version, std::clamp(sample_fraction, 0.0, 1.0)});
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    shadow_ = std::move(state);
    shadow_version_->set(version);
  }
  ShadowWindow& window = *shadow_window_;
  std::lock_guard<std::mutex> lock(window.mu);
  window.requests_base = shadow_requests_->value();
  window.failures_base = shadow_failures_->value();
  window.ape_sum = 0;
  window.pairs.clear();
  window.next = 0;
}

void PredictionService::clear_shadow() {
  std::lock_guard<std::mutex> lock(model_mu_);
  shadow_ = nullptr;
  shadow_version_->set(0);
}

void PredictionService::set_feedback(std::shared_ptr<FeedbackBuffer> feedback) {
  std::lock_guard<std::mutex> lock(feedback_mu_);
  feedback_ = std::move(feedback);
  has_feedback_.store(feedback_ != nullptr, std::memory_order_release);
}

std::vector<double> PredictionService::recent_predictions() const {
  std::lock_guard<std::mutex> lock(recent_mu_);
  return recent_preds_;
}

void PredictionService::clear_recent_predictions() {
  std::lock_guard<std::mutex> lock(recent_mu_);
  recent_preds_.clear();
  recent_pred_next_ = 0;
}

std::future<Prediction> PredictionService::submit(const ir::Program& program,
                                                  const transforms::Schedule& schedule,
                                                  RequestDeadline deadline) {
  return submit_with_key({fingerprint(program), fingerprint(schedule)}, program, schedule,
                         deadline);
}

std::optional<std::future<Prediction>> PredictionService::preflight(RequestDeadline& deadline) {
  const bool has_default = options_.default_deadline.count() > 0;
  // Fast path: nothing configured — no clock read, no lock.
  if (!has_default && deadline == kNoDeadline && !admission_->enabled()) return std::nullopt;
  const auto now = std::chrono::steady_clock::now();
  if (has_default) deadline = std::min(deadline, now + options_.default_deadline);
  if (deadline != kNoDeadline && now >= deadline) {
    admission_->count_shed(ShedReason::kDeadlineSubmit);
    return failed_future(std::make_exception_ptr(
        DeadlineExceededError("PredictionService: deadline expired before submit")));
  }
  if (admission_->enabled()) {
    const AdmissionController::Decision decision =
        admission_->admit(batcher_.pending(), batcher_.oldest_age());
    if (!decision.admit)
      return failed_future(std::make_exception_ptr(AdmissionRejectedError(
          decision.reason == ShedReason::kQueueAge
              ? "PredictionService: overloaded, head of queue is already stale"
              : "PredictionService: overloaded, serving queue is full")));
  }
  return std::nullopt;
}

std::future<Prediction> PredictionService::submit_with_key(const PairKey& key,
                                                           const ir::Program& program,
                                                           const transforms::Schedule& schedule,
                                                           RequestDeadline deadline) {
  // Shed before featurization: an expired or rejected request must not cost
  // an IR walk, let alone a worker.
  if (auto shed = preflight(deadline)) return std::move(*shed);

  // Offer the raw pair to the measured-feedback buffer before featurization:
  // the buffer samples what clients *asked for*, featurizable or not. The
  // disabled (default) path is one relaxed atomic load; when enabled, the
  // buffer pointer has its own mutex so this never touches model_mu_,
  // which batch pinning and hot-swap share.
  if (has_feedback_.load(std::memory_order_acquire)) {
    std::shared_ptr<FeedbackBuffer> feedback;
    {
      std::lock_guard<std::mutex> lock(feedback_mu_);
      feedback = feedback_;
    }
    if (feedback) feedback->offer(program, schedule);
  }

  std::shared_ptr<const model::FeaturizedProgram> feats = cache_.get(key);
  if (!feats) {
    const std::uint64_t trace_id = obs::current_trace_id();
    if (trace_id != 0)
      obs::Tracer::instance().record("serve.cache_miss", trace_id, obs::Tracer::now_ns(),
                                     obs::Tracer::now_ns());
    const auto featurize_start = std::chrono::steady_clock::now();
    std::string error;
    auto fresh = model::featurize(program, schedule, options_.features, &error);
    stage_featurize_->observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - featurize_start).count());
    if (trace_id != 0)
      obs::Tracer::instance().record("serve.featurize", trace_id, to_trace_ns(featurize_start),
                                     obs::Tracer::now_ns());
    if (!fresh) {
      failed_requests_->inc();
      return failed_future(std::make_exception_ptr(
          std::invalid_argument("PredictionService: cannot featurize candidate: " + error)));
    }
    feats = cache_.put(key, std::make_shared<const model::FeaturizedProgram>(std::move(*fresh)));
  } else if (const std::uint64_t trace_id = obs::current_trace_id(); trace_id != 0) {
    const std::uint64_t now = obs::Tracer::now_ns();
    obs::Tracer::instance().record("serve.cache_hit", trace_id, now, now);
  }
  // preflight already ran (before featurization) — enqueue directly.
  return enqueue_request(std::move(feats), deadline);
}

std::future<Prediction> PredictionService::submit(
    std::shared_ptr<const model::FeaturizedProgram> feats, RequestDeadline deadline) {
  if (!feats) throw std::invalid_argument("PredictionService: null featurization");
  if (auto shed = preflight(deadline)) return std::move(*shed);
  return enqueue_request(std::move(feats), deadline);
}

std::future<Prediction> PredictionService::enqueue_request(
    std::shared_ptr<const model::FeaturizedProgram> feats, RequestDeadline deadline) {
  PendingRequest req;
  req.feats = std::move(feats);
  req.enqueued = std::chrono::steady_clock::now();
  req.deadline = deadline;
  // Carry the caller's trace context (0 when unsampled) across the thread
  // hop to the batch worker.
  req.trace_id = obs::current_trace_id();
  std::future<Prediction> result = req.result.get_future();
  batcher_.enqueue(std::move(req));
  return result;
}

std::vector<double> PredictionService::predict_many(
    const ir::Program& program, const std::vector<transforms::Schedule>& candidates,
    RequestDeadline deadline) {
  std::vector<std::future<Prediction>> futures;
  futures.reserve(candidates.size());
  // One program IR walk for the whole burst; only schedules vary per key.
  const std::uint64_t program_fp = fingerprint(program);
  for (const transforms::Schedule& s : candidates)
    futures.push_back(submit_with_key({program_fp, fingerprint(s)}, program, s, deadline));
  flush();
  std::vector<double> out;
  out.reserve(candidates.size());
  for (std::future<Prediction>& f : futures) out.push_back(f.get().speedup);
  return out;
}

void PredictionService::worker_loop(int worker_index) {
  WorkerState& ws = *worker_states_[static_cast<std::size_t>(worker_index)];
  obs::Watchdog::Handle heartbeat;
  if (options_.watchdog)
    heartbeat = options_.watchdog->register_thread(
        "batch_worker_" + std::to_string(worker_index), options_.worker_stall_after,
        /*critical=*/true);
  for (;;) {
    std::vector<PendingRequest> batch = batcher_.next_batch();  // idle while blocked
    if (batch.empty()) break;  // closed and drained
    if (options_.watchdog) options_.watchdog->set_busy(heartbeat, "run_batch");
    // Chaos site: a delay action wedges this worker with a batch popped, so
    // the queue backs up and admission control engages. Error actions are
    // swallowed — a stall site must never fail live traffic.
    try {
      TCM_FAILPOINT("batcher.stall");
    } catch (...) {
    }
    const std::size_t batch_size = batch.size();
    run_batch(std::move(batch), ws);
    batcher_.batch_done(batch_size);
    // Point-in-time serving gauges, refreshed once per batch (two relaxed
    // stores; far below the forward-pass cost).
    queue_depth_->set(static_cast<double>(batcher_.pending()));
    const std::uint64_t hits = cache_.hits(), misses = cache_.misses();
    if (hits + misses > 0)
      cache_hit_ratio_->set(static_cast<double>(hits) / static_cast<double>(hits + misses));
    // Step the degradation ladder back down as the queue drains: shed
    // arrivals never reach admit(), so recovery must be worker-driven.
    refresh_degradation();
    if (options_.watchdog) options_.watchdog->set_idle(heartbeat);
  }
  if (options_.watchdog) options_.watchdog->unregister(heartbeat);
}

void PredictionService::score_batch(model::SpeedupPredictor& predictor,
                                    const model::Batch& model_batch, WorkerState& ws,
                                    std::vector<double>& out) {
  // Tape-free: no autograd graph, scratch from the worker-local arena (zero
  // heap allocation once warm). infer_batch resets the arena.
  const int b = model_batch.batch_size();
  const nn::Tensor& pred = predictor.infer_batch(model_batch, ws.arena);
  if (pred.rows() != b)
    throw std::logic_error("PredictionService: predictor returned wrong batch size");
  out.clear();
  for (int row = 0; row < b; ++row) out.push_back(static_cast<double>(pred.at(row, 0)));
}

void PredictionService::count_arena_allocs(WorkerState& ws) {
  const std::uint64_t total = ws.arena.heap_allocations();
  if (total == ws.arena_allocs_counted) return;  // warm arena: no shared write
  arena_heap_allocs_->inc(total - ws.arena_allocs_counted);
  ws.arena_allocs_counted = total;
}

void PredictionService::refresh_degradation() {
  if (!admission_->enabled()) return;
  const int level = admission_->update(batcher_.pending());
  if (level == applied_level_.load(std::memory_order_relaxed)) return;
  applied_level_.store(level, std::memory_order_relaxed);
  // Level >= 2: flush partial batches four times sooner — worse occupancy,
  // but queued requests stop waiting for company they will not get served
  // in time with. Restored when the ladder steps back below 2. (Workers
  // race benignly here; set_max_latency is an idempotent no-op on repeats.)
  batcher_.set_max_latency(level >= 2 ? options_.max_queue_latency / 4
                                      : options_.max_queue_latency);
}

void PredictionService::run_batch(std::vector<PendingRequest> batch, WorkerState& ws) {
  const auto batch_start = std::chrono::steady_clock::now();
  // Shed point: requests whose deadline expired while they queued are failed
  // here, before any assembly or inference is spent on them.
  bool has_deadline = false;
  for (const PendingRequest& req : batch)
    if (req.deadline != kNoDeadline) {
      has_deadline = true;
      break;
    }
  if (has_deadline) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].deadline <= batch_start) {
        admission_->count_shed(ShedReason::kDeadlineBatch);
        batch[i].result.set_exception(std::make_exception_ptr(
            DeadlineExceededError("PredictionService: deadline expired in queue")));
        continue;
      }
      if (kept != i) batch[kept] = std::move(batch[i]);
      ++kept;
    }
    batch.resize(kept);
    if (batch.empty()) return;
  }
  const int b = static_cast<int>(batch.size());
  // Batch-level spans are attributed to the first sampled request in the
  // batch (its trace shows the batch it rode in); per-request spans (queue
  // wait, e2e) use each request's own trace id.
  std::uint64_t batch_trace = 0;
  for (const PendingRequest& req : batch) {
    if (req.trace_id != 0) {
      batch_trace = req.trace_id;
      break;
    }
  }
  batch_size_->observe(static_cast<double>(b));
  for (const PendingRequest& req : batch) {
    stage_queue_wait_->observe(std::chrono::duration<double>(batch_start - req.enqueued).count());
    if (req.trace_id != 0)
      obs::Tracer::instance().record("serve.queue_wait", req.trace_id, to_trace_ns(req.enqueued),
                                     to_trace_ns(batch_start));
  }

  std::vector<const model::FeaturizedProgram*> rows;
  rows.reserve(batch.size());
  for (const PendingRequest& req : batch) rows.push_back(req.feats.get());
  // The batch tree aliases rows[0], kept alive by batch[0].feats.
  const model::Batch model_batch = [&] {
    obs::ScopedSpan span("serve.batch_assemble", batch_trace);
    const auto assemble_start = std::chrono::steady_clock::now();
    model::Batch mb = model::make_inference_batch(rows);
    stage_batch_assemble_->observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - assemble_start).count());
    return mb;
  }();

  // Shed point: if every remaining request expired during assembly, skip the
  // forward pass entirely. A partially expired batch still runs — rows
  // cannot be removed once the batch tensors are built.
  if (has_deadline) {
    const auto pre_infer = std::chrono::steady_clock::now();
    bool all_expired = true;
    for (const PendingRequest& req : batch)
      if (req.deadline > pre_infer) {
        all_expired = false;
        break;
      }
    if (all_expired) {
      const auto error = std::make_exception_ptr(
          DeadlineExceededError("PredictionService: deadline expired before inference"));
      for (PendingRequest& req : batch) {
        admission_->count_shed(ShedReason::kDeadlineInfer);
        req.result.set_exception(error);
      }
      return;
    }
  }

  const std::uint64_t batch_index = batches_->inc();

  // Pin the model epoch for the whole batch: a concurrent swap_model()
  // cannot free it (refcount) and cannot make this batch mix models. The
  // shadow is pinned at the same point so the batch is scored against the
  // candidate that was installed when it ran, not one set later.
  std::shared_ptr<const ModelSnapshot> snapshot;
  std::shared_ptr<const ShadowState> shadow;
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    snapshot = model_;
    shadow = shadow_;
  }
  // Degradation level >= 1: pause canary evaluation, give the worker cycles
  // back to live traffic. The shadow stays installed and resumes when the
  // ladder steps back down.
  if (shadow && admission_->level() >= 1) shadow = nullptr;

  try {
    TCM_FAILPOINT("infer.throw");  // chaos site: fails exactly this batch's futures
    {
      obs::ScopedSpan span("serve.infer", batch_trace);
      const auto infer_start = std::chrono::steady_clock::now();
      score_batch(*snapshot->predictor, model_batch, ws, ws.preds);
      stage_infer_->observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - infer_start).count());
    }
    count_arena_allocs(ws);
    // Account before fulfilling the promises: a client that sees its future
    // ready must also see the request counted in stats().
    const auto done = std::chrono::steady_clock::now();
    for (const PendingRequest& req : batch) {
      e2e_latency_->observe(std::chrono::duration<double>(done - req.enqueued).count());
      if (req.trace_id != 0)
        obs::Tracer::instance().record("serve.e2e", req.trace_id, to_trace_ns(req.enqueued),
                                       to_trace_ns(done));
    }
    requests_->inc(static_cast<std::uint64_t>(b));
    if (options_.prediction_window > 0) {
      std::lock_guard<std::mutex> lock(recent_mu_);
      for (double pred : ws.preds) {
        if (recent_preds_.size() < options_.prediction_window) {
          recent_preds_.push_back(pred);
        } else {
          recent_preds_[recent_pred_next_] = pred;
          recent_pred_next_ = (recent_pred_next_ + 1) % options_.prediction_window;
        }
      }
    }
    for (int row = 0; row < b; ++row)
      batch[static_cast<std::size_t>(row)].result.set_value(
          {ws.preds[static_cast<std::size_t>(row)], snapshot->version});

    // Shadow scoring happens after the promises are fulfilled so a canary
    // never adds latency to live responses; quiesce() is the barrier for
    // readers that need the scoring of drained traffic to be complete.
    // ws.preds survives past set_value — the arena buffer does not (the
    // shadow forward reuses it), which is why predictions are staged in a
    // plain vector.
    if (shadow) {
      obs::ScopedSpan span("serve.shadow", batch_trace);
      const auto shadow_start = std::chrono::steady_clock::now();
      run_shadow(*shadow, model_batch, ws.preds, batch_index, ws);
      count_arena_allocs(ws);
      stage_shadow_->observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - shadow_start).count());
    }
  } catch (...) {
    failed_requests_->inc(static_cast<std::uint64_t>(b));
    const std::exception_ptr error = std::current_exception();
    for (PendingRequest& req : batch) req.result.set_exception(error);
  }
}

void PredictionService::run_shadow(const ShadowState& shadow, const model::Batch& model_batch,
                                   const std::vector<double>& incumbent_preds,
                                   std::uint64_t batch_index, WorkerState& ws) {
  // Deterministic per-batch sampling from a stream independent of the
  // inference Rng, so shadow coverage is reproducible in (seed, traffic).
  Rng sample_rng = Rng(options_.seed ^ 0x8f1bbcdc2d9d3b4fULL).split(batch_index);
  if (!sample_rng.bernoulli(shadow.sample_fraction)) return;
  const int b = model_batch.batch_size();
  try {
    std::vector<double> shadow_preds;
    shadow_preds.reserve(static_cast<std::size_t>(b));
    score_batch(*shadow.predictor, model_batch, ws, shadow_preds);
    ShadowWindow& window = *shadow_window_;
    std::lock_guard<std::mutex> lock(window.mu);
    shadow_requests_->inc(static_cast<std::uint64_t>(b));
    for (int row = 0; row < b; ++row) {
      const double inc = incumbent_preds[static_cast<std::size_t>(row)];
      const double sh = shadow_preds[static_cast<std::size_t>(row)];
      window.ape_sum += std::abs(sh - inc) / std::max(std::abs(inc), 1e-12);
      if (window.pairs.size() < options_.shadow_window) {
        window.pairs.emplace_back(inc, sh);
      } else {
        window.pairs[window.next] = {inc, sh};
        window.next = (window.next + 1) % options_.shadow_window;
      }
    }
  } catch (...) {
    shadow_failures_->inc();
  }
}

ServeStats PredictionService::stats() const {
  ServeStats s;
  s.requests = requests_->value();
  s.batches = batches_->value();
  s.failed_requests = failed_requests_->value();
  s.mean_batch_occupancy = mean_occupancy(s.requests, s.batches);
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.arena_heap_allocs = arena_heap_allocs_->value();
  s.model_swaps = model_swaps_->value();
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    s.active_version = model_->version;
    if (shadow_) s.shadow_version = shadow_->version;
  }
  {
    ShadowWindow& window = *shadow_window_;
    std::lock_guard<std::mutex> lock(window.mu);
    const std::uint64_t shadow_total = shadow_requests_->value();
    s.shadow_requests = shadow_total - window.requests_base;
    s.shadow_failures = shadow_failures_->value() - window.failures_base;
    s.shadow_mape = window.mape_locked(shadow_total);
  }
  s.shadow_spearman = shadow_window_->spearman();
  s.shed_requests = admission_->total_shed();
  s.degradation_level = admission_->level();
  // Interpolated out of the e2e histogram buckets — no ring to snapshot and
  // sort, and /metrics exports the full distribution these come from.
  s.p50_latency = e2e_latency_->quantile(0.50);
  s.p99_latency = e2e_latency_->quantile(0.99);
  return s;
}

}  // namespace tcm::serve
