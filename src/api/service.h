// The stable tcm::api façade: one object that owns the whole serving stack.
//
// Below this line the system is five in-process subsystems with three error
// conventions (model/ and dataset throw, registry throws runtime_error,
// serve surfaces exceptions on futures). Service composes them —
//
//   ModelRegistry (durable versions)  ──load_active──►  PredictionService
//        ▲      ▲                                         │       ▲
//        │      └── ContinualTrainer ◄── drift ── ContinualScheduler
//        │                 ▲
//        └──────── FeedbackBuffer (persisted across restarts)
//
// — behind the versioned request/response structs of wire.h and a typed
// Status/Result error model: every throw reachable from serving is caught
// at this boundary and mapped to a StatusCode, so a corrupt checkpoint or a
// malformed request degrades to an error response instead of killing the
// process. The HTTP layer (http_server.h + rest.h) is a thin adapter over
// exactly this class; in-process embedders (outer search loops, tuners)
// call it directly and get identical semantics — the parity tests assert
// bitwise-equal predictions between the two paths.
//
// Thread-safety contract: all public methods are safe to call concurrently.
// predict() scales across callers (it rides PredictionService's worker
// pool); promote()/rollback()/quiesce()/shutdown() serialize on an internal
// admin mutex; stats()/healthy() are wait-free snapshots of counters. After
// shutdown() every serving/mutating entry point (predict, models, promote,
// rollback, quiesce) returns UNAVAILABLE and healthy() reports it; the
// read-only observers stats()/active_version() keep answering so a
// draining instance can still be scraped. raw_service() and
// raw_registry() expose the underlying subsystems for callers that
// knowingly want in-process semantics (futures, exceptions, manual
// batching); anything touched through them is outside the façade's
// no-exceptions guarantee — see README "Serving API" for guidance.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>

#include "api/status.h"
#include "api/wire.h"
#include "jobs/job_manager.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "registry/continual_scheduler.h"
#include "registry/continual_trainer.h"
#include "registry/model_registry.h"
#include "serve/feedback_buffer.h"
#include "serve/prediction_service.h"

namespace tcm::api {

struct ServiceOptions {
  // Registry root directory; must contain an ACTIVE version whose
  // feature-config hash matches `serve.features` (open() checks both).
  std::string registry_root;

  serve::ServeOptions serve;

  // Measured-feedback sampling of served (program, schedule) pairs.
  bool enable_feedback = true;
  serve::FeedbackBufferOptions feedback;
  // The reservoir persists here on quiesce()/shutdown() and is restored (and
  // the file consumed) at open(), so sampled-but-untrained traffic survives
  // restarts without ever double-counting drained samples. Empty = default
  // "<registry_root>/feedback.json"; persist_feedback=false disables.
  bool persist_feedback = true;
  std::string feedback_path;

  // Drift-triggered continual-learning autopilot (off by default: it spends
  // training compute). `trainer.feedback` is wired to the service's buffer
  // automatically when feedback is enabled.
  bool enable_autopilot = false;
  registry::ContinualTrainerOptions trainer;
  registry::ContinualSchedulerOptions scheduler;

  // Async autoscheduling job service (POST /v1/search). The manager shares
  // the façade's metrics/watchdog and scores through the same
  // PredictionService as interactive predictions. `search.memory_path`
  // defaults to "<registry_root>/schedule_memory.json" when left empty and
  // search is enabled; set it to keep the schedule-reuse memory elsewhere.
  bool enable_search = true;
  jobs::SearchJobManagerOptions search;
};

class Service {
 public:
  // Builds the full stack. Fails (never throws) with:
  //   FAILED_PRECONDITION  registry unopenable, no ACTIVE version, feature
  //                        hash mismatch, corrupt ACTIVE checkpoint
  //   INTERNAL             anything else
  // A corrupt persisted feedback file is not fatal: it is discarded (the
  // buffer simply starts empty) — losing samples is benign, refusing to
  // serve is not.
  static Result<std::unique_ptr<Service>> open(ServiceOptions options);

  ~Service();  // shutdown() if the caller has not already

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Scores every schedule in the request against the program. Blocking
  // (rides the worker pool; concurrent callers batch together). Items are
  // in request order; each is tagged with the model version that scored it
  // (a hot-swap mid-request may split a batch across versions).
  //   INVALID_ARGUMENT  invalid program/schedule, featurization failure
  //   UNAVAILABLE       after shutdown()
  //   INTERNAL          forward-pass failure
  Result<PredictResponse> predict(const PredictRequest& request);

  // Registry versions, ascending, with lifecycle roles.
  Result<std::vector<ModelInfo>> models() const;

  // Submits an async autoscheduling job and returns its snapshot (already
  // DONE with reused=true on a schedule-memory hit).
  //   INVALID_ARGUMENT     invalid program / options
  //   RESOURCE_EXHAUSTED   job queue over cap (HTTP 429 + Retry-After)
  //   UNIMPLEMENTED        search disabled (enable_search=false)
  //   UNAVAILABLE          after shutdown()
  Result<jobs::SearchJobInfo> submit_search(const SearchRequest& request);

  // Snapshot of one job (NOT_FOUND for unknown/evicted ids).
  Result<jobs::SearchJobInfo> search_job(const std::string& id) const;

  // All job snapshots, newest first.
  Result<std::vector<jobs::SearchJobInfo>> list_searches() const;

  // Requests cancellation and returns the post-cancel snapshot (a job that
  // already reached a terminal state keeps it — cancel is not un-done).
  Result<jobs::SearchJobInfo> cancel_search(const std::string& id);

  // The raw manager, for the event-stream endpoint (blocking reads must not
  // go through the snapshot API). Null when search is disabled.
  jobs::SearchJobManager* search_jobs() { return search_jobs_.get(); }

  // Validates that `version` exists (NOT_FOUND otherwise) and that its
  // checkpoint actually loads through the registry's integrity checks
  // (FAILED_PRECONDITION on a corrupt/tampered/mismatched checkpoint — the
  // incumbent keeps serving), then moves ACTIVE and hot-swaps live traffic
  // with zero downtime.
  Status promote(int version);

  // Re-promotes the previous version and hot-swaps to it. The loaded-before-
  // promoted order means a corrupt rollback target leaves ACTIVE untouched.
  Result<int> rollback();

  // Keeps answering after shutdown() (with the final counters): a drained
  // instance must still be scrapeable by /metrics until the process exits.
  StatsSnapshot stats() const;

  // One JSON snapshot of everything an operator asks first: registry
  // versions with the ACTIVE lineage (parent chain), serving/batcher/cache
  // state, the last drift report, the scheduler phase, feedback fill,
  // watchdog heartbeat ages and the event-log high-water mark. The
  // /debug/state payload; answers after shutdown() like stats().
  Json debug_state() const;

  // OK while serving; UNAVAILABLE after shutdown().
  Status healthy() const;

  // Non-fatal degradation detail for /healthz: empty while fully healthy,
  // e.g. "autopilot circuit breaker open" while the cycle breaker cools
  // down. Serving keeps answering (the endpoint stays 200, status
  // "degraded") — this is operator signal, not readiness.
  std::string degraded_reason() const;

  // Drains in-flight work and persists the feedback reservoir (when
  // configured). Serving continues afterwards.
  Status quiesce();

  // Stops the autopilot, quiesces, persists feedback, and flips the façade
  // to UNAVAILABLE. Idempotent; called by the destructor.
  void shutdown();

  int active_version() const;

  // The metrics registry shared by the whole stack (serving, feedback,
  // search, autopilot, process, plus whatever the HTTP layer registers);
  // /metrics renders it in one pass.
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const { return metrics_; }

  // The watchdog every background thread of the stack registers with (batch
  // workers, autopilot poller; the HTTP layer adds its acceptor/workers via
  // HttpServerOptions::watchdog). /healthz folds its report into readiness.
  // Never null after open().
  const std::shared_ptr<obs::Watchdog>& watchdog() const { return watchdog_; }

  // Escape hatches (see class comment): the façade's Status guarantee does
  // not cover direct calls on these.
  serve::PredictionService& raw_service() { return *service_; }
  registry::ModelRegistry& raw_registry() { return *registry_; }
  // Null when feedback is disabled. Draining it is the continual trainer's
  // job; drained samples leave the reservoir and are never persisted again.
  const std::shared_ptr<serve::FeedbackBuffer>& feedback_buffer() const { return feedback_; }
  const ServiceOptions& options() const { return options_; }

 private:
  explicit Service(ServiceOptions options);

  std::string feedback_file() const;
  void restore_feedback();         // called once from open()
  Status persist_feedback_now();   // snapshot -> tmp -> rename

  ServiceOptions options_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::shared_ptr<obs::Watchdog> watchdog_;
  // Shared with the tcm_model_previous_version callback gauge.
  std::shared_ptr<registry::ModelRegistry> registry_;
  std::shared_ptr<serve::FeedbackBuffer> feedback_;
  std::unique_ptr<serve::PredictionService> service_;
  std::unique_ptr<jobs::SearchJobManager> search_jobs_;  // null when disabled
  std::unique_ptr<registry::ContinualTrainer> trainer_;
  std::unique_ptr<registry::ContinualScheduler> scheduler_;
  std::chrono::steady_clock::time_point started_;

  mutable std::mutex admin_mu_;  // promote/rollback/quiesce/shutdown
  std::atomic<bool> shut_down_{false};
};

}  // namespace tcm::api
