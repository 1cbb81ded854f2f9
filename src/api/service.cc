#include "api/service.h"

#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <utility>
#include <vector>

#include "api/http_server.h"
#include "obs/event_log.h"
#include "obs/process.h"
#include "obs/trace.h"
#include "support/failpoint.h"
#include "support/log.h"

namespace tcm::api {

namespace {

// Persisted feedback snapshot format (a private durability file, not part of
// the wire surface, but built from the same v1 program/schedule codecs):
//   {"format":"tcm-feedback","version":1,"samples":[{"program":..,"schedule":..}]}
constexpr int kFeedbackFormatVersion = 1;

}  // namespace

Service::Service(ServiceOptions options)
    : options_(std::move(options)), started_(std::chrono::steady_clock::now()) {}

Service::~Service() { shutdown(); }

Result<std::unique_ptr<Service>> Service::open(ServiceOptions options) {
  try {
    // unique_ptr rather than make_unique: the constructor is private.
    std::unique_ptr<Service> svc(new Service(std::move(options)));
    const ServiceOptions& opt = svc->options_;
    if (opt.registry_root.empty())
      return Status::invalid_argument("ServiceOptions.registry_root must be set");

    svc->registry_ = std::make_shared<registry::ModelRegistry>(opt.registry_root);
    const int active = svc->registry_->active_version();
    if (active == 0)
      return Status::failed_precondition("registry at '" + opt.registry_root +
                                         "' has no ACTIVE version; register and promote a "
                                         "model before serving");
    const registry::ModelManifest manifest = svc->registry_->manifest(active);
    const std::uint64_t serving_hash = registry::feature_config_hash(opt.serve.features);
    if (manifest.feature_hash != serving_hash)
      return Status::failed_precondition(
          "feature-config hash mismatch: serving featurization does not match the ACTIVE "
          "version's manifest (v" +
          std::to_string(active) + ")");

    std::shared_ptr<model::SpeedupPredictor> predictor;
    try {
      predictor = svc->registry_->load(active);
    } catch (const std::exception& e) {
      return Status::failed_precondition("ACTIVE checkpoint v" + std::to_string(active) +
                                         " failed to load: " + e.what());
    }
    // One metrics registry for the whole stack: every subsystem keeps its
    // counters, gauges and histograms here and /metrics renders it in one
    // pass. Likewise one watchdog: every background thread of the stack (and
    // of the HTTP layer, which receives it via tcm_serve) heartbeats into
    // the same /healthz verdict.
    svc->metrics_ = opt.serve.metrics ? opt.serve.metrics
                                      : std::make_shared<obs::MetricsRegistry>();
    svc->watchdog_ = opt.serve.watchdog ? opt.serve.watchdog
                                        : std::make_shared<obs::Watchdog>();
    // Process self-metrics and the autopilot/drift families are registered
    // up front (zero-valued until their producers run) so the /metrics
    // surface is complete from the first scrape, autopilot or not.
    obs::register_process_metrics(*svc->metrics_);
    registry::register_autopilot_metrics(*svc->metrics_);
    declare_http_request_family(*svc->metrics_);
    svc->metrics_
        ->gauge("tcm_autopilot_enabled", "1 when the continual-learning autopilot runs")
        .set(opt.enable_autopilot ? 1.0 : 0.0);
    svc->metrics_
        ->gauge("tcm_feedback_enabled", "1 when the measured-feedback buffer is installed")
        .set(opt.enable_feedback ? 1.0 : 0.0);
    // The callback co-owns the model registry: the metrics registry may
    // outlive the façade.
    svc->metrics_->gauge_callback(
        "tcm_model_previous_version", "Rollback target version (0 when none)", "",
        [models = svc->registry_] { return static_cast<double>(models->previous_version()); });
    serve::ServeOptions serve_opt = opt.serve;
    serve_opt.metrics = svc->metrics_;
    serve_opt.watchdog = svc->watchdog_;
    svc->service_ =
        std::make_unique<serve::PredictionService>(std::move(predictor), active, serve_opt);

    if (opt.enable_feedback) {
      svc->feedback_ = std::make_shared<serve::FeedbackBuffer>(opt.feedback, svc->metrics_);
      if (opt.persist_feedback) svc->restore_feedback();
      svc->service_->set_feedback(svc->feedback_);
    }

    if (opt.enable_search) {
      jobs::SearchJobManagerOptions sopt = opt.search;
      sopt.metrics = svc->metrics_;
      sopt.watchdog = svc->watchdog_;
      if (sopt.memory_path.empty())
        sopt.memory_path = opt.registry_root + "/schedule_memory.json";
      svc->search_jobs_ =
          std::make_unique<jobs::SearchJobManager>(*svc->service_, std::move(sopt));
    }

    if (opt.enable_autopilot) {
      registry::ContinualTrainerOptions topt = opt.trainer;
      topt.feedback = svc->feedback_;  // may be null: trainer treats as disabled
      svc->trainer_ = std::make_unique<registry::ContinualTrainer>(*svc->registry_,
                                                                   *svc->service_, topt);
      registry::ContinualSchedulerOptions sopt = opt.scheduler;
      sopt.metrics = svc->metrics_;
      sopt.watchdog = svc->watchdog_;
      svc->scheduler_ = std::make_unique<registry::ContinualScheduler>(
          *svc->registry_, *svc->service_, *svc->trainer_, sopt);
      svc->scheduler_->start();
    }
    return svc;
  } catch (const std::exception& e) {
    return status_from_exception(e);
  } catch (...) {
    return Status::internal("Service::open: unknown exception");
  }
}

Result<PredictResponse> Service::predict(const PredictRequest& request) {
  if (shut_down_.load(std::memory_order_acquire))
    return Status::unavailable("service is shut down");
  TCM_TRACE_SPAN("api.predict");
  try {
    if (request.schedules.empty())
      return Status::invalid_argument("predict: at least one schedule required");
    if (auto problem = request.program.validate())
      return Status::invalid_argument("predict: invalid program: " + *problem);

    std::vector<std::future<serve::Prediction>> futures;
    futures.reserve(request.schedules.size());
    for (const transforms::Schedule& schedule : request.schedules)
      futures.push_back(service_->submit(request.program, schedule, request.deadline));
    service_->flush();  // no tail request waits out the batching deadline

    PredictResponse response;
    response.predictions.reserve(futures.size());
    Status first_error;
    for (std::future<serve::Prediction>& f : futures) {
      try {
        const serve::Prediction p = f.get();
        response.predictions.push_back({p.speedup, p.model_version});
      } catch (const std::exception& e) {
        // Keep draining the remaining futures (their batches are in flight
        // regardless); report the first failure for the whole request.
        if (first_error.ok()) {
          Status s = status_from_exception(e);
          // Serving-path runtime errors are not preconditions the client can
          // fix by retrying differently; surface them as INTERNAL.
          if (s.code() == StatusCode::kFailedPrecondition)
            s = Status::internal(s.message());
          first_error = s;
        }
      }
    }
    if (!first_error.ok()) return first_error;
    return response;
  } catch (const std::exception& e) {
    Status s = status_from_exception(e);
    if (s.code() == StatusCode::kFailedPrecondition) s = Status::internal(s.message());
    return s;
  } catch (...) {
    return Status::internal("predict: unknown exception");
  }
}

Result<jobs::SearchJobInfo> Service::submit_search(const SearchRequest& request) {
  if (shut_down_.load(std::memory_order_acquire))
    return Status::unavailable("service is shut down");
  if (!search_jobs_)
    return Status::unimplemented("search service is disabled (enable_search=false)");
  TCM_TRACE_SPAN("api.search.submit");
  try {
    if (auto problem = request.program.validate())
      return Status::invalid_argument("search: invalid program: " + *problem);
    jobs::SearchJobRequest job;
    job.program = request.program;
    job.method = request.method;
    job.beam_width = request.beam_width;
    job.mcts_iterations = request.mcts_iterations;
    job.deadline = request.deadline;
    const std::string id = search_jobs_->submit(std::move(job));
    std::optional<jobs::SearchJobInfo> info = search_jobs_->info(id);
    if (!info) return Status::internal("search: job '" + id + "' vanished after submit");
    return *std::move(info);
  } catch (const std::exception& e) {
    return status_from_exception(e);
  } catch (...) {
    return Status::internal("submit_search: unknown exception");
  }
}

Result<jobs::SearchJobInfo> Service::search_job(const std::string& id) const {
  if (!search_jobs_)
    return Status::unimplemented("search service is disabled (enable_search=false)");
  std::optional<jobs::SearchJobInfo> info = search_jobs_->info(id);
  if (!info) return Status::not_found("no search job '" + id + "'");
  return *std::move(info);
}

Result<std::vector<jobs::SearchJobInfo>> Service::list_searches() const {
  if (!search_jobs_)
    return Status::unimplemented("search service is disabled (enable_search=false)");
  return search_jobs_->list();
}

Result<jobs::SearchJobInfo> Service::cancel_search(const std::string& id) {
  if (!search_jobs_)
    return Status::unimplemented("search service is disabled (enable_search=false)");
  if (!search_jobs_->cancel(id)) return Status::not_found("no search job '" + id + "'");
  std::optional<jobs::SearchJobInfo> info = search_jobs_->info(id);
  if (!info) return Status::not_found("no search job '" + id + "'");
  return *std::move(info);
}

Result<std::vector<ModelInfo>> Service::models() const {
  if (shut_down_.load(std::memory_order_acquire))
    return Status::unavailable("service is shut down");
  try {
    const int active = registry_->active_version();
    const int previous = registry_->previous_version();
    std::vector<ModelInfo> out;
    for (registry::ModelManifest& m : registry_->list()) {
      ModelInfo info;
      info.active = m.version == active;
      info.previous = m.version == previous;
      info.manifest = std::move(m);
      out.push_back(std::move(info));
    }
    return out;
  } catch (const std::exception& e) {
    return status_from_exception(e);
  }
}

Status Service::promote(int version) {
  if (shut_down_.load(std::memory_order_acquire))
    return Status::unavailable("service is shut down");
  std::lock_guard<std::mutex> lock(admin_mu_);
  try {
    try {
      (void)registry_->manifest(version);
    } catch (const std::exception& e) {
      return Status::not_found("model version " + std::to_string(version) +
                               " not found: " + e.what());
    }
    // Load through the registry's integrity checks *before* touching the
    // ACTIVE pointer: a tampered or torn checkpoint must surface as a
    // status while the incumbent keeps serving.
    std::shared_ptr<model::SpeedupPredictor> next;
    try {
      next = registry_->load(version);
    } catch (const std::exception& e) {
      return Status::failed_precondition("checkpoint v" + std::to_string(version) +
                                         " rejected: " + e.what());
    }
    const int from = registry_->active_version();
    registry_->promote(version);
    service_->swap_model(std::move(next), version);
    obs::EventLog::instance().emit(
        "promote", "info",
        "from=v" + std::to_string(from) + " to=v" + std::to_string(version) + " by=api",
        obs::current_trace_id());
    // The drift window must not compare the new model's predictions against
    // the old model's.
    service_->clear_recent_predictions();
    return Status();
  } catch (const std::exception& e) {
    return status_from_exception(e);
  } catch (...) {
    return Status::internal("promote: unknown exception");
  }
}

Result<int> Service::rollback() {
  if (shut_down_.load(std::memory_order_acquire))
    return Status::unavailable("service is shut down");
  std::lock_guard<std::mutex> lock(admin_mu_);
  try {
    const int previous = registry_->previous_version();
    if (previous == 0) return Status::failed_precondition("no previous version to roll back to");
    std::shared_ptr<model::SpeedupPredictor> next;
    try {
      next = registry_->load(previous);
    } catch (const std::exception& e) {
      return Status::failed_precondition("rollback target v" + std::to_string(previous) +
                                         " rejected: " + e.what());
    }
    const int from = registry_->active_version();
    const int restored = registry_->rollback();
    service_->swap_model(std::move(next), restored);
    obs::EventLog::instance().emit(
        "rollback", "warn",
        "from=v" + std::to_string(from) + " to=v" + std::to_string(restored) + " by=api",
        obs::current_trace_id());
    service_->clear_recent_predictions();
    return restored;
  } catch (const std::exception& e) {
    return status_from_exception(e);
  } catch (...) {
    return Status::internal("rollback: unknown exception");
  }
}

StatsSnapshot Service::stats() const {
  StatsSnapshot snap;
  snap.serve = service_->stats();
  snap.active_version = snap.serve.active_version;
  snap.previous_version = registry_->previous_version();
  snap.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started_).count();
  if (scheduler_) {
    snap.autopilot.enabled = true;
    snap.autopilot.polls = scheduler_->polls();
    snap.autopilot.cycles = scheduler_->cycles_run();
    snap.autopilot.last = scheduler_->last_report();
    const std::vector<registry::SchedulerEvent> events = scheduler_->history();
    snap.autopilot.triggers = events.size();
    for (const registry::SchedulerEvent& e : events)
      if (e.cycle_failed) ++snap.autopilot.cycle_failures;
  }
  if (feedback_) {
    snap.feedback.enabled = true;
    snap.feedback.offered = feedback_->offered();
    snap.feedback.sampled = feedback_->sampled();
    snap.feedback.buffered = feedback_->size();
  }
  if (search_jobs_) {
    snap.search.enabled = true;
    snap.search.jobs = search_jobs_->stats();
  }
  return snap;
}

namespace {

Json drift_signal_json(const serve::DriftSignal& s) {
  Json j = Json::object();
  j.set("value", Json(s.value));
  j.set("threshold", Json(s.threshold));
  j.set("fired", Json(s.fired));
  j.set("samples", Json(s.samples));
  return j;
}

}  // namespace

Json Service::debug_state() const {
  Json state = Json::object();
  state.set("shut_down", Json(shut_down_.load(std::memory_order_acquire)));
  state.set("uptime_seconds",
            Json(std::chrono::duration<double>(std::chrono::steady_clock::now() - started_)
                     .count()));

  // Registry: every version plus the ACTIVE fine-tune lineage. list() reads
  // disk and can throw (e.g. registry root deleted under us) — a debug
  // endpoint must report that, not take the server down.
  Json registry = Json::object();
  try {
    const int active = registry_->active_version();
    const int previous = registry_->previous_version();
    registry.set("active", Json(active));
    registry.set("previous", Json(previous));
    Json versions = Json::array();
    std::vector<registry::ModelManifest> manifests = registry_->list();
    for (const registry::ModelManifest& m : manifests) {
      Json v = Json::object();
      v.set("version", Json(m.version));
      v.set("parent_version", Json(m.parent_version));
      v.set("model_kind", Json(m.model_kind));
      v.set("created_unix", Json(m.created_unix));
      v.set("holdout_mape", Json(m.metrics.mape));
      v.set("provenance", Json(m.provenance));
      versions.push_back(std::move(v));
    }
    registry.set("versions", std::move(versions));
    // Walk the parent chain from ACTIVE (bounded by the version count so a
    // cyclic manifest cannot hang the endpoint).
    Json lineage = Json::array();
    int cursor = active;
    for (std::size_t hops = 0; cursor != 0 && hops <= manifests.size(); ++hops) {
      lineage.push_back(Json(cursor));
      int parent = 0;
      for (const registry::ModelManifest& m : manifests)
        if (m.version == cursor) parent = m.parent_version;
      cursor = parent;
    }
    registry.set("active_lineage", std::move(lineage));
  } catch (const std::exception& e) {
    registry.set("error", Json(std::string(e.what())));
  }
  state.set("registry", std::move(registry));

  // Serving: counters plus the live batcher/cache state the counters hide.
  const serve::ServeStats sstats = service_->stats();
  Json serving = Json::object();
  serving.set("active_version", Json(sstats.active_version));
  serving.set("requests", Json(sstats.requests));
  serving.set("batches", Json(sstats.batches));
  serving.set("failed_requests", Json(sstats.failed_requests));
  serving.set("queue_depth", Json(static_cast<std::uint64_t>(service_->pending())));
  serving.set("mean_batch_occupancy", Json(sstats.mean_batch_occupancy));
  serving.set("p50_latency_seconds", Json(sstats.p50_latency));
  serving.set("p99_latency_seconds", Json(sstats.p99_latency));
  serving.set("model_swaps", Json(sstats.model_swaps));
  serving.set("shadow_version", Json(sstats.shadow_version));
  serving.set("shed_requests", Json(sstats.shed_requests));
  serving.set("degradation_level", Json(sstats.degradation_level));
  Json cache = Json::object();
  cache.set("hits", Json(sstats.cache_hits));
  cache.set("misses", Json(sstats.cache_misses));
  const std::uint64_t lookups = sstats.cache_hits + sstats.cache_misses;
  cache.set("hit_ratio", Json(lookups == 0 ? 0.0
                                           : static_cast<double>(sstats.cache_hits) /
                                                 static_cast<double>(lookups)));
  serving.set("cache", std::move(cache));
  state.set("serving", std::move(serving));

  // Autopilot: phase + budget counters + the drift window as last observed.
  Json autopilot = Json::object();
  autopilot.set("enabled", Json(scheduler_ != nullptr));
  if (scheduler_) {
    autopilot.set("phase", Json(scheduler_->phase()));
    autopilot.set("polls", Json(scheduler_->polls()));
    autopilot.set("cycles", Json(scheduler_->cycles_run()));
    const std::vector<registry::SchedulerEvent> events = scheduler_->history();
    autopilot.set("triggers", Json(static_cast<std::uint64_t>(events.size())));
    std::uint64_t failures = 0;
    for (const registry::SchedulerEvent& e : events)
      if (e.cycle_failed) ++failures;
    autopilot.set("cycle_failures", Json(failures));
    Json breaker = Json::object();
    breaker.set("state", Json(std::string(scheduler_->breaker_state())));
    breaker.set("times_opened", Json(scheduler_->breaker_times_opened()));
    breaker.set("consecutive_failures", Json(scheduler_->breaker_consecutive_failures()));
    autopilot.set("breaker", std::move(breaker));
    const serve::DriftReport report = scheduler_->last_report();
    Json drift = Json::object();
    drift.set("psi", drift_signal_json(report.psi));
    drift.set("ks", drift_signal_json(report.ks));
    drift.set("failure_rate", drift_signal_json(report.failure_rate));
    drift.set("shadow_mape", drift_signal_json(report.shadow_mape));
    drift.set("shadow_spearman", drift_signal_json(report.shadow_spearman));
    drift.set("reference_size", Json(static_cast<std::uint64_t>(report.reference_size)));
    drift.set("window_size", Json(static_cast<std::uint64_t>(report.window_size)));
    drift.set("drifted", Json(report.drifted));
    drift.set("reason", Json(report.reason));
    autopilot.set("drift", std::move(drift));
  }
  state.set("autopilot", std::move(autopilot));

  Json feedback = Json::object();
  feedback.set("enabled", Json(feedback_ != nullptr));
  if (feedback_) {
    feedback.set("offered", Json(feedback_->offered()));
    feedback.set("sampled", Json(feedback_->sampled()));
    feedback.set("buffered", Json(static_cast<std::uint64_t>(feedback_->size())));
  }
  state.set("feedback", std::move(feedback));

  // Search jobs: queue pressure plus schedule-memory effectiveness, the two
  // numbers that explain why autoscheduling latency looks the way it does.
  Json search = Json::object();
  search.set("enabled", Json(search_jobs_ != nullptr));
  if (search_jobs_) {
    const jobs::SearchJobStats sjstats = search_jobs_->stats();
    search.set("submitted", Json(sjstats.submitted));
    search.set("done", Json(sjstats.done));
    search.set("failed", Json(sjstats.failed));
    search.set("cancelled", Json(sjstats.cancelled));
    search.set("reused", Json(sjstats.reused));
    search.set("running", Json(static_cast<std::uint64_t>(sjstats.running)));
    search.set("queued", Json(static_cast<std::uint64_t>(sjstats.queued)));
    Json memory = Json::object();
    memory.set("path", Json(search_jobs_->memory().path()));
    memory.set("entries", Json(static_cast<std::uint64_t>(sjstats.memory.entries)));
    memory.set("exact_hits", Json(sjstats.memory.exact_hits));
    memory.set("shape_hits", Json(sjstats.memory.shape_hits));
    memory.set("misses", Json(sjstats.memory.misses));
    memory.set("stores", Json(sjstats.memory.stores));
    search.set("memory", std::move(memory));
  }
  state.set("search", std::move(search));

  // Watchdog: per-thread heartbeat ages, so a wedged worker is visible here
  // with the same detail /healthz summarizes.
  const obs::Watchdog::Report wreport = watchdog_->report();
  Json watchdog = Json::object();
  watchdog.set("health", Json(obs::Watchdog::health_name(wreport.health)));
  if (!wreport.reason.empty()) watchdog.set("reason", Json(wreport.reason));
  Json threads = Json::array();
  for (const obs::Watchdog::ThreadReport& t : wreport.threads) {
    Json tj = Json::object();
    tj.set("name", Json(t.name));
    tj.set("critical", Json(t.critical));
    tj.set("idle", Json(t.idle));
    tj.set("activity", Json(t.activity));
    tj.set("age_seconds", Json(t.age_seconds));
    tj.set("stall_after_seconds", Json(t.stall_after_seconds));
    tj.set("stalled", Json(t.stalled));
    threads.push_back(std::move(tj));
  }
  watchdog.set("threads", std::move(threads));
  state.set("watchdog", std::move(watchdog));

  Json events = Json::object();
  events.set("emitted", Json(obs::EventLog::instance().total_emitted()));
  events.set("capacity",
             Json(static_cast<std::uint64_t>(obs::EventLog::instance().capacity())));
  state.set("events", std::move(events));

  // Chaos state: whether the fault-injection sites are compiled in and what
  // is currently armed — an operator reading a sick replica's debug dump
  // must be able to tell injected faults from real ones at a glance.
  Json failpoints = Json::object();
  failpoints.set("compiled", Json(support::failpoints_compiled()));
  Json armed = Json::array();
  for (const std::string& site : support::failpoint_armed()) armed.push_back(Json(site));
  failpoints.set("armed", std::move(armed));
  state.set("failpoints", std::move(failpoints));
  return state;
}

Status Service::healthy() const {
  if (shut_down_.load(std::memory_order_acquire))
    return Status::unavailable("service is shut down");
  return Status();
}

std::string Service::degraded_reason() const {
  if (scheduler_ && scheduler_->breaker_open()) return "autopilot circuit breaker open";
  return {};
}

Status Service::quiesce() {
  if (shut_down_.load(std::memory_order_acquire))
    return Status::unavailable("service is shut down");
  std::lock_guard<std::mutex> lock(admin_mu_);
  try {
    service_->quiesce();
    return persist_feedback_now();
  } catch (const std::exception& e) {
    return status_from_exception(e);
  }
}

void Service::shutdown() {
  std::lock_guard<std::mutex> lock(admin_mu_);
  if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;
  if (scheduler_) scheduler_->stop();
  // Search workers score through service_; they must drain before it does.
  if (search_jobs_) search_jobs_->stop();
  try {
    if (service_) service_->quiesce();
    const Status persisted = persist_feedback_now();
    if (!persisted.ok())
      log_warn() << "shutdown: feedback persistence failed: " << persisted.to_string();
  } catch (const std::exception& e) {
    log_warn() << "shutdown: quiesce failed: " << e.what();
  }
}

int Service::active_version() const { return service_->active_version(); }

std::string Service::feedback_file() const {
  if (!options_.feedback_path.empty()) return options_.feedback_path;
  return options_.registry_root + "/feedback.json";
}

void Service::restore_feedback() {
  const std::string path = feedback_file();
  std::ifstream in(path, std::ios::binary);
  if (!in) return;  // nothing persisted
  std::ostringstream buf;
  buf << in.rdbuf();
  in.close();
  // Consume the file up front: whatever happens below, the samples can
  // never be restored a second time by a later restart.
  std::error_code ec;
  std::filesystem::remove(path, ec);

  Result<Json> doc = Json::parse(buf.str());
  std::vector<serve::ServedSample> samples;
  Status problem;
  if (!doc.ok()) {
    problem = doc.status();
  } else {
    const Json* version = doc->find("version");
    const Json* list = doc->find("samples");
    if (version == nullptr || !version->is_int() ||
        version->as_int() != kFeedbackFormatVersion || list == nullptr || !list->is_array()) {
      problem = Status::invalid_argument("unrecognized feedback snapshot layout");
    } else {
      for (const Json& item : list->as_array()) {
        const Json* pj = item.find("program");
        const Json* sj = item.find("schedule");
        if (pj == nullptr || sj == nullptr) continue;
        Result<ir::Program> program = program_from_json(*pj);
        Result<transforms::Schedule> schedule = schedule_from_json(*sj);
        if (!program.ok() || !schedule.ok()) continue;  // skip torn samples
        samples.push_back({program.take(), schedule.take()});
      }
    }
  }
  if (!problem.ok()) {
    // Losing the snapshot is benign (it is a sample of traffic); refusing
    // to serve over it would not be.
    log_warn() << "discarding corrupt feedback snapshot '" << path
               << "': " << problem.to_string();
    return;
  }
  feedback_->restore(std::move(samples));
}

Status Service::persist_feedback_now() {
  if (!feedback_ || !options_.persist_feedback) return Status();
  try {
    Json list = Json::array();
    for (const serve::ServedSample& s : feedback_->snapshot()) {
      Json item = Json::object();
      item.set("program", to_json(s.program));
      item.set("schedule", to_json(s.schedule));
      list.push_back(std::move(item));
    }
    Json doc = Json::object();
    doc.set("format", Json("tcm-feedback"));
    doc.set("version", Json(static_cast<std::int64_t>(kFeedbackFormatVersion)));
    doc.set("samples", std::move(list));

    const std::string path = feedback_file();
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) return Status::internal("cannot write feedback snapshot to " + tmp);
      out << doc.dump();
      if (!out.flush()) return Status::internal("short write persisting feedback to " + tmp);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) return Status::internal("cannot publish feedback snapshot: " + ec.message());
    return Status();
  } catch (const std::exception& e) {
    return status_from_exception(e);
  }
}

}  // namespace tcm::api
