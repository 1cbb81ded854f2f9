#include "registry/continual_scheduler.h"

#include <cstdio>
#include <exception>

#include "obs/event_log.h"
#include "obs/trace.h"
#include "support/log.h"

namespace tcm::registry {

namespace {

// "psi=0.31/0.25 ks=0.12/0.35 ... window=512 reference=512" — the full
// signal state at trigger time, so the flight recorder alone can answer
// "why did this cycle run".
std::string drift_detail(const serve::DriftReport& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "psi=%.4g/%.4g ks=%.4g/%.4g failure_rate=%.4g/%.4g shadow_mape=%.4g "
                "shadow_spearman=%.4g window=%zu reference=%zu",
                r.psi.value, r.psi.threshold, r.ks.value, r.ks.threshold, r.failure_rate.value,
                r.failure_rate.threshold, r.shadow_mape.value, r.shadow_spearman.value,
                r.window_size, r.reference_size);
  return buf;
}

}  // namespace

void AutopilotMetrics::update_drift(const serve::DriftReport& report) const {
  if (signal_psi == nullptr) return;
  signal_psi->set(report.psi.value);
  signal_ks->set(report.ks.value);
  signal_failure_rate->set(report.failure_rate.value);
  signal_shadow_mape->set(report.shadow_mape.value);
  signal_shadow_spearman->set(report.shadow_spearman.value);
  threshold_psi->set(report.psi.threshold);
  threshold_ks->set(report.ks.threshold);
  threshold_failure_rate->set(report.failure_rate.threshold);
  threshold_shadow_mape->set(report.shadow_mape.threshold);
  threshold_shadow_spearman->set(report.shadow_spearman.threshold);
  reference_size->set(static_cast<double>(report.reference_size));
  window_size->set(static_cast<double>(report.window_size));
  drifted->set(report.drifted ? 1.0 : 0.0);
}

AutopilotMetrics register_autopilot_metrics(obs::MetricsRegistry& registry) {
  AutopilotMetrics m;
  const char* signal_help = "Latest drift-signal values (see matching tcm_drift_threshold)";
  m.signal_psi = &registry.gauge("tcm_drift_signal", signal_help, "signal=\"psi\"");
  m.signal_ks = &registry.gauge("tcm_drift_signal", signal_help, "signal=\"ks\"");
  m.signal_failure_rate = &registry.gauge("tcm_drift_signal", signal_help,
                                          "signal=\"failure_rate\"");
  m.signal_shadow_mape = &registry.gauge("tcm_drift_signal", signal_help,
                                         "signal=\"shadow_mape\"");
  m.signal_shadow_spearman = &registry.gauge("tcm_drift_signal", signal_help,
                                             "signal=\"shadow_spearman\"");
  const char* threshold_help = "Configured firing threshold per drift signal";
  m.threshold_psi = &registry.gauge("tcm_drift_threshold", threshold_help, "signal=\"psi\"");
  m.threshold_ks = &registry.gauge("tcm_drift_threshold", threshold_help, "signal=\"ks\"");
  m.threshold_failure_rate = &registry.gauge("tcm_drift_threshold", threshold_help,
                                             "signal=\"failure_rate\"");
  m.threshold_shadow_mape = &registry.gauge("tcm_drift_threshold", threshold_help,
                                            "signal=\"shadow_mape\"");
  m.threshold_shadow_spearman = &registry.gauge("tcm_drift_threshold", threshold_help,
                                                "signal=\"shadow_spearman\"");
  m.reference_size = &registry.gauge("tcm_drift_reference_size",
                                     "Frozen reference window size (0 until baselined)");
  m.window_size = &registry.gauge("tcm_drift_window_size",
                                  "Current recent-prediction window size");
  m.drifted = &registry.gauge("tcm_drift_drifted",
                              "1 when any drift signal is over threshold");
  m.polls = &registry.counter("tcm_autopilot_polls_total", "Drift-monitor observations");
  m.triggers = &registry.counter("tcm_autopilot_triggers_total",
                                 "Drift triggers (each starts a retraining cycle attempt)");
  const char* cycles_help = "Completed retraining cycles by outcome";
  m.cycles_promoted = &registry.counter("tcm_autopilot_cycles_total", cycles_help,
                                        "outcome=\"promoted\"");
  m.cycles_rejected = &registry.counter("tcm_autopilot_cycles_total", cycles_help,
                                        "outcome=\"rejected\"");
  m.cycle_failures = &registry.counter(
      "tcm_autopilot_cycle_failures_total",
      "Retraining cycles that failed (swallowed, serving unaffected)");
  m.gc_removed = &registry.counter("tcm_autopilot_gc_removed_total",
                                   "Model versions removed by post-cycle retention GC");
  return m;
}

ContinualScheduler::ContinualScheduler(ModelRegistry& registry,
                                       serve::PredictionService& service,
                                       ContinualTrainer& trainer,
                                       ContinualSchedulerOptions options)
    : registry_(registry),
      service_(service),
      trainer_(trainer),
      options_(std::move(options)),
      breaker_(options_.breaker),
      monitor_(options_.drift) {
  if (options_.metrics) metrics_ = register_autopilot_metrics(*options_.metrics);
}

ContinualScheduler::~ContinualScheduler() { stop(); }

void ContinualScheduler::start() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (running_) return;
  stopping_ = false;
  running_ = true;
  thread_ = std::thread([this] { loop(); });
}

void ContinualScheduler::stop() {
  // The thread handle is claimed under the lock: of two concurrent stop()
  // calls exactly one joins, the other sees running_ == false and returns.
  std::thread claimed;
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (!running_) return;
    stopping_ = true;
    running_ = false;
    claimed = std::move(thread_);
  }
  stop_cv_.notify_all();
  claimed.join();
}

void ContinualScheduler::loop() {
  obs::Watchdog::Handle heartbeat;
  if (options_.watchdog)
    heartbeat = options_.watchdog->register_thread("autopilot_poller",
                                                   options_.poller_stall_after,
                                                   /*critical=*/false);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(thread_mu_);
      if (support::wait_until(stop_cv_, lock, support::now() + options_.poll_interval,
                              [this] { return stopping_; }))
        break;
    }
    if (options_.watchdog) options_.watchdog->set_busy(heartbeat, "poll");
    poll_once();
    if (options_.watchdog) options_.watchdog->set_idle(heartbeat);
  }
  if (options_.watchdog) options_.watchdog->unregister(heartbeat);
}

bool ContinualScheduler::poll_once() {
  // Snapshot the service first (stats() takes the service's own locks).
  const serve::ServeStats stats = service_.stats();
  const std::vector<double> window = service_.recent_predictions();

  // Observe and decide under mu_; run the (potentially minutes-long) cycle
  // *outside* it so last_report()/cycles_run()/history() stay responsive
  // while training — exactly when an operator wants to watch. A
  // cycle_in_flight_ flag keeps concurrent poll_once() calls from stacking
  // cycles.
  SchedulerEvent event;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++polls_;
    if (metrics_.polls != nullptr) metrics_.polls->inc();
    const serve::DriftReport report = monitor_.observe(stats, window);
    last_report_ = report;
    metrics_.update_drift(report);
    if (!report.triggered) return false;

    // Budget and wall-clock cooldown. A suppressed trigger is dropped, not
    // queued: if the drift persists, the monitor will fire again after its
    // own cooldown. Only *successful* cycles consume the budget — failures
    // are retried (paced by the cooldowns), not allowed to exhaust it.
    if (cycle_in_flight_) return false;
    if (options_.max_cycles > 0 && cycles_ >= static_cast<std::uint64_t>(options_.max_cycles)) {
      log_debug() << "[autopilot] drift (" << report.reason << ") but cycle budget "
                  << options_.max_cycles << " exhausted";
      return false;
    }
    const auto now = support::now();
    if (have_last_cycle_ && now - last_cycle_end_ < options_.cycle_cooldown) {
      log_debug() << "[autopilot] drift (" << report.reason << ") inside cycle cooldown, skipping";
      return false;
    }
    // Breaker check last: in the half-open state allow() consumes the single
    // probe slot, so it must only run once every other gate has passed.
    if (!breaker_.allow()) {
      obs::EventLog::instance().emit(
          "cycle_skip", "warn",
          "circuit breaker open, dropping drift trigger (reason=\"" + report.reason + "\")",
          obs::current_trace_id());
      log_debug() << "[autopilot] drift (" << report.reason
                  << ") but cycle circuit breaker is open, skipping";
      return false;
    }
    cycle_in_flight_ = true;
    event.drift = report;
  }

  // One trace id spans the whole firing — drift event, cycle spans, promote
  // event and the WARN/ERROR lines all cross-reference on it.
  const std::uint64_t cycle_trace = obs::Tracer::instance().force_request();
  obs::TraceContext trace_ctx(cycle_trace);
  if (metrics_.triggers != nullptr) metrics_.triggers->inc();
  obs::EventLog::instance().emit(
      "drift_trigger", "warn",
      "reason=\"" + event.drift.reason + "\" " + drift_detail(event.drift), cycle_trace);
  obs::EventLog::instance().emit(
      "cycle_start", "info", "incumbent=v" + std::to_string(registry_.active_version()),
      cycle_trace);

  log_debug() << "[autopilot] drift detected (" << event.drift.reason << ") -> running cycle";
  try {
    event.cycle = trainer_.run_cycle();
    obs::EventLog::instance().emit(
        "cycle_finish", "info",
        "candidate=v" + std::to_string(event.cycle.candidate_version) +
            " promoted=" + (event.cycle.promoted ? "true" : "false") + " decision=\"" +
            event.cycle.decision + '"',
        cycle_trace);
    if (metrics_.cycles_promoted != nullptr)
      (event.cycle.promoted ? metrics_.cycles_promoted : metrics_.cycles_rejected)->inc();
  } catch (const std::exception& e) {
    event.cycle_failed = true;
    event.error = e.what();
    if (metrics_.cycle_failures != nullptr) metrics_.cycle_failures->inc();
    obs::EventLog::instance().emit("cycle_fail", "error",
                                   "error=\"" + event.error + '"', cycle_trace);
    log_warn() << "[autopilot] cycle failed: " << e.what() << kv("trace_id", cycle_trace);
  }
  // Feed the breaker; announce open/close transitions in the flight
  // recorder (times_opened distinguishes a re-open from a failure that the
  // threshold still tolerates).
  const std::uint64_t opened_before = breaker_.times_opened();
  const bool was_open_path = breaker_.state() != support::CircuitBreaker::State::kClosed;
  if (event.cycle_failed) {
    breaker_.record_failure();
    if (breaker_.times_opened() != opened_before)
      obs::EventLog::instance().emit(
          "breaker_open", "error",
          "consecutive_failures=" + std::to_string(breaker_.consecutive_failures()) +
              " cooldown_ms=" + std::to_string(options_.breaker.open_cooldown.count()),
          cycle_trace);
  } else {
    breaker_.record_success();
    if (was_open_path)
      obs::EventLog::instance().emit("breaker_close", "info", "probe cycle succeeded",
                                     cycle_trace);
  }
  // GC failures are reported separately: a retention hiccup must not be
  // mistaken for a failed retraining cycle (the promotion, if any, already
  // happened and is serving).
  if (!event.cycle_failed && options_.gc_after_cycle) {
    try {
      event.gc = registry_.gc(options_.gc);
      if (!event.gc.removed.empty()) {
        if (metrics_.gc_removed != nullptr)
          metrics_.gc_removed->inc(event.gc.removed.size());
        std::string removed = "removed=";
        for (std::size_t i = 0; i < event.gc.removed.size(); ++i)
          removed += (i > 0 ? ",v" : "v") + std::to_string(event.gc.removed[i]);
        obs::EventLog::instance().emit("gc", "info", std::move(removed), cycle_trace);
      }
    } catch (const std::exception& e) {
      event.gc_failed = true;
      event.error = e.what();
      obs::EventLog::instance().emit("gc_fail", "error", "error=\"" + event.error + '"',
                                     cycle_trace);
      log_warn() << "[autopilot] post-cycle gc failed: " << e.what()
                 << kv("trace_id", cycle_trace);
    }
  }

  // Whatever the outcome, re-anchor drift detection on the traffic the
  // (possibly new) serving model produces from here on.
  service_.clear_recent_predictions();

  std::lock_guard<std::mutex> lock(mu_);
  monitor_.rebaseline();
  cycle_in_flight_ = false;
  const bool succeeded = !event.cycle_failed;
  if (succeeded) ++cycles_;
  have_last_cycle_ = true;
  last_cycle_end_ = support::now();
  history_.push_back(std::move(event));
  return succeeded;
}

std::uint64_t ContinualScheduler::polls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return polls_;
}

std::uint64_t ContinualScheduler::cycles_run() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cycles_;
}

serve::DriftReport ContinualScheduler::last_report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_report_;
}

std::vector<SchedulerEvent> ContinualScheduler::history() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_;
}

const char* ContinualScheduler::phase() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cycle_in_flight_ ? "cycle" : "idle";
}

}  // namespace tcm::registry
