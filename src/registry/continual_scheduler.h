// Continual-learning autopilot: drift signals in, retraining cycles out,
// no human in the loop.
//
// ContinualTrainer (continual_trainer.h) runs one cycle when *asked*; the
// scheduler decides *when to ask*. A background thread polls the live
// service on a fixed interval, feeds each ServeStats snapshot plus the
// recent-prediction window into a serve::DriftMonitor, and when the monitor
// triggers — distribution shift (PSI/KS) over predicted speedups, elevated
// failure rate, or standing-shadow disagreement — it runs one full
// generate -> fine-tune -> register -> shadow -> decide cycle, then applies
// the registry retention policy (GcPolicy) so rejected candidates expire
// instead of accumulating forever.
//
// Guard rails, because an autopilot that retrains in a tight loop is worse
// than no autopilot:
//   - the monitor's own cooldown dedupes a sustained shift into one trigger;
//   - `cycle_cooldown` lower-bounds the wall-clock gap between cycles
//     (training is expensive; drift detection is not);
//   - `max_cycles` caps the total retraining budget of one scheduler run;
//   - after every cycle the monitor is re-baselined and the service's
//     prediction window cleared, so the *new* model's traffic becomes the
//     next reference — a promoted model never trips the monitor merely by
//     predicting differently than its predecessor;
//   - a cycle that throws (datagen, training or registry failure) is
//     recorded and swallowed: the serving path must never die because the
//     retraining path did.
//
// All public methods are thread-safe. poll_once() exposes one synchronous
// poll step for tests and for callers that want to own the cadence.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "registry/continual_trainer.h"
#include "registry/model_registry.h"
#include "serve/drift_monitor.h"
#include "serve/prediction_service.h"
#include "support/circuit_breaker.h"
#include "support/clock.h"

namespace tcm::registry {

struct ContinualSchedulerOptions {
  serve::DriftMonitorOptions drift;
  std::chrono::milliseconds poll_interval{250};
  // Minimum wall-clock gap between two cycles (on top of the monitor's
  // observation-counted cooldown). 0 = no extra gap.
  std::chrono::milliseconds cycle_cooldown{0};
  // Total cycles this scheduler may run; 0 = unbounded.
  int max_cycles = 0;
  // Retention policy applied after every cycle (gc_after_cycle = false
  // leaves collection to explicit ModelRegistry::gc() calls).
  GcPolicy gc;
  bool gc_after_cycle = true;
  // Shared metrics registry for the autopilot time series (drift signal
  // gauges, poll/trigger/cycle counters); null = not exported.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  // Watchdog the poll thread registers a (non-critical) heartbeat with;
  // null = no liveness tracking. The heartbeat refreshes around the trainer
  // call, so a multi-minute cycle reads as at most `degraded`, never 503.
  std::shared_ptr<obs::Watchdog> watchdog;
  std::chrono::milliseconds poller_stall_after{60000};
  // Circuit breaker over retraining cycles: `failure_threshold` consecutive
  // failed cycles open it (triggers are dropped instead of burning training
  // compute against a persistently failing dependency); after
  // `open_cooldown` exactly one probe cycle is admitted, and its outcome
  // closes or re-opens the breaker. /healthz reports "degraded" while open.
  support::CircuitBreaker::Options breaker;
};

// The autopilot's registry-owned metric families. register_autopilot_metrics
// get-or-creates all of them (zero-valued) so /metrics serves the full
// tcm_drift_*/tcm_autopilot_* surface from the first scrape, whether or not
// a scheduler is running; the scheduler calls it too and receives the same
// instruments to update.
struct AutopilotMetrics {
  obs::Gauge* signal_psi = nullptr;             // tcm_drift_signal{signal=...}
  obs::Gauge* signal_ks = nullptr;
  obs::Gauge* signal_failure_rate = nullptr;
  obs::Gauge* signal_shadow_mape = nullptr;
  obs::Gauge* signal_shadow_spearman = nullptr;
  obs::Gauge* threshold_psi = nullptr;          // tcm_drift_threshold{signal=...}
  obs::Gauge* threshold_ks = nullptr;
  obs::Gauge* threshold_failure_rate = nullptr;
  obs::Gauge* threshold_shadow_mape = nullptr;
  obs::Gauge* threshold_shadow_spearman = nullptr;
  obs::Gauge* reference_size = nullptr;         // tcm_drift_reference_size
  obs::Gauge* window_size = nullptr;            // tcm_drift_window_size
  obs::Gauge* drifted = nullptr;                // tcm_drift_drifted
  obs::Counter* polls = nullptr;                // tcm_autopilot_polls_total
  obs::Counter* triggers = nullptr;             // tcm_autopilot_triggers_total
  obs::Counter* cycles_promoted = nullptr;      // tcm_autopilot_cycles_total{outcome=...}
  obs::Counter* cycles_rejected = nullptr;
  obs::Counter* cycle_failures = nullptr;       // tcm_autopilot_cycle_failures_total
  obs::Counter* gc_removed = nullptr;           // tcm_autopilot_gc_removed_total

  void update_drift(const serve::DriftReport& report) const;
};

AutopilotMetrics register_autopilot_metrics(obs::MetricsRegistry& registry);

// One autopilot firing: what the monitor saw, what the cycle did, what the
// collector removed.
struct SchedulerEvent {
  serve::DriftReport drift;
  CycleReport cycle;
  GcReport gc;
  bool cycle_failed = false;  // run_cycle threw; `error` holds the message
  bool gc_failed = false;     // cycle succeeded but the post-cycle gc threw
  std::string error;
};

class ContinualScheduler {
 public:
  // The trainer (and therefore the registry/service) must outlive the
  // scheduler. The scheduler does not start polling until start().
  ContinualScheduler(ModelRegistry& registry, serve::PredictionService& service,
                     ContinualTrainer& trainer, ContinualSchedulerOptions options);
  ~ContinualScheduler();  // stops the thread if still running

  ContinualScheduler(const ContinualScheduler&) = delete;
  ContinualScheduler& operator=(const ContinualScheduler&) = delete;

  void start();  // idempotent
  void stop();   // blocks until the poll thread exits; idempotent

  // One synchronous poll step: observe, and if the monitor triggered and
  // budget/cooldown allow, run a cycle (+ GC). Returns true when a cycle
  // ran *successfully* (a failed cycle is recorded in history() with
  // cycle_failed set, does not consume the max_cycles budget, and returns
  // false). The background thread calls exactly this; the cycle itself
  // runs outside the internal mutex, so the observer methods below stay
  // responsive while training.
  bool poll_once();

  std::uint64_t polls() const;
  std::uint64_t cycles_run() const;  // successful cycles only
  serve::DriftReport last_report() const;     // most recent observation
  std::vector<SchedulerEvent> history() const;  // one entry per trigger

  // "cycle" while a retraining cycle is in flight, else "idle"; the
  // /debug/state scheduler phase.
  const char* phase() const;

  // Cycle circuit-breaker observers ("closed"/"open"/"half_open"; see
  // support/circuit_breaker.h). An open breaker degrades /healthz.
  const char* breaker_state() const { return breaker_.state_name(); }
  bool breaker_open() const { return breaker_.state() == support::CircuitBreaker::State::kOpen; }
  std::uint64_t breaker_times_opened() const { return breaker_.times_opened(); }
  int breaker_consecutive_failures() const { return breaker_.consecutive_failures(); }

 private:
  void loop();

  ModelRegistry& registry_;
  serve::PredictionService& service_;
  ContinualTrainer& trainer_;
  const ContinualSchedulerOptions options_;
  AutopilotMetrics metrics_;  // all null when options_.metrics is null
  support::CircuitBreaker breaker_;  // thread-safe; its own internal mutex

  mutable std::mutex mu_;  // guards everything below + the monitor
  serve::DriftMonitor monitor_;
  serve::DriftReport last_report_;
  std::vector<SchedulerEvent> history_;
  std::uint64_t polls_ = 0;
  std::uint64_t cycles_ = 0;  // successful cycles (the max_cycles budget)
  bool cycle_in_flight_ = false;
  support::TimePoint last_cycle_end_{};
  bool have_last_cycle_ = false;

  std::mutex thread_mu_;  // guards thread lifecycle (start/stop)
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace tcm::registry
