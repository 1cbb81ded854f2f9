// SearchJobManager: async autoscheduling on a bounded worker pool.
//
// submit() either answers from the ScheduleMemory (job born DONE,
// reused=true) or enqueues the job behind the admission controller (PR 8's
// machinery: a full queue rejects with AdmissionRejectedError → HTTP 429 +
// Retry-After, never unbounded latency). Workers pop jobs FIFO and run
// beam/MCTS with a ModelEvaluator that *shares* the serving tier's
// PredictionService — search traffic batches with interactive predictions
// and inherits its cache and instrumentation.
//
// Cooperative control rides the search progress callback, which fires after
// every scored evaluation batch:
//   - cancellation: DELETE flips an atomic flag; the callback observes it
//     and stops the search (CANCELLED within one evaluation batch).
//   - deadlines: each batch carries min(job deadline, now + eval_budget) so
//     a wedged batcher sheds the evaluation (DeadlineExceededError) instead
//     of stranding the job; an expired job deadline fails the job with
//     DEADLINE_EXCEEDED.
//   - progress: the job record and its event stream (ndjson lines consumed
//     by GET /v1/search/{id}/events) update under the record's own mutex;
//     pollers never block a worker.
//
// Completed jobs write the best schedule back into the ScheduleMemory, so
// the next identical program skips search entirely and the next
// same-shaped program warm-starts its beam.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "jobs/schedule_memory.h"
#include "jobs/search_job.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "serve/admission.h"
#include "serve/prediction_service.h"

namespace tcm::jobs {

struct SearchJobManagerOptions {
  int workers = 2;
  // Hard cap on queued (not yet running) jobs; 0 disables admission control.
  std::size_t queue_cap = 16;
  // Default whole-job deadline applied when a request carries none;
  // zero = unlimited.
  std::chrono::milliseconds default_deadline{0};
  // Per-evaluation-batch deadline slice (tightened by the job deadline): the
  // longest one scoring burst may take before it is shed.
  std::chrono::milliseconds eval_budget{10000};
  // Schedule-memory file; empty = in-memory only.
  std::string memory_path;
  // Completed job records retained for polling (oldest evicted first).
  std::size_t max_finished_jobs = 256;
  // Never null in practice (the Service wires its shared registry); a null
  // registry skips instrument registration.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::shared_ptr<obs::Watchdog> watchdog;
  // Test hook; null means steady_clock. Every clock read of the manager
  // goes through it: deadlines, queue age and wall_seconds. The scoring
  // deadlines armed from it reach serve::PredictionService, which reads the
  // real steady_clock, so an injected clock must return steady_clock time
  // points and must never run behind it.
  std::function<std::chrono::steady_clock::time_point()> now_fn;
};

struct SearchJobStats {
  std::uint64_t submitted = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t reused = 0;  // answered from memory without searching
  std::size_t running = 0;
  std::size_t queued = 0;
  ScheduleMemoryStats memory;
};

class SearchJobManager {
 public:
  // `service` must outlive the manager; it is the shared scoring backend.
  SearchJobManager(serve::PredictionService& service, SearchJobManagerOptions options);
  ~SearchJobManager();  // stop()

  SearchJobManager(const SearchJobManager&) = delete;
  SearchJobManager& operator=(const SearchJobManager&) = delete;

  // Returns the job id. Throws serve::AdmissionRejectedError when the queue
  // is over cap and std::invalid_argument on a bad request. A memory hit
  // returns a job that is already DONE.
  std::string submit(SearchJobRequest request);

  // Snapshot of one job; nullopt for unknown ids.
  std::optional<SearchJobInfo> info(const std::string& id) const;

  // All job snapshots, newest first.
  std::vector<SearchJobInfo> list() const;

  // Requests cancellation. False for unknown ids; true otherwise (a job
  // already terminal stays in its state — cancel is not un-done).
  bool cancel(const std::string& id);

  // Event-stream support: blocks up to `wait` for lines beyond `cursor`.
  // Returns the new ndjson lines and whether the job has reached a terminal
  // state (the stream ends once the caller has drained all lines of a
  // terminal job). Unknown ids return done=true with no lines.
  struct EventBatch {
    std::vector<std::string> lines;
    bool done = false;
  };
  EventBatch events_since(const std::string& id, std::size_t cursor,
                          std::chrono::milliseconds wait) const;

  SearchJobStats stats() const;
  ScheduleMemory& memory() { return memory_; }

  // Cancels queued and running jobs and joins the pool. Idempotent.
  void stop();

 private:
  struct Job {
    mutable std::mutex mu;
    mutable std::condition_variable cv;  // signalled on every event append
    SearchJobInfo info;
    std::vector<std::string> events;  // serialized ndjson snapshots
    std::atomic<bool> cancel{false};
    serve::RequestDeadline deadline = serve::kNoDeadline;
    SearchJobRequest request;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  std::chrono::steady_clock::time_point now() const;
  void worker_loop(int index);
  void run_job(Job& job, obs::Watchdog::Handle heartbeat);
  void finish(Job& job, JobState state, const std::string& error);
  // Appends one snapshot line (caller must NOT hold job.mu).
  void emit_event(Job& job) const;
  static std::string event_line(const SearchJobInfo& info);
  std::shared_ptr<Job> find(const std::string& id) const;
  void prune_finished_locked();

  serve::PredictionService& service_;
  const SearchJobManagerOptions options_;
  ScheduleMemory memory_;
  std::unique_ptr<serve::AdmissionController> admission_;

  mutable std::mutex mu_;  // jobs_ / queue_ / order_
  std::condition_variable queue_cv_;
  std::unordered_map<std::string, std::shared_ptr<Job>> jobs_;
  std::vector<std::string> order_;  // submission order, for list()/pruning
  std::deque<std::shared_ptr<Job>> queue_;
  std::vector<std::thread> pool_;
  bool stopping_ = false;
  std::uint64_t next_id_ = 1;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> reused_{0};
  std::atomic<std::size_t> running_{0};

  obs::Counter* jobs_done_ = nullptr;  // tcm_search_jobs_total{outcome=...}
  obs::Counter* jobs_failed_ = nullptr;
  obs::Counter* jobs_cancelled_ = nullptr;
  obs::Counter* jobs_reused_ = nullptr;
  obs::Gauge* gauge_running_ = nullptr;
  obs::Gauge* gauge_queued_ = nullptr;
  obs::Histogram* duration_ = nullptr;  // tcm_search_job_duration_seconds
};

}  // namespace tcm::jobs
