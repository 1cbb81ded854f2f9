#include "jobs/job_manager.h"

#include <algorithm>
#include <cstdio>

#include "obs/event_log.h"
#include "search/beam_search.h"
#include "search/mcts.h"
#include "serve/errors.h"
#include "serve/fingerprint.h"
#include "sim/executor.h"
#include "support/log.h"

namespace tcm::jobs {

namespace {

// Wall-clock buckets for one autoschedule job: sub-second memory-warm runs
// through multi-minute cold searches.
std::vector<double> duration_bounds() {
  return {0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300};
}

const char* method_name(SearchMethod m) {
  return m == SearchMethod::kBeam ? "beam" : "mcts";
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kRunning: return "RUNNING";
    case JobState::kDone: return "DONE";
    case JobState::kFailed: return "FAILED";
    case JobState::kCancelled: return "CANCELLED";
  }
  return "UNKNOWN";
}

SearchJobManager::SearchJobManager(serve::PredictionService& service,
                                   SearchJobManagerOptions options)
    : service_(service),
      options_(std::move(options)),
      memory_(options_.memory_path, options_.metrics.get()) {
  if (options_.metrics) {
    obs::MetricsRegistry& m = *options_.metrics;
    jobs_done_ = &m.counter("tcm_search_jobs_total", "Search jobs by terminal outcome",
                            "outcome=\"done\"");
    jobs_failed_ = &m.counter("tcm_search_jobs_total", "Search jobs by terminal outcome",
                              "outcome=\"failed\"");
    jobs_cancelled_ = &m.counter("tcm_search_jobs_total", "Search jobs by terminal outcome",
                                 "outcome=\"cancelled\"");
    jobs_reused_ = &m.counter("tcm_search_jobs_total", "Search jobs by terminal outcome",
                              "outcome=\"reused\"");
    gauge_running_ = &m.gauge("tcm_search_jobs_running", "Search jobs currently executing");
    gauge_queued_ = &m.gauge("tcm_search_jobs_queued", "Search jobs waiting for a worker");
    duration_ = &m.histogram("tcm_search_job_duration_seconds",
                             "Wall time from submit to terminal state", "", duration_bounds());
    admission_ = std::make_unique<serve::AdmissionController>(
        serve::AdmissionOptions{.queue_cap = options_.queue_cap}, m);
  } else if (options_.queue_cap > 0) {
    // Admission control needs a registry for its instruments; a manager
    // wired without one still gets the queue cap via a private registry.
    static obs::MetricsRegistry fallback_registry;
    admission_ = std::make_unique<serve::AdmissionController>(
        serve::AdmissionOptions{.queue_cap = options_.queue_cap}, fallback_registry);
  }
  const int workers = std::max(1, options_.workers);
  pool_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) pool_.emplace_back([this, i] { worker_loop(i); });
}

SearchJobManager::~SearchJobManager() { stop(); }

std::chrono::steady_clock::time_point SearchJobManager::now() const {
  return options_.now_fn ? options_.now_fn() : std::chrono::steady_clock::now();
}

std::string SearchJobManager::submit(SearchJobRequest request) {
  if (request.beam_width < 1) throw std::invalid_argument("beam_width must be >= 1");
  if (request.mcts_iterations < 1) throw std::invalid_argument("iterations must be >= 1");
  if (request.program.comps.empty()) throw std::invalid_argument("program has no computations");

  const std::uint64_t fp = serve::fingerprint(request.program);
  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  job->info.method = job->request.method;
  job->info.program_fingerprint = fp;
  job->deadline = job->request.deadline;
  if (job->deadline == serve::kNoDeadline && options_.default_deadline.count() > 0)
    job->deadline = now() + options_.default_deadline;
  job->enqueued_at = now();

  // Memory short-circuit: a program we already autoscheduled is answered
  // instantly — the job is born DONE and never touches the queue.
  std::optional<MemoryEntry> hit = memory_.lookup(fp);
  if (hit.has_value()) {
    job->info.state = JobState::kDone;
    job->info.reused = true;
    job->info.progress = 1.0;
    job->info.best_schedule = hit->schedule;
    job->info.best_speedup = hit->predicted_speedup;
    job->info.evaluations = 0;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) throw std::runtime_error("SearchJobManager is stopped");
    if (!hit.has_value() && admission_ && admission_->enabled()) {
      std::chrono::nanoseconds oldest_age{0};
      if (!queue_.empty())
        oldest_age = now() - queue_.front()->enqueued_at;
      const serve::AdmissionController::Decision d = admission_->admit(queue_.size(), oldest_age);
      if (!d.admit)
        throw serve::AdmissionRejectedError("search queue over capacity (" +
                                            std::to_string(queue_.size()) + " queued)");
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "sj-%06llu",
                  static_cast<unsigned long long>(next_id_++));
    job->info.id = buf;
    // Record the submit snapshot (QUEUED, or DONE on a reuse) before the job
    // becomes visible: once it is queued a worker may record RUNNING, and the
    // event stream must start with the submit line. Lock order mu_ -> job.mu.
    emit_event(*job);
    jobs_.emplace(job->info.id, job);
    order_.push_back(job->info.id);
    prune_finished_locked();
    if (!hit.has_value()) {
      queue_.push_back(job);
      if (gauge_queued_ != nullptr) gauge_queued_->set(static_cast<double>(queue_.size()));
      queue_cv_.notify_one();
    }
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (hit.has_value()) {
    reused_.fetch_add(1, std::memory_order_relaxed);
    if (jobs_reused_ != nullptr) jobs_reused_->inc();
    if (duration_ != nullptr) duration_->observe(0.0);
    obs::EventLog::instance().emit("search_job_reused", "info",
                                   "id=" + job->info.id +
                                       " fp=" + std::to_string(fp) +
                                       " speedup=" + std::to_string(hit->predicted_speedup));
  } else {
    obs::EventLog::instance().emit("search_job_submit", "info",
                                   "id=" + job->info.id + " method=" +
                                       method_name(job->info.method) +
                                       " fp=" + std::to_string(fp));
  }
  return job->info.id;
}

std::optional<SearchJobInfo> SearchJobManager::info(const std::string& id) const {
  std::shared_ptr<Job> job = find(id);
  if (!job) return std::nullopt;
  std::lock_guard<std::mutex> lock(job->mu);
  return job->info;
}

std::vector<SearchJobInfo> SearchJobManager::list() const {
  std::vector<std::shared_ptr<Job>> jobs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs.reserve(order_.size());
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      auto f = jobs_.find(*it);
      if (f != jobs_.end()) jobs.push_back(f->second);
    }
  }
  std::vector<SearchJobInfo> out;
  out.reserve(jobs.size());
  for (const auto& job : jobs) {
    std::lock_guard<std::mutex> lock(job->mu);
    out.push_back(job->info);
  }
  return out;
}

bool SearchJobManager::cancel(const std::string& id) {
  std::shared_ptr<Job> job = find(id);
  if (!job) return false;
  job->cancel.store(true, std::memory_order_relaxed);
  // A job still in the queue is cancelled right here — no worker will run
  // it (the worker re-checks the flag before starting).
  bool was_queued = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find(queue_.begin(), queue_.end(), job);
    if (it != queue_.end()) {
      queue_.erase(it);
      was_queued = true;
      if (gauge_queued_ != nullptr) gauge_queued_->set(static_cast<double>(queue_.size()));
    }
  }
  if (was_queued) finish(*job, JobState::kCancelled, "");
  return true;
}

SearchJobManager::EventBatch SearchJobManager::events_since(
    const std::string& id, std::size_t cursor, std::chrono::milliseconds wait) const {
  EventBatch batch;
  std::shared_ptr<Job> job = find(id);
  if (!job) {
    batch.done = true;
    return batch;
  }
  std::unique_lock<std::mutex> lock(job->mu);
  auto terminal = [&] {
    return job->info.state == JobState::kDone || job->info.state == JobState::kFailed ||
           job->info.state == JobState::kCancelled;
  };
  job->cv.wait_for(lock, wait, [&] { return job->events.size() > cursor || terminal(); });
  for (std::size_t i = cursor; i < job->events.size(); ++i) batch.lines.push_back(job->events[i]);
  batch.done = terminal() && cursor + batch.lines.size() >= job->events.size();
  return batch;
}

SearchJobStats SearchJobManager::stats() const {
  SearchJobStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.done = done_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.reused = reused_.load(std::memory_order_relaxed);
  s.running = running_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queued = queue_.size();
  }
  s.memory = memory_.stats();
  return s;
}

void SearchJobManager::stop() {
  std::vector<std::shared_ptr<Job>> abandoned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    for (const auto& job : queue_) abandoned.push_back(job);
    queue_.clear();
    if (gauge_queued_ != nullptr) gauge_queued_->set(0);
    // Running jobs observe the flag at their next evaluation batch.
    for (const auto& [id, job] : jobs_) job->cancel.store(true, std::memory_order_relaxed);
    queue_cv_.notify_all();
  }
  for (const auto& job : abandoned) finish(*job, JobState::kCancelled, "");
  for (std::thread& t : pool_)
    if (t.joinable()) t.join();
  pool_.clear();
}

void SearchJobManager::worker_loop(int index) {
  obs::Watchdog::Handle heartbeat;
  if (options_.watchdog)
    heartbeat = options_.watchdog->register_thread(
        "search_worker_" + std::to_string(index),
        std::chrono::duration_cast<std::chrono::milliseconds>(options_.eval_budget) +
            std::chrono::milliseconds(30000),
        /*critical=*/false);
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) break;
      job = queue_.front();
      queue_.pop_front();
      if (gauge_queued_ != nullptr) gauge_queued_->set(static_cast<double>(queue_.size()));
    }
    if (options_.watchdog) options_.watchdog->set_busy(heartbeat, "search_job");
    running_.fetch_add(1, std::memory_order_relaxed);
    if (gauge_running_ != nullptr)
      gauge_running_->set(static_cast<double>(running_.load(std::memory_order_relaxed)));
    run_job(*job, heartbeat);
    running_.fetch_sub(1, std::memory_order_relaxed);
    if (gauge_running_ != nullptr)
      gauge_running_->set(static_cast<double>(running_.load(std::memory_order_relaxed)));
    if (options_.watchdog) options_.watchdog->set_idle(heartbeat);
  }
  if (options_.watchdog) options_.watchdog->unregister(heartbeat);
}

void SearchJobManager::run_job(Job& job, obs::Watchdog::Handle heartbeat) {
  if (job.cancel.load(std::memory_order_relaxed)) {
    finish(job, JobState::kCancelled, "");
    return;
  }
  if (now() >= job.deadline) {
    finish(job, JobState::kFailed, "DEADLINE_EXCEEDED: job deadline expired while queued");
    return;
  }
  {
    std::lock_guard<std::mutex> lock(job.mu);
    job.info.state = JobState::kRunning;
  }
  emit_event(job);

  const ir::Program& p = job.request.program;
  const std::uint64_t fp = job.info.program_fingerprint;
  const std::uint64_t shape_fp = serve::shape_fingerprint(p);

  search::ModelEvaluator evaluator(service_);
  // Every scoring burst carries min(job deadline, now + eval budget): a
  // wedged batcher sheds the burst with DeadlineExceededError instead of
  // stranding this worker, and an expired job deadline fails the job.
  auto arm_eval_deadline = [&] {
    serve::RequestDeadline d = job.deadline;
    if (options_.eval_budget.count() > 0) {
      const serve::RequestDeadline slice = now() + options_.eval_budget;
      if (slice < d) d = slice;
    }
    evaluator.set_deadline(d);
  };

  auto on_progress = [&](const search::SearchProgress& progress) {
    if (options_.watchdog) options_.watchdog->beat(heartbeat);
    {
      std::lock_guard<std::mutex> lock(job.mu);
      job.info.progress = progress.decision_count > 0
                              ? static_cast<double>(progress.decision_index) /
                                    static_cast<double>(progress.decision_count)
                              : 0.0;
      job.info.evaluations = progress.evaluations;
      if (progress.best_schedule != nullptr && progress.best_score > job.info.best_speedup) {
        job.info.best_speedup = progress.best_score;
        job.info.best_schedule = *progress.best_schedule;
      }
      job.info.wall_seconds = std::chrono::duration<double>(now() - job.enqueued_at).count();
    }
    emit_event(job);
    if (job.cancel.load(std::memory_order_relaxed)) return false;
    if (now() >= job.deadline)
      throw serve::DeadlineExceededError("search job deadline exceeded mid-search");
    arm_eval_deadline();
    return true;
  };

  try {
    arm_eval_deadline();
    // The acceptance floor: the returned schedule must never score below
    // the untransformed program. Evaluate the default schedule explicitly
    // and fall back to it if search does worse.
    const double baseline = evaluator.evaluate(p, {transforms::Schedule{}}).front();
    {
      std::lock_guard<std::mutex> lock(job.mu);
      job.info.baseline_speedup = baseline;
    }

    transforms::Schedule best;
    double best_score = 0;
    std::int64_t evaluations = 0;
    bool stopped_early = false;

    if (job.request.method == SearchMethod::kBeam) {
      search::BeamSearchOptions bo;
      bo.beam_width = job.request.beam_width;
      bo.space = job.request.space;
      bo.on_progress = on_progress;
      // Warm start: schedules remembered for same-shaped programs (the
      // par/vec heuristics are re-applied by the search, so remembered
      // parallel/vectorize marks are stripped from the seeds).
      for (transforms::Schedule w : memory_.warm_starts(shape_fp, fp)) {
        w.parallels.clear();
        w.vectorizes.clear();
        bo.warm_start.push_back(std::move(w));
      }
      if (!bo.warm_start.empty()) {
        std::lock_guard<std::mutex> lock(job.mu);
        job.info.warm_started = true;
      }
      search::SearchResult result = search::beam_search(p, evaluator, bo);
      best = std::move(result.best_schedule);
      best_score = result.best_score;
      evaluations = result.evaluations;
      stopped_early = result.stopped_early;
    } else {
      search::MctsOptions mo;
      mo.iterations = job.request.mcts_iterations;
      mo.space = job.request.space;
      mo.seed = fp;  // deterministic per program
      mo.on_progress = on_progress;
      search::ExecutionEvaluator exec{sim::Executor(sim::MachineModel(), {}, /*seed=*/17)};
      search::MctsResult result = search::mcts_search(p, evaluator, exec, mo);
      best = std::move(result.best_schedule);
      best_score = result.best_measured_speedup;
      evaluations = result.model_evaluations;
      stopped_early = result.stopped_early;
    }

    if (stopped_early || job.cancel.load(std::memory_order_relaxed)) {
      finish(job, JobState::kCancelled, "");
      return;
    }
    if (best_score < baseline) {
      best = transforms::Schedule{};
      best_score = baseline;
    }
    {
      std::lock_guard<std::mutex> lock(job.mu);
      job.info.best_schedule = best;
      job.info.best_speedup = best_score;
      job.info.evaluations = evaluations;
      job.info.progress = 1.0;
    }
    MemoryEntry entry;
    entry.program_fp = fp;
    entry.shape_fp = shape_fp;
    entry.schedule = std::move(best);
    entry.predicted_speedup = best_score;
    entry.evaluations = evaluations;
    entry.method = method_name(job.request.method);
    memory_.store(std::move(entry));
    finish(job, JobState::kDone, "");
  } catch (const serve::DeadlineExceededError& e) {
    finish(job, JobState::kFailed, std::string("DEADLINE_EXCEEDED: ") + e.what());
  } catch (const serve::AdmissionRejectedError& e) {
    finish(job, JobState::kFailed, std::string("RESOURCE_EXHAUSTED: ") + e.what());
  } catch (const std::exception& e) {
    finish(job, JobState::kFailed, e.what());
  }
}

void SearchJobManager::finish(Job& job, JobState state, const std::string& error) {
  double wall = 0;
  {
    std::lock_guard<std::mutex> lock(job.mu);
    // finish() can race between stop() and a worker; first writer wins.
    if (job.info.state == JobState::kDone || job.info.state == JobState::kFailed ||
        job.info.state == JobState::kCancelled)
      return;
    job.info.state = state;
    job.info.error = error;
    wall = std::chrono::duration<double>(now() - job.enqueued_at).count();
    job.info.wall_seconds = wall;
  }
  switch (state) {
    case JobState::kDone:
      done_.fetch_add(1, std::memory_order_relaxed);
      if (jobs_done_ != nullptr) jobs_done_->inc();
      obs::EventLog::instance().emit("search_job_done", "info",
                                     "id=" + job.info.id +
                                         " speedup=" + std::to_string(job.info.best_speedup));
      break;
    case JobState::kFailed:
      failed_.fetch_add(1, std::memory_order_relaxed);
      if (jobs_failed_ != nullptr) jobs_failed_->inc();
      obs::EventLog::instance().emit("search_job_failed", "warn",
                                     "id=" + job.info.id + " error=" + error);
      break;
    case JobState::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      if (jobs_cancelled_ != nullptr) jobs_cancelled_->inc();
      obs::EventLog::instance().emit("search_job_cancelled", "info", "id=" + job.info.id);
      break;
    default:
      break;
  }
  if (duration_ != nullptr) duration_->observe(wall);
  emit_event(job);
}

void SearchJobManager::emit_event(Job& job) const {
  std::lock_guard<std::mutex> lock(job.mu);
  job.events.push_back(event_line(job.info));
  job.cv.notify_all();
}

std::string SearchJobManager::event_line(const SearchJobInfo& info) {
  // Hand-assembled (the wire layer owns the full JSON encodings; the event
  // stream only carries the scalar progress fields).
  std::string line = "{\"job_id\":\"" + info.id + "\",\"state\":\"" + to_string(info.state) +
                     "\",\"progress\":" + std::to_string(info.progress) +
                     ",\"evaluations\":" + std::to_string(info.evaluations) +
                     ",\"best_speedup\":" + std::to_string(info.best_speedup);
  if (info.reused) line += ",\"reused\":true";
  if (!info.error.empty()) {
    line += ",\"error\":\"";
    for (char c : info.error) {
      if (c == '"' || c == '\\') line += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      line += c;
    }
    line += '"';
  }
  line += "}";
  return line;
}

std::shared_ptr<SearchJobManager::Job> SearchJobManager::find(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

void SearchJobManager::prune_finished_locked() {
  // Keep the newest max_finished_jobs records; terminal jobs beyond that are
  // forgotten oldest-first (queued/running jobs are never pruned).
  if (jobs_.size() <= options_.max_finished_jobs) return;
  for (auto it = order_.begin();
       it != order_.end() && jobs_.size() > options_.max_finished_jobs;) {
    auto f = jobs_.find(*it);
    if (f == jobs_.end()) {
      it = order_.erase(it);
      continue;
    }
    JobState state;
    {
      std::lock_guard<std::mutex> lock(f->second->mu);
      state = f->second->info.state;
    }
    if (state == JobState::kDone || state == JobState::kFailed ||
        state == JobState::kCancelled) {
      jobs_.erase(f);
      it = order_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace tcm::jobs
