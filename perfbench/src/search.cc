// search_cold: two clients each submit an autoschedule job (beam, width 4)
// through api::Service::submit_search and block on the job's event stream
// until it is terminal. Programs are the ten paper benchmarks (spread over
// the first jobs of the run) and seeded random multi-root programs at the
// generator's default sizes; no program repeats, so no job is answered from
// the schedule memory (guarded). The interpreter checks the winning schedule
// of every random program small enough to execute quickly.
#include <algorithm>
#include <unordered_set>

#include "benchsuite/benchmarks.h"
#include "datagen/generator.h"
#include "layers.h"
#include "model/featurize.h"
#include "search/beam_search.h"
#include "search/candidates.h"
#include "search/evaluator.h"
#include "serve/fingerprint.h"
#include "sim/interpreter.h"
#include "transforms/apply.h"
#include "workloads.h"

namespace perfbench {

using namespace tcm;

namespace {

constexpr int kBeamWidth = 4;
constexpr double kMaxJobsPerSecond = 200;  // input headroom per second of run
constexpr int kMicroPrograms = 16;
// Random programs with at most this many iteration points (summed over
// their computations) are run through the interpreter by the output check.
constexpr std::int64_t kInterpretedPoints = 1 << 17;

struct JobInput {
  ir::Program program;
  bool interpret = false;  // output check runs the interpreter
};

struct JobLog {
  std::uint32_t input = 0;
  double latency_ms = 0;
  double queue_ms = 0;  // submit until the client sees the job RUNNING
  bool submitted = false;
  jobs::SearchJobInfo info;
  Clock::time_point done{};
};

// Times each scoring call of a beam search and keeps the candidates so the
// bursts' structures can be counted afterwards.
class TimingEvaluator final : public search::CandidateEvaluator {
 public:
  TimingEvaluator(search::CandidateEvaluator& inner, SpanRecorder& rec, std::uint64_t parent,
                  std::uint64_t op)
      : inner_(inner), rec_(rec), parent_(parent), op_(op) {}

  std::vector<double> evaluate(const ir::Program& p,
                               const std::vector<transforms::Schedule>& candidates) override {
    std::vector<double> scores;
    {
      ScopedSpan s(rec_, "search.score", parent_, op_);
      scores = inner_.evaluate(p, candidates);
    }
    bursts.push_back(candidates);
    return scores;
  }
  double accounted_seconds() const override { return inner_.accounted_seconds(); }
  std::int64_t evaluations() const override { return inner_.evaluations(); }
  const char* kind() const override { return "timed-model"; }

  std::vector<std::vector<transforms::Schedule>> bursts;

 private:
  search::CandidateEvaluator& inner_;
  SpanRecorder& rec_;
  const std::uint64_t parent_;
  const std::uint64_t op_;
};

std::vector<OpSample> ops_of(const std::vector<JobLog>& logs) {
  std::vector<OpSample> ops;
  for (const JobLog& l : logs) ops.push_back({l.latency_ms, l.done});
  return ops;
}

bool terminal(jobs::JobState s) {
  return s == jobs::JobState::kDone || s == jobs::JobState::kFailed ||
         s == jobs::JobState::kCancelled;
}

class SearchWorkload final : public Workload {
 public:
  SearchWorkload(const RunConfig& config, const ThreadBudget& budget)
      : config_(config), budget_(budget) {}

  void setup(const std::string& dir) override {
    teardown();
    StackOptions so;
    so.root = dir + "/registry";
    so.serve_workers = budget_.serve_workers;
    so.search = true;
    so.job_workers = budget_.job_workers;
    stack_ = std::make_unique<Stack>(so);
    make_inputs();
    if (config_.trace) {
      so.root = dir + "/replay";
      so.search = false;
      so.feedback = false;
      replay_ = std::make_unique<Stack>(so);
    }
    // Warm-up jobs on programs outside the run's inputs.
    for (const ir::Program& program : warm_) {
      JobLog log;
      run_job(program, log);
      if (!log.submitted || log.info.state != jobs::JobState::kDone)
        throw std::runtime_error("warm-up search job failed: " + log.info.error);
      if (replay_) {
        search::ModelEvaluator evaluator(replay_->service().raw_service());
        search::BeamSearchOptions bo;
        bo.beam_width = kBeamWidth;
        search::beam_search(program, evaluator, bo);
      }
    }
  }

  void teardown() override {
    replay_.reset();
    stack_.reset();
    inputs_.clear();
    warm_.clear();
  }

  std::string run(Outcome& out) override {
    api::Service& svc = stack_->service();
    const serve::ServeStats serve_before = svc.raw_service().stats();
    const jobs::SearchJobStats jobs_before = svc.stats().search.jobs;
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point start = Clock::now();
    SpanRecorder recorder(config_.trace, start);
    next_ = 0;
    end_ = traced_start_;
    const double window_s = config_.trace ? config_.seconds / 2 : config_.seconds;
    const auto window =
        std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(window_s));
    // Two-second slices hold enough jobs for a p90 with ten jobs beyond it.
    const int slices = std::max(1, static_cast<int>(window_s / 2));
    std::vector<JobLog> logs = clients(start + window, nullptr);
    const double cpu_s = process_cpu_seconds() - cpu0;
    const WindowSummary untraced = summarize_window(ops_of(logs), start, start + window, slices, 90);
    WindowSummary traced;
    if (config_.trace) {
      const Clock::time_point mid = Clock::now();
      next_ = traced_start_;
      end_ = inputs_.size();
      std::vector<JobLog> second = clients(mid + window, &recorder);
      traced = summarize_window(ops_of(second), mid, mid + window, slices, 90);
      logs.insert(logs.end(), second.begin(), second.end());
    }
    const serve::ServeStats serve_after = svc.raw_service().stats();
    const jobs::SearchJobStats jobs_after = svc.stats().search.jobs;
    out.peak_rss_mb = peak_rss_mb();
    if (ran_out_) out.notes.push_back("search_cold ran out of distinct programs");

    check(logs, out);
    out.e2e.set("jobs_per_s", untraced.per_s, "1/s");
    out.e2e.set("job_p50_ms", untraced.p50_ms, "ms");
    out.e2e.set("job_p90_ms", untraced.tail_ms, "ms");
    out.e2e.set("job_samples", static_cast<double>(untraced.ops), "count");
    out.e2e.set("op_p50_ms", untraced.p50_ms, "ms");
    out.e2e.set("ops_per_s", untraced.per_s, "1/s");
    out.e2e.set("cpu_ms_per_op", untraced.ops ? cpu_s * 1000 / static_cast<double>(untraced.ops) : 0,
                "ms");

    const double jobs = static_cast<double>(logs.size());
    const double exact_hits =
        static_cast<double>(jobs_after.memory.exact_hits - jobs_before.memory.exact_hits);
    Metrics& m = out.layers;
    m.set("jobs.memory_hit_ratio", jobs > 0 ? exact_hits / jobs : 0, "ratio");
    // SearchJobInfo::wall_seconds counts from enqueue, so it holds the queue
    // wait too; the client splits its latency at the RUNNING event instead.
    double run_ms = 0, wait_ms = 0;
    for (const JobLog& l : logs) {
      run_ms += l.latency_ms - l.queue_ms;
      wait_ms += l.queue_ms;
    }
    m.set("jobs.run_ms", jobs > 0 ? run_ms / jobs : 0, "ms");
    m.set("jobs.queue_wait_ms", jobs > 0 ? wait_ms / jobs : 0, "ms");
    serve_window_metrics(serve_before, serve_after, m);
    if (config_.trace) {
      layer_metrics(recorder, m);
      m.set("trace.overhead_frac", untraced.mean_ms > 0 ? traced.mean_ms / untraced.mean_ms - 1 : 0,
            "ratio");
      m.set("trace.unaccounted_frac", recorder.unaccounted_frac(), "ratio");
      for (std::string& line : recorder.self_time_shares()) out.notes.push_back(std::move(line));
      if (!config_.trace_out.empty()) recorder.write_json(config_.trace_out);
    }
    if (exact_hits > 0)
      return "search_cold answered " + std::to_string(exact_hits) +
             " jobs from the schedule memory (expected 0)";
    return "";
  }

 private:
  static std::int64_t iteration_points(const ir::Program& p) {
    std::int64_t points = 0;
    for (const ir::Computation& c : p.comps) {
      std::int64_t n = 1;
      for (std::int64_t e : p.extents_of(c.id)) n *= e;
      points += n;
    }
    return points;
  }

  // Distinct random programs with the paper benchmarks spread over the first
  // 70 jobs of each timed half (a traced run's halves get five each).
  // Warm-up searches two paper benchmarks shrunk 16-fold: the same work for
  // every seed, on programs no input equals.
  void make_inputs() {
    std::unordered_set<std::uint64_t> seen;
    for (benchsuite::BenchmarkInfo& b : benchsuite::paper_benchmarks(16)) {
      if (warm_.size() == 2) break;
      seen.insert(serve::fingerprint(b.program));
      warm_.push_back(std::move(b.program));
    }
    const datagen::RandomProgramGenerator gen;
    const auto count = static_cast<std::size_t>(std::max(64.0, config_.seconds * kMaxJobsPerSecond));
    std::vector<JobInput> random;
    for (std::uint64_t i = 0; random.size() < count; ++i) {
      ir::Program p = gen.generate(config_.seed * 1000003 + i);
      if (p.comps.empty() || !seen.insert(serve::fingerprint(p)).second) continue;
      const bool small = iteration_points(p) <= kInterpretedPoints;
      random.push_back({std::move(p), small});
    }
    std::vector<benchsuite::BenchmarkInfo> paper = benchsuite::paper_benchmarks();
    const std::size_t halves = config_.trace ? 2 : 1;
    const std::size_t per_half = random.size() / halves;
    for (std::size_t h = 0; h < halves; ++h) {
      if (h == 1) traced_start_ = inputs_.size();
      for (std::size_t i = 0, k = h; i < per_half; ++i) {
        if (i % 7 == 3 && k < paper.size()) {
          inputs_.push_back({std::move(paper[k].program), false});
          k += halves;
        }
        inputs_.push_back(std::move(random[h * per_half + i]));
      }
    }
    if (halves == 1) traced_start_ = inputs_.size();
  }

  void run_job(const ir::Program& program, JobLog& log) {
    api::Service& svc = stack_->service();
    api::SearchRequest request;
    request.program = program;
    request.beam_width = kBeamWidth;
    const Clock::time_point t0 = Clock::now();
    api::Result<jobs::SearchJobInfo> submitted = svc.submit_search(request);
    if (!submitted.ok()) {
      log.info.error = submitted.status().to_string();
      log.done = Clock::now();
      log.latency_ms = us_between(t0, log.done) / 1000.0;
      return;
    }
    log.submitted = true;
    jobs::SearchJobInfo info = *submitted;
    bool running = false;
    if (!terminal(info.state)) {
      std::size_t cursor = 0;
      for (;;) {
        jobs::SearchJobManager::EventBatch batch =
            svc.search_jobs()->events_since(info.id, cursor, std::chrono::milliseconds(1000));
        cursor += batch.lines.size();
        for (std::size_t i = 0; !running && i < batch.lines.size(); ++i)
          if (batch.lines[i].find("\"state\":\"RUNNING\"") != std::string::npos) {
            running = true;
            log.queue_ms = us_between(t0, Clock::now()) / 1000.0;
          }
        if (batch.done) break;
      }
    }
    log.done = Clock::now();
    log.latency_ms = us_between(t0, log.done) / 1000.0;
    if (!running) log.queue_ms = log.latency_ms;
    api::Result<jobs::SearchJobInfo> final_info = svc.search_job(info.id);
    if (final_info.ok()) log.info = *final_info;
    else log.info.error = final_info.status().to_string();
  }

  std::vector<JobLog> clients(Clock::time_point until, SpanRecorder* rec) {
    std::vector<std::vector<JobLog>> per(static_cast<std::size_t>(budget_.clients));
    run_threads(budget_.clients, [&](int c) {
        while (Clock::now() < until) {
          const std::size_t k = next_.fetch_add(1);
          if (k >= end_) {
            ran_out_ = true;
            break;
          }
          JobLog log;
          log.input = static_cast<std::uint32_t>(k);
          const std::uint64_t root = rec ? rec->next_id() : 0;
          const Clock::time_point t0 = Clock::now();
          run_job(inputs_[k].program, log);
          if (rec) {
            rec->record("job", root, 0, k, t0, log.done);
            replay(*rec, k, root, log);
          }
          per[static_cast<std::size_t>(c)].push_back(std::move(log));
        }
      });
    std::vector<JobLog> all;
    for (auto& v : per) all.insert(all.end(), v.begin(), v.end());
    return all;
  }

  // The job's search, replayed by driving beam_search directly with a
  // timing evaluator over the replay service.
  void replay(SpanRecorder& rec, std::size_t k, std::uint64_t root, const JobLog& log) {
    const auto ms = [](double v) {
      return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double, std::milli>(v));
    };
    const Clock::time_point submitted = log.done - ms(log.latency_ms);
    rec.record("jobs.queue", rec.next_id(), root, k, submitted, submitted + ms(log.queue_ms));
    const std::uint64_t run_span = rec.next_id();
    rec.record("jobs.run", run_span, root, k, submitted + ms(log.queue_ms), log.done);
    const ir::Program& p = inputs_[k].program;
    search::ModelEvaluator evaluator(replay_->service().raw_service());
    std::uint64_t beam_span = 0;
    std::unique_ptr<TimingEvaluator> timed;
    search::SearchResult result;
    {
      ScopedSpan s(rec, "search.beam", run_span, k);
      beam_span = s.id();
      timed = std::make_unique<TimingEvaluator>(evaluator, rec, beam_span, k);
      search::BeamSearchOptions bo;
      bo.beam_width = kBeamWidth;
      result = search::beam_search(p, *timed, bo);
    }
    std::size_t structures = 0, candidates = 0;
    for (const std::vector<transforms::Schedule>& burst : timed->bursts) {
      std::vector<model::FeaturizedProgram> feats;
      for (const transforms::Schedule& s : burst)
        if (auto f = model::featurize(p, s, model::FeatureConfig::fast())) feats.push_back(std::move(*f));
      std::unordered_set<std::string> keys;
      for (const model::FeaturizedProgram& f : feats) keys.insert(structure_key(f));
      structures += keys.size();
      candidates += burst.size();
    }
    const std::size_t decisions = search::decision_points(p, search::SearchSpaceOptions{}).size();
    std::lock_guard<std::mutex> lock(mu_);
    ++replayed_;
    bursts_ += timed->bursts.size();
    burst_structures_ += structures;
    burst_candidates_ += candidates;
    evaluations_ += result.evaluations;
    decisions_ += decisions;
  }

  void layer_metrics(const SpanRecorder& rec, Metrics& m) {
    const std::map<std::string, SpanRecorder::Totals> t = rec.totals();
    auto self_us = [&](const char* name) {
      auto it = t.find(name);
      return it == t.end() ? 0.0 : it->second.self_us;
    };
    const double jobs = static_cast<double>(std::max<std::int64_t>(replayed_, 1));
    m.set("search.score_ms_per_job", self_us("search.score") / jobs / 1000, "ms");
    m.set("search.self_ms_per_job", self_us("search.beam") / jobs / 1000, "ms");
    m.set("search.score_batch",
          bursts_ ? static_cast<double>(burst_candidates_) / static_cast<double>(bursts_) : 0,
          "count");
    m.set("search.decisions_per_job", static_cast<double>(decisions_) / jobs, "count");
    m.set("search.evaluations_per_job", static_cast<double>(evaluations_) / jobs, "count");
    m.set("serve.structures_per_batch",
          bursts_ ? static_cast<double>(burst_structures_) / static_cast<double>(bursts_) : 0,
          "count");

    // Candidate enumeration and heuristics on the first programs of the run;
    // the candidates then feed the model and transforms per-call costs.
    const search::SearchSpaceOptions space;
    std::vector<std::pair<std::size_t, transforms::Schedule>> cands;
    double enumerate_us = 0, heuristics_us = 0;
    for (std::size_t k = 0; k < std::min<std::size_t>(kMicroPrograms, inputs_.size()); ++k) {
      const ir::Program& p = inputs_[k].program;
      for (const search::DecisionPoint& d : search::decision_points(p, space)) {
        const Clock::time_point t0 = Clock::now();
        std::vector<transforms::Schedule> expanded = search::expand_decision(p, {}, d, space);
        enumerate_us += us_between(t0, Clock::now());
        for (transforms::Schedule& s : expanded) cands.emplace_back(k, std::move(s));
      }
    }
    std::vector<PairRef> pairs;
    std::vector<transforms::Schedule> finished(cands.size());
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < cands.size(); ++i)
      finished[i] = search::apply_parallel_vector_heuristics(inputs_[cands[i].first].program,
                                                             cands[i].second, space);
    heuristics_us = us_between(t0, Clock::now());
    for (std::size_t i = 0; i < cands.size(); ++i)
      pairs.push_back({&inputs_[cands[i].first].program, &finished[i]});
    const double n = static_cast<double>(std::max<std::size_t>(cands.size(), 1));
    m.set("search.enumerate_us", enumerate_us / n, "us");
    m.set("search.heuristics_us", heuristics_us / n, "us");
    std::unique_ptr<model::SpeedupPredictor> model = replay_->service().raw_registry().load_active();
    measure_pair_layers(pairs, *model, m);
  }

  // Output checks, spread over the cores: legality and bitwise re-scoring of
  // every winner and, on the small random programs, interpreter equivalence.
  void check(const std::vector<JobLog>& logs, Outcome& out) {
    std::atomic<std::int64_t> failed{0}, compared{0}, interpreted{0};
    std::atomic<std::size_t> next{0};
    const int version = stack_->service().active_version();
    run_threads(budget_.cores, [&](int) {
      ReferenceScorer scorer(stack_->service().raw_registry());
      for (std::size_t i = next.fetch_add(1); i < logs.size(); i = next.fetch_add(1)) {
        const JobLog& log = logs[i];
        const JobInput& input = inputs_[log.input];
        bool ok = false;
        try {
          ok = log.submitted && log.info.state == jobs::JobState::kDone && !log.info.reused &&
               transforms::is_legal(input.program, log.info.best_schedule);
          if (ok) {
            ok = scorer.score(version, input.program, log.info.best_schedule) ==
                 log.info.best_speedup;
            ++compared;
          }
          if (ok && input.interpret) {
            const sim::BufferData before = sim::Interpreter::execute(input.program, 5);
            const sim::BufferData after = sim::Interpreter::execute(
                transforms::apply_schedule(input.program, log.info.best_schedule), 5);
            ok = sim::Interpreter::max_rel_difference(input.program, before, after) < 1e-9;
            ++interpreted;
          }
        } catch (const std::exception&) {
          ok = false;  // a schedule the library cannot apply or run is a failed output
        }
        if (!ok) ++failed;
      }
    });
    out.attempted += static_cast<std::int64_t>(logs.size());
    out.failed += failed.load();
    out.checked += compared.load();
    out.notes.push_back("checked " + std::to_string(compared.load()) +
                        " winning schedules for legality and bitwise re-score, " +
                        std::to_string(interpreted.load()) + " of them (random programs of at most " +
                        std::to_string(kInterpretedPoints) + " points) against the interpreter");
  }

  const RunConfig config_;
  const ThreadBudget budget_;
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<Stack> replay_;
  std::vector<JobInput> inputs_;
  std::vector<ir::Program> warm_;
  std::size_t traced_start_ = 0;  // first input of a traced run's second half
  std::atomic<std::size_t> next_{0};
  std::size_t end_ = 0;           // one past the last input of the current half
  std::atomic<bool> ran_out_{false};
  std::mutex mu_;  // guards the replay tallies below
  std::int64_t replayed_ = 0;
  std::size_t bursts_ = 0, burst_structures_ = 0, burst_candidates_ = 0;
  std::int64_t evaluations_ = 0;
  std::size_t decisions_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_search_workload(const RunConfig& config,
                                               const ThreadBudget& budget) {
  return std::make_unique<SearchWorkload>(config, budget);
}

}  // namespace perfbench
