// finetune_cycle: repeated ContinualTrainer::run_cycle (fresh synthetic
// data, fine-tune, register, shadow canary, promote) on a fresh registry,
// while one HTTP client keeps canary /v1/predict traffic flowing through the
// service being retrained. The served traffic also feeds the feedback
// buffer that each cycle drains and re-measures on the simulator.
#include <atomic>
#include <cmath>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "datagen/dataset_builder.h"
#include "datagen/generator.h"
#include "layers.h"
#include "model/dataset.h"
#include "model/train.h"
#include "registry/continual_trainer.h"
#include "registry/model_registry.h"
#include "sim/executor.h"
#include "traffic.h"
#include "workloads.h"

namespace perfbench {

using namespace tcm;

namespace {

constexpr int kCanaryPrograms = 64;
constexpr int kCanarySchedulesPerProgram = 16;
constexpr std::uint64_t kCycleSeedStep = 0x9e3779b97f4a7c15ULL;  // ContinualTrainer's per-cycle step

struct CycleLog {
  double seconds = 0;
  registry::CycleReport report;
};

class FinetuneWorkload final : public Workload {
 public:
  FinetuneWorkload(const RunConfig& config, const ThreadBudget& budget)
      : config_(config), budget_(budget) {}

  void setup(const std::string& dir) override {
    teardown();
    dir_ = dir;
    StackOptions so;
    so.root = dir + "/registry";
    so.serve_workers = budget_.serve_workers;
    so.http_threads = budget_.http_threads;
    stack_ = std::make_unique<Stack>(so);
    pool_ = make_pool(config_.seed, kCanaryPrograms, kCanarySchedulesPerProgram);
    traffic_ = std::make_unique<PredictTraffic>(pool_, Mix::kRoundRobin, 1, config_.seed);
    api::Service& svc = stack_->service();
    options_ = trainer_options(svc.feedback_buffer());
    trainer_ = std::make_unique<registry::ContinualTrainer>(svc.raw_registry(), svc.raw_service(),
                                                            options_);
    cycles_run_ = 0;
    // Warm the serving path in process (the canary client connects when the
    // window opens).
    for (std::size_t i = 0; i < 32; ++i) {
      api::PredictRequest request;
      request.program = pool_.programs[pool_.pairs[i].program];
      request.schedules.push_back(pool_.pairs[i].schedule);
      if (!svc.predict(request).ok()) throw std::runtime_error("warm-up prediction failed");
    }
  }

  void teardown() override {
    trainer_.reset();
    traffic_.reset();
    stack_.reset();
  }

  std::string run(Outcome& out) override {
    api::Service& svc = stack_->service();
    const serve::ServeStats before = svc.raw_service().stats();
    SpanRecorder recorder(config_.trace, Clock::now());
    std::atomic<bool> stop{false};
    double cpu0 = 0, cpu_s = 0;
    std::vector<ClientLog> canary;
    std::vector<CycleLog> cycles;
    std::size_t untraced_cycles = 0;  // cycles[1 .. untraced_cycles]; cycles[0] warms up
    Clock::time_point start, untraced_end;
    // Thread 0 is the canary client, thread 1 runs the cycles and then stops it.
    run_threads(2, [&](int role) {
      if (role == 0) {
        canary = traffic_->run(stack_->port(), budget_.clients, Clock::time_point::max(), &stop,
                               nullptr, {});
        return;
      }
#ifdef _OPENMP
      omp_set_num_threads(budget_.omp_threads);  // the team size is per thread
#endif
      struct StopCanary {
        std::atomic<bool>& flag;
        ~StopCanary() { flag = true; }
      } stop_canary{stop};
      const auto window = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(config_.trace ? config_.seconds / 2 : config_.seconds));
      // One cycle before the window opens. A cycle re-measures what the
      // canary fed the feedback buffer since the last one, and the first
      // drains a buffer the canary has only begun to fill, so it ran in
      // about half the time of the cycles after it.
      run_cycles(Clock::now(), nullptr, cycles);
      cpu0 = process_cpu_seconds();
      start = Clock::now();
      run_cycles(start + window, nullptr, cycles);
      untraced_cycles = cycles.size() - 1;
      untraced_end = Clock::now();
      cpu_s = process_cpu_seconds() - cpu0;
      if (config_.trace) run_cycles(untraced_end + window, &recorder, cycles);
    });
    const serve::ServeStats after = svc.raw_service().stats();
    out.peak_rss_mb = peak_rss_mb();

    // Checks: every cycle registered a candidate that reloads, with finite
    // holdout metrics; canary predictions match the version that served them.
    std::int64_t failed = 0, shadowless = 0;
    for (const CycleLog& c : cycles) {
      bool ok = c.report.candidate_version > 0 &&
                std::isfinite(c.report.candidate_holdout.mape) &&
                std::isfinite(c.report.incumbent_holdout.mape);
      try {
        ok = ok && svc.raw_registry().load(c.report.candidate_version) != nullptr;
      } catch (const std::exception&) {
        ok = false;
      }
      if (!ok) ++failed;
      if (c.report.shadow_requests == 0) ++shadowless;
    }
    ReferenceScorer scorer(svc.raw_registry());
    const CheckTally tally = check_predictions(pool_, canary, scorer);
    out.attempted += static_cast<std::int64_t>(cycles.size()) + tally.requests;
    out.failed += failed + tally.failed;
    out.checked += static_cast<std::int64_t>(cycles.size()) + tally.compared;
    out.notes.push_back("checked " + std::to_string(cycles.size()) +
                        " cycles for a reloadable candidate with finite holdout metrics and " +
                        std::to_string(tally.compared) + " canary predictions bitwise");

    // Cycles run back to back, so their rate is the inverse of the median
    // cycle, which one slow cycle does not move.
    std::vector<double> seconds;
    for (std::size_t i = 1; i <= untraced_cycles; ++i) seconds.push_back(cycles[i].seconds);
    const double cycle_s = percentile(seconds, 50);
    out.e2e.set("cycles_per_s", cycle_s > 0 ? 1 / cycle_s : 0, "1/s");
    out.e2e.set("cycle_s", cycle_s, "s");
    out.e2e.set("cycle_max_s", percentile(seconds, 100), "s");
    out.e2e.set("cycle_samples", static_cast<double>(untraced_cycles), "count");
    out.e2e.set("op_p50_ms", cycle_s * 1000, "ms");
    out.e2e.set("ops_per_s", cycle_s > 0 ? 1 / cycle_s : 0, "1/s");
    out.e2e.set("cpu_ms_per_op",
                untraced_cycles ? cpu_s * 1000 / static_cast<double>(untraced_cycles) : 0, "ms");
    const double canary_s = std::chrono::duration<double>(untraced_end - start).count();
    std::vector<OpSample> canary_ops;
    for (const OpSample& op : all_ops(canary))
      if (op.done >= start && op.done <= untraced_end) canary_ops.push_back(op);
    const WindowSummary canary_summary = summarize_window(
        canary_ops, start, untraced_end, std::max(1, static_cast<int>(std::lround(canary_s))), 99);
    out.e2e.set("requests_per_s", canary_summary.per_s, "1/s");
    out.e2e.set("request_p50_ms", canary_summary.p50_ms, "ms");
    out.e2e.set("request_p99_ms", canary_summary.tail_ms, "ms");
    out.e2e.set("request_samples", static_cast<double>(canary_summary.ops), "count");

    Metrics& m = out.layers;
    serve_window_metrics(before, after, m);
    m.set("api.request_bytes", mean_body_bytes(canary), "bytes");
    double shadow = 0;
    for (const CycleLog& c : cycles) shadow += static_cast<double>(c.report.shadow_requests);
    m.set("serve.shadow_requests", cycles.empty() ? 0 : shadow / static_cast<double>(cycles.size()),
          "count");
    if (config_.trace) {
      layer_metrics(recorder, cycles, untraced_cycles, m);
      for (std::string& line : recorder.self_time_shares()) out.notes.push_back(std::move(line));
      if (!config_.trace_out.empty()) recorder.write_json(config_.trace_out);
    }
    if (shadowless > 0)
      return std::to_string(shadowless) + " fine-tune cycles scored no shadow requests";
    return "";
  }

 private:
  registry::ContinualTrainerOptions trainer_options(
      std::shared_ptr<serve::FeedbackBuffer> feedback) const {
    registry::ContinualTrainerOptions o;
    o.data.num_programs = 40;
    o.data.schedules_per_program = 8;
    o.data.generator = datagen::GeneratorOptions::tiny();
    o.data.features = model::FeatureConfig::fast();
    o.train.epochs = 5;
    // Gates loose enough that cycles promote and hot-swap the service, as
    // the daemon's autopilot defaults do.
    o.max_mape_regression = 2.0;
    o.min_shadow_spearman = 0.0;
    o.feedback = std::move(feedback);
    // The trainer keeps its fixed default seed, so every run trains on the
    // same data and cycles differ only in the canary traffic they serve.
    return o;
  }

  // Runs cycles until `until`, at least one.
  void run_cycles(Clock::time_point until, SpanRecorder* rec, std::vector<CycleLog>& cycles) {
    do {
      CycleLog c;
      const std::uint64_t root = rec ? rec->next_id() : 0;
      const Clock::time_point t0 = Clock::now();
      c.report = trainer_->run_cycle();
      const Clock::time_point t1 = Clock::now();
      ++cycles_run_;
      c.seconds = std::chrono::duration<double>(t1 - t0).count();
      if (rec) {
        rec->record("cycle", root, 0, cycles_run_, t0, t1);
        replay(*rec, root, c.report);
      }
      cycles.push_back(std::move(c));
    } while (Clock::now() < until);
  }

  // The cycle's stages replayed on the same inputs: data generation with the
  // cycle's seed, fine-tuning on its split, and the registry operations on a
  // scratch registry.
  void replay(SpanRecorder& rec, std::uint64_t root, const registry::CycleReport& report) {
    const std::uint64_t op = cycles_run_;
    datagen::DatasetBuildOptions data = options_.data;
    data.seed = options_.seed + kCycleSeedStep * cycles_run_;
    model::Dataset fresh;
    {
      ScopedSpan s(rec, "datagen.build", root, op);
      fresh = datagen::build_dataset(data);
    }
    const model::DatasetSplit split =
        model::split_by_program(fresh, options_.train_frac, 1.0 - options_.train_frac, data.seed);
    registry::ModelRegistry& live = stack_->service().raw_registry();
    std::unique_ptr<model::SpeedupPredictor> candidate = live.load(report.incumbent_version);
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan s(rec, "nn.train", root, op);
      model::train_model(*candidate, split.train, &split.validation, options_.train);
    }
    train_s_ += seconds_since(t0);
    train_batches_ += static_cast<std::int64_t>(
        model::make_batches(split.train, options_.train.batch_size).size() *
        static_cast<std::size_t>(options_.train.epochs));

    registry::ModelRegistry scratch(dir_ + "/replay-registry");
    registry::ModelManifest manifest = live.manifest(report.incumbent_version);
    int version = 0;
    {
      ScopedSpan s(rec, "registry.register", root, op);
      version = scratch.register_version(*candidate, manifest);
    }
    {
      ScopedSpan s(rec, "registry.load", root, op);
      static_cast<void>(scratch.load(version));
    }
    {
      ScopedSpan s(rec, "registry.promote", root, op);
      scratch.promote(version);
    }
    ++replayed_;
  }

  void layer_metrics(const SpanRecorder& rec, const std::vector<CycleLog>& cycles,
                     std::size_t untraced_cycles, Metrics& m) {
    const std::map<std::string, SpanRecorder::Totals> t = rec.totals();
    auto per_cycle = [&](const char* name) {
      auto it = t.find(name);
      return it == t.end() || replayed_ == 0 ? 0.0
                                             : it->second.total_us / static_cast<double>(replayed_);
    };
    m.set("datagen.build_s", per_cycle("datagen.build") / 1e6, "s");
    m.set("nn.train_s", per_cycle("nn.train") / 1e6, "s");
    m.set("nn.train_batch_ms",
          train_batches_ > 0 ? train_s_ * 1000 / static_cast<double>(train_batches_) : 0, "ms");
    m.set("registry.register_ms", per_cycle("registry.register") / 1000, "ms");
    m.set("registry.load_ms", per_cycle("registry.load") / 1000, "ms");
    m.set("registry.promote_ms", per_cycle("registry.promote") / 1000, "ms");
    m.set("registry.canary_s", per_cycle("cycle") / 1e6 - per_cycle("datagen.build") / 1e6 -
                                   per_cycle("nn.train") / 1e6 -
                                   (per_cycle("registry.register") + per_cycle("registry.load") +
                                    per_cycle("registry.promote")) / 1e6,
          "s");
    m.set("trace.unaccounted_frac", rec.unaccounted_frac(), "ratio");
    double untraced = 0, traced = 0;
    for (std::size_t i = 1; i < cycles.size(); ++i)
      (i <= untraced_cycles ? untraced : traced) += cycles[i].seconds;
    const double traced_n = static_cast<double>(cycles.size() - 1 - untraced_cycles);
    m.set("trace.overhead_frac",
          untraced_cycles > 0 && traced_n > 0
              ? (traced / traced_n) / (untraced / static_cast<double>(untraced_cycles)) - 1
              : 0,
          "ratio");

    // Simulated measurement cost per sample on programs like the cycle's.
    const datagen::RandomProgramGenerator gen(options_.data.generator);
    const datagen::RandomScheduleGenerator sgen;
    sim::Executor executor(sim::MachineModel(options_.data.machine), options_.data.executor,
                           config_.seed);
    Rng rng(config_.seed);
    double measure_us = 0;
    int samples = 0;
    for (std::uint64_t i = 0; samples < 64; ++i) {
      const ir::Program p = gen.generate(config_.seed * 31 + i);
      if (p.comps.empty()) continue;
      const transforms::Schedule s = sgen.generate(p, rng);
      const Clock::time_point t0 = Clock::now();
      static_cast<void>(executor.measure_speedup(p, s));
      measure_us += us_between(t0, Clock::now());
      ++samples;
    }
    m.set("sim.measure_us", measure_us / samples, "us");

    std::vector<PairRef> pairs;
    for (std::size_t i = 0; i < pool_.pairs.size(); ++i)
      pairs.push_back({&pool_.programs[pool_.pairs[i].program], &pool_.pairs[i].schedule});
    std::unique_ptr<model::SpeedupPredictor> model =
        stack_->service().raw_registry().load_active();
    measure_pair_layers(pairs, *model, m);
  }

  const RunConfig config_;
  const ThreadBudget budget_;
  std::string dir_;
  std::unique_ptr<Stack> stack_;
  PredictPool pool_;
  std::unique_ptr<PredictTraffic> traffic_;
  registry::ContinualTrainerOptions options_;
  std::unique_ptr<registry::ContinualTrainer> trainer_;
  std::uint64_t cycles_run_ = 0;
  std::int64_t replayed_ = 0;
  double train_s_ = 0;
  std::int64_t train_batches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_finetune_workload(const RunConfig& config,
                                                 const ThreadBudget& budget) {
  return std::make_unique<FinetuneWorkload>(config, budget);
}

}  // namespace perfbench
