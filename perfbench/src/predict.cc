// predict_unique and predict_batch_hot: two keep-alive HTTP clients POST
// /v1/predict in a closed loop.
//
// predict_unique sends one schedule per request, walking a pool a quarter
// larger than the service's feature cache in order; the cache is LRU, so every
// pair has been evicted before it comes round again and every request
// parses, decodes, fingerprints, featurizes and infers (hit ratio ~0,
// guarded). predict_batch_hot sends one program with 32 of its schedules,
// drawn from a pool that fits in the cache and is loaded during warm-up, so
// featurization is bypassed and the batcher sees large mixed-structure
// bursts (hit ratio ~1, guarded).
#include <algorithm>
#include <cmath>
#include <map>

#include "api/json.h"
#include "api/wire.h"
#include "model/dataset.h"
#include "model/featurize.h"
#include "registry/model_registry.h"
#include "serve/fingerprint.h"
#include "layers.h"
#include "traffic.h"
#include "workloads.h"

namespace perfbench {

using namespace tcm;

namespace {

constexpr int kHotBatch = 32;
constexpr int kHotPrograms = 64;
constexpr int kHotSchedulesPerProgram = 48;  // 3072 pairs, inside the 4096-entry cache
constexpr int kUniqueSchedulesPerProgram = 16;

class PredictWorkload final : public Workload {
 public:
  PredictWorkload(const RunConfig& config, const ThreadBudget& budget, bool hot)
      : config_(config), budget_(budget), hot_(hot) {}

  void setup(const std::string& dir) override {
    teardown();
    StackOptions so;
    so.root = dir + "/registry";
    so.serve_workers = budget_.serve_workers;
    so.http_threads = budget_.http_threads;
    stack_ = std::make_unique<Stack>(so);
    const std::size_t capacity = stack_->service().raw_service().options().cache_capacity;
    if (hot_) {
      pool_ = make_pool(config_.seed, kHotPrograms, kHotSchedulesPerProgram);
    } else {
      // A quarter more pairs than the cache holds: under LRU eviction each
      // pair is evicted before the walk comes back to it.
      const int programs = static_cast<int>(
          (capacity + capacity / 4 + kUniqueSchedulesPerProgram - 1) / kUniqueSchedulesPerProgram);
      pool_ = make_pool(config_.seed, programs, kUniqueSchedulesPerProgram);
    }
    traffic_ = std::make_unique<PredictTraffic>(pool_, hot_ ? Mix::kHotBatch : Mix::kRoundRobin,
                                                kHotBatch, config_.seed);
    if (config_.trace) {
      // Replays run against a second service so they leave the measured
      // service's cache and counters alone.
      so.root = dir + "/replay";
      so.http_threads = 0;
      so.feedback = false;
      replay_ = std::make_unique<Stack>(so);
      replay_model_ = replay_->service().raw_registry().load_active();
      for (int c = 0; c < budget_.clients; ++c)
        arenas_.push_back(std::make_unique<nn::InferenceArena>());
      if (hot_) {
        hot_feats_.resize(pool_.pairs.size());
        for (std::size_t i = 0; i < pool_.pairs.size(); ++i)
          if (auto f = model::featurize(pool_.programs[pool_.pairs[i].program],
                                        pool_.pairs[i].schedule, model::FeatureConfig::fast()))
            hot_feats_[i] = std::move(*f);
          else
            throw std::runtime_error("pool pair does not featurize");
      }
    }
    warm_up();
  }

  void teardown() override {
    traffic_.reset();
    replay_model_.reset();
    replay_.reset();
    stack_.reset();
    arenas_.clear();
    hot_feats_.clear();
  }

  std::string run(Outcome& out) override {
    serve::PredictionService& svc = stack_->service().raw_service();
    const serve::ServeStats before = svc.stats();
    const double window_s = config_.trace ? config_.seconds / 2 : config_.seconds;
    const auto window =
        std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(window_s));
    const int slices = std::max(1, static_cast<int>(std::lround(window_s)));
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point start = Clock::now();
    SpanRecorder recorder(config_.trace, start);
    std::vector<ClientLog> logs =
        traffic_->run(stack_->port(), budget_.clients, start + window, nullptr, nullptr, {});
    const double cpu_s = process_cpu_seconds() - cpu0;
    const WindowSummary untraced = summarize_window(all_ops(logs), start, start + window, slices, 99);
    WindowSummary traced;
    if (config_.trace) {
      const Clock::time_point mid = Clock::now();
      std::vector<ClientLog> second = traffic_->run(
          stack_->port(), budget_.clients, mid + window, nullptr, &recorder,
          [this, &recorder](int c, std::uint64_t op, std::uint64_t root, const std::string& body,
                            const std::vector<std::uint32_t>& pairs) {
            replay(recorder, c, op, root, body, pairs);
          });
      traced = summarize_window(all_ops(second), mid, mid + window, slices, 99);
      logs.insert(logs.end(), std::make_move_iterator(second.begin()),
                  std::make_move_iterator(second.end()));
    }
    const serve::ServeStats after = svc.stats();
    out.peak_rss_mb = peak_rss_mb();

    ReferenceScorer scorer(stack_->service().raw_registry());
    const CheckTally tally = check_predictions(pool_, logs, scorer);
    out.attempted += tally.requests;
    out.failed += tally.failed;
    out.checked += tally.compared;
    out.notes.push_back("checked " + std::to_string(tally.compared) +
                        " predictions bitwise against direct infer_batch");

    // The timed numbers come from the untraced window only.
    out.e2e.set("requests_per_s", untraced.per_s, "1/s");
    out.e2e.set("request_p50_ms", untraced.p50_ms, "ms");
    out.e2e.set("request_p99_ms", untraced.tail_ms, "ms");
    out.e2e.set("request_samples", static_cast<double>(untraced.ops), "count");
    out.e2e.set("op_p50_ms", untraced.p50_ms, "ms");
    out.e2e.set("ops_per_s", untraced.per_s, "1/s");
    out.e2e.set("cpu_ms_per_op", untraced.ops ? cpu_s * 1000 / static_cast<double>(untraced.ops) : 0,
                "ms");

    Metrics& m = out.layers;
    const double hit_ratio = serve_window_metrics(before, after, m);
    m.set("api.request_bytes", mean_body_bytes(logs), "bytes");
    if (config_.trace) {
      layer_metrics(recorder, untraced, traced, m);
      for (std::string& line : recorder.self_time_shares()) out.notes.push_back(std::move(line));
      if (!config_.trace_out.empty()) recorder.write_json(config_.trace_out);
    }

    if (!hot_ && hit_ratio > 0.01)
      return "predict_unique saw feature-cache hit ratio " + std::to_string(hit_ratio) +
             " (expected ~0)";
    if (hot_ && hit_ratio < 0.99)
      return "predict_batch_hot saw feature-cache hit ratio " + std::to_string(hit_ratio) +
             " (expected ~1 after warm-up)";
    return "";
  }

 private:
  void warm_up() {
    auto predict = [&](const std::vector<std::uint32_t>& pairs) {
      api::PredictRequest request;
      request.program = pool_.programs[pool_.pairs[pairs.front()].program];
      for (std::uint32_t p : pairs) request.schedules.push_back(pool_.pairs[p].schedule);
      for (Stack* stack : {stack_.get(), replay_.get()})
        if (stack != nullptr && !stack->service().predict(request).ok())
          throw std::runtime_error("warm-up prediction failed");
    };
    const auto per = static_cast<std::uint32_t>(pool_.per_program);
    if (hot_) {
      // Load every pool pair into the feature cache, one program per call.
      for (std::uint32_t p = 0; p < pool_.programs.size(); ++p) {
        std::vector<std::uint32_t> pairs;
        for (std::uint32_t k = 0; k < per; ++k) pairs.push_back(p * per + k);
        predict(pairs);
      }
      return;
    }
    // Inference plans and connections; the timed walk continues after these
    // pairs.
    constexpr std::uint32_t kWarm = 64;
    traffic_->warm_up(stack_->port(), kWarm);
    for (std::uint32_t i = 0; replay_ && i < kWarm; ++i) predict({i});
  }

  // The request's layers, replayed in process on its exact body.
  void replay(SpanRecorder& rec, int c, std::uint64_t op, std::uint64_t root,
              const std::string& body, const std::vector<std::uint32_t>& pairs) {
    api::Result<api::Json> doc = [&] {
      ScopedSpan s(rec, "api.json_parse", root, op);
      return api::Json::parse(body);
    }();
    if (!doc.ok()) return;
    api::Result<api::PredictRequest> req = [&] {
      ScopedSpan s(rec, "api.wire_decode", root, op);
      return api::predict_request_from_json(*doc);
    }();
    if (!req.ok()) return;
    std::uint64_t predict_span = 0;
    api::Result<api::PredictResponse> resp = [&] {
      ScopedSpan s(rec, "serve.predict", root, op);
      predict_span = s.id();
      return replay_->service().predict(*req);
    }();
    if (!resp.ok()) return;
    {
      ScopedSpan s(rec, "serve.fingerprint", predict_span, op);
      for (const transforms::Schedule& sched : req->schedules) {
        static_cast<void>(serve::fingerprint(req->program));
        static_cast<void>(serve::fingerprint(sched));
      }
    }
    std::vector<model::FeaturizedProgram> fresh;
    std::vector<const model::FeaturizedProgram*> rows;
    if (hot_) {
      for (std::uint32_t p : pairs) rows.push_back(&hot_feats_[p]);
    } else {
      ScopedSpan s(rec, "model.featurize", predict_span, op);
      for (const transforms::Schedule& sched : req->schedules)
        if (auto f = model::featurize(req->program, sched, model::FeatureConfig::fast()))
          fresh.push_back(std::move(*f));
    }
    for (const model::FeaturizedProgram& f : fresh) rows.push_back(&f);
    std::map<std::string, std::vector<const model::FeaturizedProgram*>> groups;
    for (const model::FeaturizedProgram* f : rows) groups[structure_key(*f)].push_back(f);
    std::vector<model::Batch> batches;
    {
      ScopedSpan s(rec, "model.batch_assemble", predict_span, op);
      for (const auto& [key, members] : groups) batches.push_back(model::make_inference_batch(members));
    }
    {
      ScopedSpan s(rec, "model.infer", predict_span, op);
      for (const model::Batch& b : batches)
        replay_model_->infer_batch(b, *arenas_[static_cast<std::size_t>(c)]);
    }
    {
      ScopedSpan s(rec, "api.encode", root, op);
      static_cast<void>(api::to_json(*resp).dump());
    }
    std::lock_guard<std::mutex> lock(mu_);
    structures_ += static_cast<double>(groups.size());
    ++bursts_;
    fingerprint_calls_ += static_cast<std::int64_t>(req->schedules.size());
  }

  void layer_metrics(const SpanRecorder& rec, const WindowSummary& untraced,
                     const WindowSummary& traced, Metrics& m) {
    const std::map<std::string, SpanRecorder::Totals> t = rec.totals();
    auto per_call = [&](const char* name) {
      auto it = t.find(name);
      return it == t.end() || it->second.count == 0
                 ? 0.0
                 : it->second.total_us / static_cast<double>(it->second.count);
    };
    auto total = [&](const char* name) {
      auto it = t.find(name);
      return it == t.end() ? 0.0 : it->second.total_us;
    };
    const double requests = static_cast<double>(traced.ops);
    m.set("api.json_parse_us", per_call("api.json_parse"), "us");
    m.set("api.wire_decode_us", per_call("api.wire_decode"), "us");
    m.set("api.encode_us", per_call("api.encode"), "us");
    m.set("api.http_us", requests > 0 ? (total("request") - total("serve.predict")) / requests : 0,
          "us");
    m.set("serve.predict_us", per_call("serve.predict"), "us");
    m.set("serve.fingerprint_us",
          fingerprint_calls_ > 0 ? total("serve.fingerprint") / static_cast<double>(fingerprint_calls_)
                                 : 0,
          "us");
    m.set("serve.structures_per_batch", bursts_ > 0 ? structures_ / static_cast<double>(bursts_) : 0,
          "count");
    // Per-call costs on this workload's pairs, whether or not the served
    // path paid them (the hot path reads featurizations from the cache).
    std::vector<PairRef> pairs;
    for (std::size_t i = 0; i < pool_.pairs.size() && pairs.size() < 256; ++i)
      pairs.push_back({&pool_.programs[pool_.pairs[i].program], &pool_.pairs[i].schedule});
    measure_pair_layers(pairs, *replay_model_, m);
    m.set("trace.overhead_frac", untraced.mean_ms > 0 ? traced.mean_ms / untraced.mean_ms - 1 : 0,
          "ratio");
    m.set("trace.unaccounted_frac", rec.unaccounted_frac(), "ratio");
  }

  const RunConfig config_;
  const ThreadBudget budget_;
  const bool hot_;
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<Stack> replay_;
  std::unique_ptr<model::SpeedupPredictor> replay_model_;
  std::vector<std::unique_ptr<nn::InferenceArena>> arenas_;  // one per client
  std::vector<model::FeaturizedProgram> hot_feats_;
  PredictPool pool_;
  std::unique_ptr<PredictTraffic> traffic_;
  std::mutex mu_;  // guards the burst tallies below
  double structures_ = 0;
  std::int64_t bursts_ = 0;
  std::int64_t fingerprint_calls_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_predict_workload(const RunConfig& config,
                                                const ThreadBudget& budget, bool hot) {
  return std::make_unique<PredictWorkload>(config, budget, hot);
}

}  // namespace perfbench
