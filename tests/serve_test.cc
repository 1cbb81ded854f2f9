// Tests for the batched inference serving subsystem (src/serve/).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "datagen/generator.h"
#include "model/cost_model.h"
#include "nn/inference.h"
#include "serve/batcher.h"
#include "serve/drift_monitor.h"
#include "serve/feature_cache.h"
#include "serve/feedback_buffer.h"
#include "serve/fingerprint.h"
#include "search/evaluator.h"
#include "serve/prediction_service.h"
#include "support/clock.h"

namespace tcm::serve {
namespace {

ir::Program test_program(std::uint64_t seed = 0) {
  datagen::RandomProgramGenerator gen(datagen::GeneratorOptions::tiny());
  return gen.generate(seed);
}

std::shared_ptr<const model::FeaturizedProgram> featurize_or_die(
    const ir::Program& p, const transforms::Schedule& s) {
  std::string error;
  auto feats = model::featurize(p, s, model::FeatureConfig::fast(), &error);
  if (!feats) throw std::runtime_error("test featurization failed: " + error);
  return std::make_shared<const model::FeaturizedProgram>(std::move(*feats));
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

TEST(Fingerprint, ProgramDeterministicAndNameInvariant) {
  ir::Program a = test_program(1);
  ir::Program b = test_program(1);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  b.name = "renamed";
  EXPECT_EQ(fingerprint(a), fingerprint(b));  // labels are not semantic
}

TEST(Fingerprint, DistinguishesPrograms) {
  EXPECT_NE(fingerprint(test_program(1)), fingerprint(test_program(2)));
}

TEST(Fingerprint, DistinguishesSchedules) {
  transforms::Schedule empty;
  transforms::Schedule par;
  par.parallels.push_back({0, 0});
  transforms::Schedule unroll;
  unroll.unrolls.push_back({0, 2});
  EXPECT_NE(fingerprint(empty), fingerprint(par));
  EXPECT_NE(fingerprint(par), fingerprint(unroll));
  EXPECT_EQ(fingerprint(par), fingerprint(par));
}

TEST(Fingerprint, ScheduleFieldOrderMatters) {
  transforms::Schedule a, b;
  a.tiles.push_back({0, 0, {4, 8}});
  b.tiles.push_back({0, 0, {8, 4}});
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

// ---------------------------------------------------------------------------
// FeatureCache
// ---------------------------------------------------------------------------

TEST(FeatureCache, HitAfterPut) {
  FeatureCache cache(4);
  const PairKey key{1, 2};
  EXPECT_EQ(cache.get(key), nullptr);
  auto feats = featurize_or_die(test_program(), {});
  cache.put(key, feats);
  EXPECT_EQ(cache.get(key), feats);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(FeatureCache, EvictsLeastRecentlyUsed) {
  FeatureCache cache(2);
  auto feats = featurize_or_die(test_program(), {});
  cache.put({1, 0}, feats);
  cache.put({2, 0}, feats);
  EXPECT_NE(cache.get({1, 0}), nullptr);  // touch 1: now 2 is the LRU entry
  cache.put({3, 0}, feats);               // evicts 2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.get({2, 0}), nullptr);
  EXPECT_NE(cache.get({1, 0}), nullptr);
  EXPECT_NE(cache.get({3, 0}), nullptr);
}

TEST(FeatureCache, ZeroCapacityDisables) {
  FeatureCache cache(0);
  auto feats = featurize_or_die(test_program(), {});
  EXPECT_EQ(cache.put({1, 0}, feats), feats);  // pass-through
  EXPECT_EQ(cache.get({1, 0}), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// StructureBatcher
// ---------------------------------------------------------------------------

PendingRequest make_request(std::shared_ptr<const model::FeaturizedProgram> feats) {
  PendingRequest req;
  req.feats = std::move(feats);
  req.enqueued = support::now();
  return req;
}

TEST(StructureBatcher, FullBatchPopsImmediately) {
  StructureBatcher batcher(2, std::chrono::microseconds(60'000'000));  // 1 min: no timer flush
  auto feats = featurize_or_die(test_program(), {});
  batcher.enqueue(make_request(feats));
  batcher.enqueue(make_request(feats));
  const auto batch = batcher.next_batch();  // would block forever if not ready
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batcher.pending(), 0u);
}

TEST(StructureBatcher, MaxLatencyFlushesPartialBatch) {
  StructureBatcher batcher(64, std::chrono::microseconds(2000));
  auto feats = featurize_or_die(test_program(), {});
  const auto t0 = std::chrono::steady_clock::now();
  batcher.enqueue(make_request(feats));
  const auto batch = batcher.next_batch();  // must return after ~2ms, not hang
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_GE(waited, std::chrono::microseconds(1500));
  EXPECT_LT(waited, std::chrono::seconds(10));
}

TEST(StructureBatcher, FlushMakesPartialBatchReady) {
  StructureBatcher batcher(64, std::chrono::microseconds(60'000'000));
  auto feats = featurize_or_die(test_program(), {});
  batcher.enqueue(make_request(feats));
  batcher.flush();
  EXPECT_EQ(batcher.next_batch().size(), 1u);
}

TEST(StructureBatcher, KeepsStructuresApart) {
  // Schedules with different fusion/tiling decisions produce different trees;
  // use two different programs for a guaranteed structure mismatch.
  auto feats_a = featurize_or_die(test_program(1), {});
  auto feats_b = featurize_or_die(test_program(2), {});
  ASSERT_FALSE(feats_a->same_structure(*feats_b));
  StructureBatcher batcher(8, std::chrono::microseconds(0));
  batcher.enqueue(make_request(feats_a));
  batcher.enqueue(make_request(feats_b));
  batcher.enqueue(make_request(feats_a));
  const auto first = batcher.next_batch();
  const auto second = batcher.next_batch();
  ASSERT_EQ(first.size() + second.size(), 3u);
  for (const auto& req : first) EXPECT_TRUE(req.feats->same_structure(*first.front().feats));
  for (const auto& req : second) EXPECT_TRUE(req.feats->same_structure(*second.front().feats));
}

TEST(StructureBatcher, CloseDrainsThenSignalsExit) {
  StructureBatcher batcher(64, std::chrono::microseconds(60'000'000));
  auto feats = featurize_or_die(test_program(), {});
  batcher.enqueue(make_request(feats));
  batcher.close();
  EXPECT_EQ(batcher.next_batch().size(), 1u);  // drained despite huge latency
  EXPECT_TRUE(batcher.next_batch().empty());   // exit signal
  EXPECT_THROW(batcher.enqueue(make_request(feats)), std::runtime_error);
}

// ---------------------------------------------------------------------------
// PredictionService
// ---------------------------------------------------------------------------

ServeOptions fast_options(int threads) {
  ServeOptions options;
  options.num_threads = threads;
  options.features = model::FeatureConfig::fast();
  options.max_queue_latency = std::chrono::microseconds(500);
  return options;
}

TEST(PredictionService, SingleRequestCompletesViaLatencyFlush) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  ServeOptions options = fast_options(1);
  options.max_batch = 64;  // never fills: completion relies on the timer
  PredictionService service(cost_model, options);
  auto future = service.submit(test_program(), transforms::Schedule{});
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  const Prediction pred = future.get();
  EXPECT_GT(pred.speedup, 0.0);  // exp head keeps predictions positive
  EXPECT_EQ(pred.model_version, 0);  // non-owning constructor: unversioned
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_GT(stats.p99_latency, 0.0);
}

TEST(PredictionService, RepeatedPairHitsFeatureCache) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  PredictionService service(cost_model, fast_options(1));
  const ir::Program p = test_program();
  transforms::Schedule s;
  s.parallels.push_back({0, 0});
  const double first = service.submit(p, s).get().speedup;
  const double second = service.submit(p, s).get().speedup;
  EXPECT_EQ(first, second);
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(PredictionService, FeaturizationFailureSurfacesOnFuture) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  ServeOptions options = fast_options(1);
  options.features.max_accesses = 0;  // any RHS load now exceeds the limit
  PredictionService service(cost_model, options);
  auto future = service.submit(test_program(), transforms::Schedule{});
  EXPECT_THROW(future.get(), std::invalid_argument);
  EXPECT_EQ(service.stats().failed_requests, 1u);
}

TEST(PredictionService, PredictManyMatchesSubmitOrder) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  PredictionService service(cost_model, fast_options(2));
  const ir::Program p = test_program();
  datagen::RandomScheduleGenerator sgen;
  Rng srng(3);
  std::vector<transforms::Schedule> candidates;
  for (int i = 0; i < 12; ++i) candidates.push_back(sgen.generate(p, srng));
  const std::vector<double> batched = service.predict_many(p, candidates);
  ASSERT_EQ(batched.size(), candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i)
    EXPECT_EQ(batched[i], service.submit(p, candidates[i]).get().speedup);
}

// The tentpole correctness property: hammering the service from N client
// threads yields bitwise-identical results to direct single-threaded
// infer_batch calls (the same tape-free engine the workers run), for every
// request, whatever batch compositions the dynamic batcher happens to form.
TEST(PredictionService, HammerMatchesDirectInferenceBitwise) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);

  // Mixed-structure request set: 4 programs x 8 schedules.
  struct Case {
    ir::Program program;
    std::vector<transforms::Schedule> schedules;
    std::vector<double> expected;
  };
  datagen::RandomScheduleGenerator sgen;
  std::vector<Case> cases;
  Rng srng(11);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Case c;
    c.program = test_program(seed);
    for (int i = 0; i < 8; ++i) c.schedules.push_back(sgen.generate(c.program, srng));
    cases.push_back(std::move(c));
  }

  // Reference: one infer_batch per request, batch size 1, single thread.
  nn::InferenceArena eval_arena;
  for (Case& c : cases) {
    for (const transforms::Schedule& s : c.schedules) {
      auto feats = featurize_or_die(c.program, s);
      const model::Batch single = model::make_inference_batch({feats.get()});
      const nn::Tensor& pred = cost_model.infer_batch(single, eval_arena);
      c.expected.push_back(static_cast<double>(pred.at(0, 0)));
    }
  }

  // Hammer: 4 client threads x 3 rounds over all cases, against 4 workers
  // with small batches so requests from different clients interleave.
  ServeOptions options = fast_options(4);
  options.max_batch = 8;
  PredictionService service(cost_model, options);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        // Stagger the case order per client so structures interleave.
        for (std::size_t ci = 0; ci < cases.size(); ++ci) {
          const Case& c = cases[(ci + static_cast<std::size_t>(t)) % cases.size()];
          std::vector<std::future<Prediction>> futures;
          futures.reserve(c.schedules.size());
          for (const transforms::Schedule& s : c.schedules)
            futures.push_back(service.submit(c.program, s));
          service.flush();
          for (std::size_t i = 0; i < futures.size(); ++i)
            if (futures[i].get().speedup != c.expected[i]) ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.requests, 4u * 3u * 4u * 8u);
  EXPECT_EQ(stats.failed_requests, 0u);
  EXPECT_GT(stats.mean_batch_occupancy, 1.0);  // batching actually happened
  // Arena path was exercised (the precise steady-state zero-allocation
  // property is asserted in inference_test, where warm-up is controlled).
  EXPECT_GT(stats.arena_heap_allocs, 0u);
  // Every submit probes the cache exactly once. The distinct-pair count is at
  // most 32 (the schedule generator may emit duplicates) and concurrent
  // clients can each miss a pair once before the first insert lands, so
  // misses are bounded by clients x pairs and the rest must be hits.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.requests);
  EXPECT_LE(stats.cache_misses, 4u * 32u);
  EXPECT_GE(stats.cache_hits, 4u * 3u * 32u - 4u * 32u);
}

// The service scores through the fused infer_batch engine; it must agree
// within 1e-5 relative error with the autograd forward_batch reference.
TEST(PredictionService, FusedServiceMatchesForwardBatch) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  const ir::Program p = test_program();
  datagen::RandomScheduleGenerator sgen;
  Rng srng(5);
  std::vector<transforms::Schedule> candidates;
  for (int i = 0; i < 8; ++i) candidates.push_back(sgen.generate(p, srng));

  PredictionService fused_service(cost_model, fast_options(2));
  const std::vector<double> from_fused = fused_service.predict_many(p, candidates);

  Rng eval_rng(0);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    auto feats = featurize_or_die(p, candidates[i]);
    const model::Batch single = model::make_inference_batch({feats.get()});
    const double ref = static_cast<double>(
        cost_model.forward_batch(single, /*training=*/false, eval_rng).value().at(0, 0));
    EXPECT_NEAR(from_fused[i] / ref, 1.0, 1e-5);
  }
}

// ---------------------------------------------------------------------------
// Hot-swap and shadow mode
// ---------------------------------------------------------------------------

// Single-row reference prediction, bypassing the service (same tape-free
// engine the service workers run, so values match bitwise).
double direct_prediction(model::SpeedupPredictor& m, const model::FeaturizedProgram& feats) {
  const model::Batch single = model::make_inference_batch({&feats});
  nn::InferenceArena arena;
  return static_cast<double>(m.infer_batch(single, arena).at(0, 0));
}

TEST(PredictionService, SwapModelRoutesNewTrafficToNewModel) {
  Rng rng_a(7), rng_b(8);
  auto a = std::make_shared<model::CostModel>(model::ModelConfig::fast(), rng_a);
  auto b = std::make_shared<model::CostModel>(model::ModelConfig::fast(), rng_b);
  const ir::Program p = test_program();
  auto feats = featurize_or_die(p, {});
  const double expect_a = direct_prediction(*a, *feats);
  const double expect_b = direct_prediction(*b, *feats);
  ASSERT_NE(expect_a, expect_b);  // different inits -> distinguishable models

  PredictionService service(a, /*version=*/1, fast_options(1));
  EXPECT_EQ(service.active_version(), 1);
  Prediction before = service.submit(feats).get();
  EXPECT_EQ(before.model_version, 1);
  EXPECT_EQ(before.speedup, expect_a);

  service.swap_model(b, /*version=*/2);
  EXPECT_EQ(service.active_version(), 2);
  Prediction after = service.submit(feats).get();
  EXPECT_EQ(after.model_version, 2);
  EXPECT_EQ(after.speedup, expect_b);
  EXPECT_EQ(service.stats().model_swaps, 1u);
}

// The tentpole hot-swap property: under concurrent submit() load, swapping
// models never drops or errors a request, and every response is attributable
// to exactly one version — its value must bitwise-match the reference
// prediction of the model its version tag names. A torn swap (batch built
// with one model, tagged with another) would fail the cross-check.
TEST(PredictionService, HotSwapUnderLoadNeverMixesModels) {
  Rng rng_a(7), rng_b(8);
  auto a = std::make_shared<model::CostModel>(model::ModelConfig::fast(), rng_a);
  auto b = std::make_shared<model::CostModel>(model::ModelConfig::fast(), rng_b);

  // Mixed-structure request set with per-model reference predictions.
  struct Case {
    std::shared_ptr<const model::FeaturizedProgram> feats;
    double expected_a = 0, expected_b = 0;
  };
  datagen::RandomScheduleGenerator sgen;
  Rng srng(11);
  std::vector<Case> cases;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const ir::Program p = test_program(seed);
    for (int i = 0; i < 6; ++i) {
      Case c;
      c.feats = featurize_or_die(p, sgen.generate(p, srng));
      c.expected_a = direct_prediction(*a, *c.feats);
      c.expected_b = direct_prediction(*b, *c.feats);
      cases.push_back(std::move(c));
    }
  }

  ServeOptions options = fast_options(4);
  options.max_batch = 8;
  PredictionService service(a, /*version=*/1, options);

  std::atomic<bool> stop{false};
  std::atomic<int> wrong_version{0};
  std::atomic<int> value_version_mismatch{0};
  std::atomic<int> errors{0};
  std::atomic<std::uint64_t> completed{0};
  std::mutex progress_mu;  // pairs with progress_cv: a client finished a burst
  std::condition_variable progress_cv;

  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      std::vector<std::future<Prediction>> futures;
      while (!stop.load(std::memory_order_relaxed)) {
        futures.clear();
        for (const Case& c : cases) futures.push_back(service.submit(c.feats));
        service.flush();
        for (std::size_t i = 0; i < futures.size(); ++i) {
          try {
            const Prediction pred = futures[i].get();
            if (pred.model_version != 1 && pred.model_version != 2) ++wrong_version;
            const double expected =
                pred.model_version == 1 ? cases[i].expected_a : cases[i].expected_b;
            if (pred.speedup != expected) ++value_version_mismatch;
            ++completed;
          } catch (...) {
            ++errors;
          }
        }
        { std::lock_guard<std::mutex> lock(progress_mu); }
        progress_cv.notify_all();
      }
    });
  }

  // Swap back and forth while the clients hammer the service; each swap
  // waits for at least one more burst to complete, so traffic runs on every
  // model epoch.
  int swaps = 0;
  for (; swaps < 40; ++swaps) {
    const std::uint64_t seen = completed.load() + static_cast<std::uint64_t>(errors.load());
    {
      std::unique_lock<std::mutex> lock(progress_mu);
      progress_cv.wait(lock, [&] {
        return completed.load() + static_cast<std::uint64_t>(errors.load()) > seen;
      });
    }
    if (swaps % 2 == 0)
      service.swap_model(b, 2);
    else
      service.swap_model(a, 1);
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_GT(completed.load(), 0u);
  EXPECT_EQ(errors.load(), 0);                   // never drops or errors
  EXPECT_EQ(wrong_version.load(), 0);            // only the two live versions
  EXPECT_EQ(value_version_mismatch.load(), 0);   // value matches its version tag
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.failed_requests, 0u);
  EXPECT_EQ(stats.requests, completed.load());
  EXPECT_EQ(stats.model_swaps, static_cast<std::uint64_t>(swaps));
}

TEST(PredictionService, ShadowModeRecordsDisagreementWithoutTouchingClients) {
  Rng rng_a(7), rng_b(8);
  auto a = std::make_shared<model::CostModel>(model::ModelConfig::fast(), rng_a);
  auto b = std::make_shared<model::CostModel>(model::ModelConfig::fast(), rng_b);

  const ir::Program p = test_program();
  datagen::RandomScheduleGenerator sgen;
  Rng srng(5);
  std::vector<std::shared_ptr<const model::FeaturizedProgram>> requests;
  for (int i = 0; i < 16; ++i) requests.push_back(featurize_or_die(p, sgen.generate(p, srng)));

  PredictionService service(a, /*version=*/1, fast_options(2));
  service.set_shadow(b, /*version=*/2, /*sample_fraction=*/1.0);

  std::vector<std::future<Prediction>> futures;
  for (const auto& f : requests) futures.push_back(service.submit(f));
  service.flush();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Prediction pred = futures[i].get();
    EXPECT_EQ(pred.model_version, 1);  // clients always get the incumbent
    EXPECT_EQ(pred.speedup, direct_prediction(*a, *requests[i]));
  }

  service.quiesce();  // shadow scoring runs after the client promises resolve
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.shadow_version, 2);
  EXPECT_EQ(stats.shadow_requests, requests.size());  // fraction 1.0: all scored
  EXPECT_EQ(stats.shadow_failures, 0u);
  EXPECT_GT(stats.shadow_mape, 0.0);  // different models disagree
  EXPECT_GE(stats.shadow_spearman, -1.0);
  EXPECT_LE(stats.shadow_spearman, 1.0);

  // A shadow identical to the incumbent shows zero disagreement and perfect
  // rank agreement (set_shadow resets the stats).
  service.set_shadow(a, /*version=*/1, 1.0);
  futures.clear();
  for (const auto& f : requests) futures.push_back(service.submit(f));
  service.flush();
  for (auto& f : futures) f.get();
  service.quiesce();
  const ServeStats self = service.stats();
  EXPECT_EQ(self.shadow_requests, requests.size());
  EXPECT_EQ(self.shadow_mape, 0.0);
  EXPECT_EQ(self.shadow_spearman, 1.0);

  service.clear_shadow();
  EXPECT_EQ(service.stats().shadow_version, 0);
}

// ModelEvaluator rides on the service and must agree with it exactly.
TEST(PredictionService, ModelEvaluatorMatchesService) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  const ir::Program p = test_program();
  datagen::RandomScheduleGenerator sgen;
  Rng srng(5);
  std::vector<transforms::Schedule> candidates;
  for (int i = 0; i < 6; ++i) candidates.push_back(sgen.generate(p, srng));

  search::ModelEvaluator evaluator(&cost_model, model::FeatureConfig::fast());
  const std::vector<double> from_evaluator = evaluator.evaluate(p, candidates);
  EXPECT_EQ(evaluator.evaluations(), 6);
  EXPECT_GT(evaluator.accounted_seconds(), 0.0);

  PredictionService service(cost_model, fast_options(1));
  const std::vector<double> from_service = service.predict_many(p, candidates);
  ASSERT_EQ(from_evaluator.size(), from_service.size());
  for (std::size_t i = 0; i < from_service.size(); ++i)
    EXPECT_EQ(from_evaluator[i], from_service[i]);
}

// ---------------------------------------------------------------------------
// ServeStats derived metrics: reading before any traffic must be all finite
// zeros, never a division by zero or NaN.
// ---------------------------------------------------------------------------

TEST(PredictionService, StatsBeforeAnyTrafficAreFiniteZeros) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  PredictionService service(cost_model, fast_options(1));
  // Install a shadow too: its derived metrics must be just as safe to read
  // before the first shadow-scored batch.
  auto shadow = std::make_shared<model::CostModel>(model::ModelConfig::fast(), rng);
  service.set_shadow(shadow, 42);

  const ServeStats s = service.stats();
  EXPECT_EQ(s.requests, 0u);
  EXPECT_EQ(s.batches, 0u);
  for (double v : {s.mean_batch_occupancy, s.p50_latency, s.p99_latency, s.shadow_mape,
                   s.shadow_spearman}) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(v, 0.0);
  }
  EXPECT_TRUE(service.recent_predictions().empty());
}

TEST(PredictionService, RecentPredictionsWindowTracksServedTraffic) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  ServeOptions options = fast_options(1);
  options.prediction_window = 8;  // smaller than the traffic: ring must wrap
  PredictionService service(cost_model, options);
  const ir::Program p = test_program();
  datagen::RandomScheduleGenerator sgen;
  Rng srng(11);
  std::vector<transforms::Schedule> candidates;
  for (int i = 0; i < 20; ++i) candidates.push_back(sgen.generate(p, srng));
  const std::vector<double> served = service.predict_many(p, candidates);
  service.quiesce();

  const std::vector<double> window = service.recent_predictions();
  EXPECT_EQ(window.size(), 8u);  // capped at prediction_window
  for (double w : window)
    EXPECT_NE(std::find(served.begin(), served.end(), w), served.end());

  service.clear_recent_predictions();
  EXPECT_TRUE(service.recent_predictions().empty());
}

// ---------------------------------------------------------------------------
// FeedbackBuffer
// ---------------------------------------------------------------------------

TEST(FeedbackBuffer, ReservoirBoundsAndDrainResets) {
  FeedbackBufferOptions options;
  options.capacity = 4;
  options.sample_fraction = 1.0;
  FeedbackBuffer buffer(options);
  const ir::Program p = test_program();
  for (int i = 0; i < 10; ++i) buffer.offer(p, transforms::Schedule{});
  EXPECT_EQ(buffer.offered(), 10u);
  EXPECT_EQ(buffer.sampled(), 10u);
  EXPECT_EQ(buffer.size(), 4u);  // reservoir never exceeds capacity

  const std::vector<ServedSample> drained = buffer.drain();
  EXPECT_EQ(drained.size(), 4u);
  EXPECT_EQ(buffer.size(), 0u);
  // The stream restarts: the next offers fill a fresh reservoir.
  buffer.offer(p, transforms::Schedule{});
  EXPECT_EQ(buffer.size(), 1u);
}

TEST(FeedbackBuffer, SampleFractionZeroNeverCopies) {
  FeedbackBufferOptions options;
  options.sample_fraction = 0.0;
  FeedbackBuffer buffer(options);
  const ir::Program p = test_program();
  for (int i = 0; i < 50; ++i) buffer.offer(p, transforms::Schedule{});
  EXPECT_EQ(buffer.offered(), 50u);
  EXPECT_EQ(buffer.sampled(), 0u);
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(PredictionService, FeedbackTapSamplesRawSubmissions) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  PredictionService service(cost_model, fast_options(1));
  FeedbackBufferOptions foptions;
  foptions.capacity = 64;
  foptions.sample_fraction = 1.0;
  auto buffer = std::make_shared<FeedbackBuffer>(foptions);
  service.set_feedback(buffer);

  const ir::Program p = test_program();
  datagen::RandomScheduleGenerator sgen;
  Rng srng(13);
  std::vector<transforms::Schedule> candidates;
  for (int i = 0; i < 6; ++i) candidates.push_back(sgen.generate(p, srng));
  service.predict_many(p, candidates);
  EXPECT_EQ(buffer->offered(), 6u);
  EXPECT_EQ(buffer->size(), 6u);

  // Pre-featurized submissions carry no program and must bypass the tap.
  auto future = service.submit(featurize_or_die(p, candidates[0]));
  service.flush();
  future.get();
  EXPECT_EQ(buffer->offered(), 6u);

  service.set_feedback(nullptr);
  service.predict_many(p, candidates);
  EXPECT_EQ(buffer->offered(), 6u);  // detached
}

// ---------------------------------------------------------------------------
// DriftMonitor
// ---------------------------------------------------------------------------

std::vector<double> synthetic_distribution(std::size_t n, double mean, double stddev,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) xs.push_back(rng.normal(mean, stddev));
  return xs;
}

DriftMonitorOptions tight_drift_options() {
  DriftMonitorOptions options;
  options.min_samples = 32;
  options.cooldown_observations = 3;
  return options;
}

TEST(DriftMonitor, PsiAndKsSeparateShiftedFromIdentical) {
  const std::vector<double> ref = synthetic_distribution(512, 1.0, 0.2, 1);
  const std::vector<double> same = synthetic_distribution(512, 1.0, 0.2, 2);
  const std::vector<double> shifted = synthetic_distribution(512, 2.5, 0.2, 3);
  EXPECT_LT(DriftMonitor::psi(ref, same, 10), 0.1);
  EXPECT_GT(DriftMonitor::psi(ref, shifted, 10), 1.0);
  EXPECT_LT(DriftMonitor::ks_statistic(ref, same), 0.1);
  EXPECT_GT(DriftMonitor::ks_statistic(ref, shifted), 0.9);

  // Ties must not inflate KS: identical windows dominated by one repeated
  // value (a cache-hot workload re-serving the same predictions) measure
  // exactly zero shift.
  std::vector<double> tied(100, 1.0);
  for (int i = 0; i < 20; ++i) tied[static_cast<std::size_t>(i)] = 2.0 + 0.01 * i;
  EXPECT_EQ(DriftMonitor::ks_statistic(tied, tied), 0.0);
}

TEST(DriftMonitor, ShortWindowsNeverFireOrProduceNaN) {
  DriftMonitor monitor(tight_drift_options());
  ServeStats stats;
  // 0 and 1 samples: below every minimum, including the degenerate < 2.
  for (const std::vector<double> window : {std::vector<double>{}, std::vector<double>{1.0}}) {
    const DriftReport report = monitor.observe(stats, window);
    EXPECT_FALSE(report.drifted);
    EXPECT_FALSE(report.triggered);
    EXPECT_EQ(report.reference_size, 0u);
    for (double v : {report.psi.value, report.ks.value, report.failure_rate.value,
                     report.shadow_mape.value, report.shadow_spearman.value})
      EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_FALSE(monitor.baselined());
}

TEST(DriftMonitor, ShiftedDistributionTriggersExactlyOncePerCooldown) {
  DriftMonitor monitor(tight_drift_options());
  ServeStats stats;
  const std::vector<double> calm = synthetic_distribution(256, 1.0, 0.2, 4);
  const std::vector<double> shifted = synthetic_distribution(256, 3.0, 0.2, 5);

  // First adequate window freezes the baseline and never triggers.
  DriftReport report = monitor.observe(stats, calm);
  EXPECT_TRUE(monitor.baselined());
  EXPECT_FALSE(report.triggered);

  // Same distribution: quiet.
  report = monitor.observe(stats, synthetic_distribution(256, 1.0, 0.2, 6));
  EXPECT_FALSE(report.drifted);

  // Sustained shift: drifted on every observation, triggered exactly once
  // per cooldown window (cooldown_observations = 3).
  int triggers = 0;
  std::vector<int> trigger_indices;
  for (int i = 0; i < 8; ++i) {
    report = monitor.observe(stats, shifted);
    EXPECT_TRUE(report.drifted) << i;
    EXPECT_TRUE(report.psi.fired || report.ks.fired);
    if (report.triggered) {
      ++triggers;
      trigger_indices.push_back(i);
    }
  }
  ASSERT_EQ(trigger_indices.size(), 2u);          // observations 0 and 4
  EXPECT_EQ(trigger_indices[1] - trigger_indices[0], 4);  // 3 suppressed between
  EXPECT_EQ(triggers, 2);

  // Rebaseline forgets the reference and the cooldown: the shifted
  // distribution becomes the new normal.
  monitor.rebaseline();
  EXPECT_FALSE(monitor.baselined());
  report = monitor.observe(stats, shifted);  // freezes new baseline
  EXPECT_FALSE(report.triggered);
  report = monitor.observe(stats, shifted);
  EXPECT_FALSE(report.drifted);
}

TEST(DriftMonitor, FailureRateSignalRespectsMinimumVolume) {
  DriftMonitorOptions options = tight_drift_options();
  options.max_failure_rate = 0.05;
  options.min_failure_volume = 100;
  DriftMonitor monitor(options);
  const std::vector<double> calm = synthetic_distribution(64, 1.0, 0.2, 7);

  ServeStats stats;
  stats.requests = 1000;
  stats.failed_requests = 10;
  monitor.observe(stats, calm);  // baseline

  // 50 more requests, all failed: rate 100% but volume below the floor.
  stats.requests = 1000;
  stats.failed_requests = 60;
  DriftReport report = monitor.observe(stats, calm);
  EXPECT_FALSE(report.failure_rate.fired);

  // Volume now suffices and the rate is far over the 5% bound.
  stats.requests = 1040;
  stats.failed_requests = 70;
  report = monitor.observe(stats, calm);
  EXPECT_TRUE(report.failure_rate.fired);
  EXPECT_TRUE(report.triggered);
  EXPECT_NE(report.reason.find("failure_rate"), std::string::npos);
}

TEST(DriftMonitor, ShadowDisagreementSignals) {
  DriftMonitorOptions options = tight_drift_options();
  options.max_shadow_mape = 0.3;
  options.min_shadow_spearman = 0.5;
  options.min_shadow_requests = 10;
  DriftMonitor monitor(options);
  const std::vector<double> calm = synthetic_distribution(64, 1.0, 0.2, 8);
  ServeStats stats;
  monitor.observe(stats, calm);  // baseline

  stats.shadow_requests = 5;  // below the floor: quiet
  stats.shadow_mape = 0.9;
  stats.shadow_spearman = -1.0;
  EXPECT_FALSE(monitor.observe(stats, calm).drifted);

  stats.shadow_requests = 50;
  const DriftReport report = monitor.observe(stats, calm);
  EXPECT_TRUE(report.shadow_mape.fired);
  EXPECT_TRUE(report.shadow_spearman.fired);
  EXPECT_TRUE(report.triggered);
}

}  // namespace
}  // namespace tcm::serve
