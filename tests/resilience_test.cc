// Overload-resilience and chaos tests: retries, circuit breaker, admission
// control + degradation ladder, deadline propagation shed points, and the
// failpoint-driven fault-injection scenarios (the latter skip themselves on
// builds without -DTCM_FAILPOINTS=ON).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "datagen/generator.h"
#include "model/cost_model.h"
#include "nn/inference.h"
#include "obs/metrics.h"
#include "registry/model_registry.h"
#include "serve/admission.h"
#include "serve/errors.h"
#include "serve/prediction_service.h"
#include "support/circuit_breaker.h"
#include "support/failpoint.h"
#include "support/retry.h"
#include "test_clock.h"

namespace fs = std::filesystem;

namespace tcm {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// support::with_retries
// ---------------------------------------------------------------------------

TEST(Retry, BackoffScheduleIsExponentialAndCapped) {
  support::RetryOptions options;
  options.initial_backoff = milliseconds(10);
  options.multiplier = 2.0;
  options.max_backoff = milliseconds(50);
  EXPECT_EQ(support::retry_backoff(options, 0), milliseconds(10));
  EXPECT_EQ(support::retry_backoff(options, 1), milliseconds(20));
  EXPECT_EQ(support::retry_backoff(options, 2), milliseconds(40));
  EXPECT_EQ(support::retry_backoff(options, 3), milliseconds(50));  // capped
  EXPECT_EQ(support::retry_backoff(options, 9), milliseconds(50));
}

TEST(Retry, TransientFailuresAreAbsorbed) {
  support::RetryOptions options;
  options.max_attempts = 3;
  options.jitter = 0.0;
  std::vector<milliseconds> slept;
  options.sleep_fn = [&](milliseconds d) { slept.push_back(d); };
  std::vector<int> retried;
  options.on_retry = [&](int attempt, const std::string&) { retried.push_back(attempt); };

  int calls = 0;
  const int result = support::with_retries(options, [&] {
    if (++calls < 3) throw std::runtime_error("transient");
    return 42;
  });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(slept.size(), 2u);  // a sleep between attempts, none after success
  EXPECT_EQ(slept[0], milliseconds(10));
  EXPECT_EQ(slept[1], milliseconds(20));
  EXPECT_EQ(retried, (std::vector<int>{1, 2}));
}

TEST(Retry, TerminalFailureRethrowsTheLastExceptionUnchanged) {
  support::RetryOptions options;
  options.max_attempts = 3;
  options.sleep_fn = [](milliseconds) {};
  int calls = 0;
  try {
    support::with_retries(options, [&]() -> int {
      ++calls;
      throw std::runtime_error("attempt " + std::to_string(calls));
    });
    FAIL() << "with_retries must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "attempt 3");  // the *last* failure, type intact
  }
  EXPECT_EQ(calls, 3);
}

TEST(Retry, JitterStaysWithinTheConfiguredBand) {
  support::RetryOptions options;
  options.max_attempts = 32;
  options.initial_backoff = milliseconds(100);
  options.multiplier = 1.0;  // constant pre-jitter backoff: isolates the jitter
  options.jitter = 0.2;
  std::vector<milliseconds> slept;
  options.sleep_fn = [&](milliseconds d) { slept.push_back(d); };
  EXPECT_THROW(support::with_retries(options, []() -> int {
    throw std::runtime_error("always");
  }),
               std::runtime_error);
  ASSERT_EQ(slept.size(), 31u);
  bool varied = false;
  for (milliseconds d : slept) {
    EXPECT_GE(d.count(), 80);
    EXPECT_LE(d.count(), 120);
    if (d != slept.front()) varied = true;
  }
  EXPECT_TRUE(varied);  // jitter actually jitters
}

TEST(Retry, MaxAttemptsOneMeansNoRetry) {
  support::RetryOptions options;
  options.max_attempts = 1;
  bool slept_any = false;
  options.sleep_fn = [&](milliseconds) { slept_any = true; };
  int calls = 0;
  EXPECT_THROW(support::with_retries(options, [&]() -> int {
    ++calls;
    throw std::runtime_error("x");
  }),
               std::runtime_error);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(slept_any);
}

// ---------------------------------------------------------------------------
// support::CircuitBreaker
// ---------------------------------------------------------------------------

support::CircuitBreaker::Options breaker_options() {
  support::CircuitBreaker::Options options;
  options.failure_threshold = 3;
  options.open_cooldown = milliseconds(1000);
  return options;
}

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresOnly) {
  ManualClock clock;
  support::ScopedClock use_clock(clock);
  support::CircuitBreaker breaker(breaker_options());
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(breaker.allow());
    breaker.record_failure();
  }
  breaker.record_success();  // resets the streak
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  for (int i = 0; i < 2; ++i) breaker.record_failure();
  EXPECT_EQ(breaker.state(), support::CircuitBreaker::State::kClosed);
  breaker.record_failure();  // third consecutive: trips
  EXPECT_EQ(breaker.state(), support::CircuitBreaker::State::kOpen);
  EXPECT_STREQ(breaker.state_name(), "open");
  EXPECT_EQ(breaker.times_opened(), 1u);
  EXPECT_FALSE(breaker.allow());
}

TEST(CircuitBreaker, HalfOpenAdmitsExactlyOneProbe) {
  ManualClock clock;
  support::ScopedClock use_clock(clock);
  support::CircuitBreaker breaker(breaker_options());
  for (int i = 0; i < 3; ++i) breaker.record_failure();
  ASSERT_EQ(breaker.state(), support::CircuitBreaker::State::kOpen);

  clock.advance(milliseconds(999));
  EXPECT_FALSE(breaker.allow());  // cooldown not yet elapsed
  clock.advance(milliseconds(1));
  EXPECT_TRUE(breaker.allow());  // the probe
  EXPECT_EQ(breaker.state(), support::CircuitBreaker::State::kHalfOpen);
  EXPECT_STREQ(breaker.state_name(), "half_open");
  EXPECT_FALSE(breaker.allow());  // only one probe until it reports back

  breaker.record_success();
  EXPECT_EQ(breaker.state(), support::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow());
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

TEST(CircuitBreaker, FailedProbeReopensAndRestartsTheCooldown) {
  ManualClock clock;
  support::ScopedClock use_clock(clock);
  support::CircuitBreaker breaker(breaker_options());
  for (int i = 0; i < 3; ++i) breaker.record_failure();
  clock.advance(milliseconds(1000));
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();  // probe fails
  EXPECT_EQ(breaker.state(), support::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 2u);
  clock.advance(milliseconds(500));
  EXPECT_FALSE(breaker.allow());  // cooldown restarted at the probe failure
  clock.advance(milliseconds(500));
  EXPECT_TRUE(breaker.allow());
}

// ---------------------------------------------------------------------------
// serve::AdmissionController
// ---------------------------------------------------------------------------

TEST(AdmissionController, DisabledWhenQueueCapIsZero) {
  obs::MetricsRegistry registry;
  serve::AdmissionController admission({}, registry);
  EXPECT_FALSE(admission.enabled());
  EXPECT_TRUE(admission.admit(1'000'000, std::chrono::hours(1)).admit);
  EXPECT_EQ(admission.update(1'000'000), 0);
  EXPECT_EQ(admission.total_shed(), 0u);
}

TEST(AdmissionController, HardCapShedsRegardlessOfLadder) {
  obs::MetricsRegistry registry;
  serve::AdmissionOptions options;
  options.queue_cap = 8;
  serve::AdmissionController admission(options, registry);
  EXPECT_TRUE(admission.admit(0, {}).admit);
  const auto decision = admission.admit(8, {});
  EXPECT_FALSE(decision.admit);
  EXPECT_EQ(decision.reason, serve::ShedReason::kQueueFull);
  EXPECT_EQ(admission.total_shed(), 1u);
}

TEST(AdmissionController, StaleHeadOfQueueSheds) {
  obs::MetricsRegistry registry;
  serve::AdmissionOptions options;
  options.queue_cap = 100;
  options.max_queue_age = milliseconds(10);
  serve::AdmissionController admission(options, registry);
  EXPECT_TRUE(admission.admit(1, milliseconds(9)).admit);
  const auto decision = admission.admit(1, milliseconds(11));
  EXPECT_FALSE(decision.admit);
  EXPECT_EQ(decision.reason, serve::ShedReason::kQueueAge);
}

TEST(AdmissionController, LadderWalksUpAndDownWithHysteresis) {
  obs::MetricsRegistry registry;
  serve::AdmissionOptions options;
  options.queue_cap = 100;  // default watermarks: .50/.30, .75/.50, .95/.70
  serve::AdmissionController admission(options, registry);

  EXPECT_EQ(admission.update(0), 0);
  EXPECT_EQ(admission.update(50), 1);   // >= shadow_off_enter
  EXPECT_EQ(admission.update(40), 1);   // above shadow_off_exit: holds (hysteresis)
  EXPECT_EQ(admission.update(29), 0);   // below exit: back down
  EXPECT_EQ(admission.update(75), 2);   // straight to latency shrink
  EXPECT_EQ(admission.update(95), 3);
  EXPECT_EQ(admission.update(71), 3);   // above shed_exit: still shedding
  EXPECT_EQ(admission.update(69), 2);
  EXPECT_EQ(admission.update(49), 1);
  EXPECT_EQ(admission.update(10), 0);
  // One update may cross several watermarks at once.
  EXPECT_EQ(admission.update(100), 3);
  EXPECT_EQ(admission.update(0), 0);

  // Shedding is hysteretic too: depth 75 admits while pressure is rising
  // (level 2), but sheds while coming down from saturation — level 3 holds
  // until the fill drops below shed_exit.
  EXPECT_TRUE(admission.admit(75, {}).admit);
  admission.update(96);
  EXPECT_FALSE(admission.admit(75, {}).admit);
}

TEST(AdmissionController, ShedCountersLandInTheSharedMetricsFamily) {
  obs::MetricsRegistry registry;
  serve::register_admission_metrics(registry);  // zero-valued from first scrape
  serve::AdmissionOptions options;
  options.queue_cap = 4;
  serve::AdmissionController admission(options, registry);
  admission.count_shed(serve::ShedReason::kDeadlineSubmit);
  admission.count_shed(serve::ShedReason::kDeadlineBatch);
  admission.count_shed(serve::ShedReason::kDeadlineInfer);
  (void)admission.admit(4, {});
  EXPECT_EQ(admission.total_shed(), 4u);
  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("tcm_shed_total{reason=\"deadline_submit\"} 1"), std::string::npos);
  EXPECT_NE(text.find("tcm_shed_total{reason=\"queue_full\"} 1"), std::string::npos);
  EXPECT_NE(text.find("tcm_shed_total{reason=\"queue_age\"} 0"), std::string::npos);
  EXPECT_NE(text.find("tcm_degradation_level"), std::string::npos);
}

// ---------------------------------------------------------------------------
// PredictionService: deadline shed points and admission integration
// ---------------------------------------------------------------------------

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

serve::ServeOptions fast_options(int threads) {
  serve::ServeOptions options;
  options.num_threads = threads;
  options.features = model::FeatureConfig::fast();
  options.max_queue_latency = std::chrono::microseconds(500);
  return options;
}

double direct_prediction(model::SpeedupPredictor& m, const model::FeaturizedProgram& feats) {
  const model::Batch single = model::make_inference_batch({&feats});
  nn::InferenceArena arena;
  return static_cast<double>(m.infer_batch(single, arena).at(0, 0));
}

TEST(PredictionServiceResilience, ExpiredDeadlineShedsBeforeFeaturization) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::PredictionService service(cost_model, fast_options(1));

  auto future = service.submit(test_program(), transforms::Schedule{},
                               steady_clock::now() - milliseconds(1));
  // Shed requests come back as already-failed futures: ready with no wait.
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_THROW(future.get(), serve::DeadlineExceededError);

  const serve::ServeStats stats = service.stats();
  EXPECT_EQ(stats.shed_requests, 1u);
  EXPECT_EQ(stats.requests, 0u);
  // The featurizer (and its cache) was never touched.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0u);
}

TEST(PredictionServiceResilience, DefaultDeadlineExpiresWhileQueuedAndShedsAtBatchAssemble) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::ServeOptions options = fast_options(1);
  options.max_batch = 64;
  // The batch window (100ms) far exceeds the server default deadline (5ms):
  // a lone request expires while waiting for company and must be shed at
  // batch assemble instead of burning a forward pass.
  options.max_queue_latency = std::chrono::microseconds(100'000);
  options.default_deadline = milliseconds(5);
  serve::PredictionService service(cost_model, options);

  auto future = service.submit(featurize_or_die(test_program(), {}));
  EXPECT_THROW(future.get(), serve::DeadlineExceededError);
  const serve::ServeStats stats = service.stats();
  EXPECT_EQ(stats.shed_requests, 1u);
  EXPECT_EQ(stats.batches, 0u);  // the expired batch never reached inference
}

// Under a manual clock nothing expires until the test moves time: the request
// waits out its batch window, and the one step past both its deadline and the
// window wakes the worker, which sheds it without a forward pass.
TEST(PredictionServiceResilience, QueuedRequestIsShedOnceTheClockPassesItsDeadline) {
  ManualClock clock;
  support::ScopedClock use_clock(clock);
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::ServeOptions options = fast_options(1);
  options.max_queue_latency = std::chrono::microseconds(100'000);
  serve::PredictionService service(cost_model, options);

  auto future =
      service.submit(featurize_or_die(test_program(), {}), clock.now() + milliseconds(50));
  EXPECT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::timeout);
  EXPECT_EQ(service.pending(), 1u);  // frozen clock: the window never closes

  clock.advance(milliseconds(200));
  EXPECT_THROW(future.get(), serve::DeadlineExceededError);
  const serve::ServeStats stats = service.stats();
  EXPECT_EQ(stats.shed_requests, 1u);
  EXPECT_EQ(stats.batches, 0u);
}

TEST(PredictionServiceResilience, ExplicitDeadlineTightensTheServerDefault) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::ServeOptions options = fast_options(1);
  options.default_deadline = milliseconds(60'000);  // generous server default
  serve::PredictionService service(cost_model, options);
  // An explicit, already-expired client deadline wins over the big default.
  auto future = service.submit(featurize_or_die(test_program(), {}),
                               steady_clock::now() - milliseconds(1));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_THROW(future.get(), serve::DeadlineExceededError);
  // And a request without one still completes (default applied, not expired).
  EXPECT_GT(service.submit(featurize_or_die(test_program(), {})).get().speedup, 0.0);
}

TEST(PredictionServiceResilience, SaturatedQueueShedsNewArrivalsAndServesTheAdmitted) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::ServeOptions options = fast_options(1);
  options.max_batch = 64;
  options.max_queue_latency = std::chrono::microseconds(60'000'000);  // no timer flush
  options.admission_queue_cap = 4;
  serve::PredictionService service(cost_model, options);

  auto feats = featurize_or_die(test_program(), {});
  const double expected = direct_prediction(cost_model, *feats);

  std::vector<std::future<serve::Prediction>> admitted;
  for (int i = 0; i < 4; ++i) admitted.push_back(service.submit(feats));
  EXPECT_EQ(service.pending(), 4u);

  // Queue at the hard cap: the next arrival fails fast, no queue growth.
  auto shed = service.submit(feats);
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_THROW(shed.get(), serve::AdmissionRejectedError);
  EXPECT_EQ(service.pending(), 4u);

  // The admitted requests are untouched by the shedding around them:
  // bitwise-identical to direct single-threaded inference.
  service.flush();
  for (auto& f : admitted) EXPECT_EQ(f.get().speedup, expected);

  const serve::ServeStats stats = service.stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.shed_requests, 1u);
  EXPECT_EQ(stats.failed_requests, 0u);  // shed != failed

  // With the queue drained the workers walk the ladder back to normal; a
  // worker steps the ladder before it marks its batch done, so quiesce()
  // returning means the step has happened.
  service.quiesce();
  EXPECT_EQ(service.stats().degradation_level, 0);
}

// Saturation hammer: concurrent clients against a tiny queue. Every future
// resolves (served or shed, never hung), accepted requests stay
// bitwise-correct, and the queue never exceeds its cap.
TEST(PredictionServiceResilience, OverloadHammerBoundsTheQueueAndNeverWedges) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::ServeOptions options = fast_options(2);
  options.max_batch = 4;
  options.admission_queue_cap = 8;
  serve::PredictionService service(cost_model, options);

  auto feats = featurize_or_die(test_program(), {});
  const double expected = direct_prediction(cost_model, *feats);

  std::atomic<std::uint64_t> served{0}, shed{0}, wrong{0}, unexpected_errors{0};
  std::atomic<std::uint64_t> max_pending{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        const std::uint64_t depth = service.pending();
        std::uint64_t seen = max_pending.load();
        while (depth > seen && !max_pending.compare_exchange_weak(seen, depth)) {
        }
        auto future = service.submit(feats);
        try {
          if (future.get().speedup != expected) ++wrong;
          ++served;
        } catch (const serve::AdmissionRejectedError&) {
          ++shed;
        } catch (...) {
          ++unexpected_errors;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(served.load() + shed.load(), 4u * 200u);
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(unexpected_errors.load(), 0u);
  EXPECT_GT(served.load(), 0u);
  EXPECT_LE(max_pending.load(), 8u);  // the cap actually bounds the queue
  const serve::ServeStats stats = service.stats();
  EXPECT_EQ(stats.requests, served.load());
  EXPECT_EQ(stats.shed_requests, shed.load());
}

// ---------------------------------------------------------------------------
// Failpoints: framework semantics (always compiled) ...
// ---------------------------------------------------------------------------

class FailpointGuard {
 public:
  ~FailpointGuard() { support::failpoint_disarm_all(); }
};

TEST(Failpoint, SpecGrammarRejectsGarbageAndArmsPairs) {
  FailpointGuard guard;
  std::string error;
  EXPECT_FALSE(support::failpoint_arm("x", "explode", &error));
  EXPECT_NE(error.find("unknown action"), std::string::npos);
  EXPECT_FALSE(support::failpoint_arm_spec("no-equals-sign", &error));

  EXPECT_TRUE(support::failpoint_arm_spec(
      "registry.fsync=2*error;batcher.stall=delay(5);registry.promote=crash", &error))
      << error;
  const std::vector<std::string> armed = support::failpoint_armed();
  EXPECT_EQ(armed.size(), 3u);
  support::failpoint_disarm("batcher.stall");
  EXPECT_EQ(support::failpoint_armed().size(), 2u);
  support::failpoint_disarm_all();
  EXPECT_TRUE(support::failpoint_armed().empty());
}

// ... and fault injection (need the compiled-in sites).

TEST(Failpoint, InferThrowFailsOnlyTheArmedBatch) {
  if (!support::failpoints_compiled())
    GTEST_SKIP() << "build with -DTCM_FAILPOINTS=ON for fault injection";
  FailpointGuard guard;

  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::ServeOptions options = fast_options(1);
  options.max_batch = 2;
  serve::PredictionService service(cost_model, options);
  auto feats = featurize_or_die(test_program(), {});

  ASSERT_TRUE(support::failpoint_arm("infer.throw", "1*error"));
  auto a = service.submit(feats);
  auto b = service.submit(feats);  // fills the batch: pops immediately
  EXPECT_THROW(a.get(), std::runtime_error);
  EXPECT_THROW(b.get(), std::runtime_error);
  EXPECT_EQ(support::failpoint_hits("infer.throw"), 1u);

  // The blast radius is one batch: the service keeps serving afterwards.
  auto c = service.submit(feats);
  auto d = service.submit(feats);
  EXPECT_GT(c.get().speedup, 0.0);
  EXPECT_GT(d.get().speedup, 0.0);
  const serve::ServeStats stats = service.stats();
  EXPECT_EQ(stats.failed_requests, 2u);
  EXPECT_EQ(stats.requests, 2u);
}

TEST(Failpoint, TransientRegistryIoErrorsAreRetriedAway) {
  if (!support::failpoints_compiled())
    GTEST_SKIP() << "build with -DTCM_FAILPOINTS=ON for fault injection";
  FailpointGuard guard;

  const fs::path root = fs::path(::testing::TempDir()) / "tcm_resilience_retry";
  fs::remove_all(root);
  registry::ModelRegistry registry(root.string());
  Rng rng(7);
  model::CostModel m(model::ModelConfig::fast(), rng);
  registry::ModelManifest manifest;
  manifest.config = model::ModelConfig::fast();

  // Two injected fsync failures: absorbed by the 3-attempt retry budget, so
  // the registration still succeeds end to end.
  ASSERT_TRUE(support::failpoint_arm("registry.fsync", "2*error"));
  const int version = registry.register_version(m, manifest);
  EXPECT_EQ(version, 1);
  EXPECT_GE(support::failpoint_hits("registry.fsync"), 2u);
  registry.promote(version);
  EXPECT_EQ(registry.active_version(), 1);
  EXPECT_NO_THROW(registry.load_active());
}

TEST(Failpoint, PersistentRegistryIoErrorsSurfaceAfterTheRetryBudget) {
  if (!support::failpoints_compiled())
    GTEST_SKIP() << "build with -DTCM_FAILPOINTS=ON for fault injection";
  FailpointGuard guard;

  const fs::path root = fs::path(::testing::TempDir()) / "tcm_resilience_retry_fail";
  fs::remove_all(root);
  registry::ModelRegistry registry(root.string());
  Rng rng(7);
  model::CostModel m(model::ModelConfig::fast(), rng);
  registry::ModelManifest manifest;
  manifest.config = model::ModelConfig::fast();

  ASSERT_TRUE(support::failpoint_arm("registry.fsync", "error"));  // every time
  EXPECT_THROW(registry.register_version(m, manifest), std::runtime_error);
  support::failpoint_disarm_all();
  // The failed registration left no half-published version behind.
  EXPECT_TRUE(registry.list().empty());
  EXPECT_EQ(registry.register_version(m, manifest), 1);
}

TEST(FailpointDeathTest, CrashMidPromoteLeavesARecoverableRegistry) {
  if (!support::failpoints_compiled())
    GTEST_SKIP() << "build with -DTCM_FAILPOINTS=ON for fault injection";
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";

  const fs::path root = fs::path(::testing::TempDir()) / "tcm_resilience_crash";
  fs::remove_all(root);
  Rng rng(7);
  model::CostModel m(model::ModelConfig::fast(), rng);
  registry::ModelManifest manifest;
  manifest.config = model::ModelConfig::fast();
  int v1 = 0, v2 = 0;
  {
    registry::ModelRegistry registry(root.string());
    v1 = registry.register_version(m, manifest);
    registry.promote(v1);
    v2 = registry.register_version(m, manifest);
  }

  // The child process arms the crash and dies inside the ACTIVE update —
  // a simulated power cut at the most sensitive registry write.
  EXPECT_DEATH(
      {
        support::failpoint_arm("registry.promote", "crash");
        registry::ModelRegistry victim(root.string());
        victim.promote(v2);
      },
      "injected crash");

  // Recovery: reopening sweeps any stale temporaries; the ACTIVE pointer is
  // intact (old or new, never torn) and still loads.
  registry::ModelRegistry recovered(root.string());
  const int active = recovered.active_version();
  EXPECT_TRUE(active == v1 || active == v2) << "active=" << active;
  EXPECT_NO_THROW(recovered.load_active());
  recovered.promote(v2);  // and the interrupted promote can simply be re-run
  EXPECT_EQ(recovered.active_version(), v2);
}

}  // namespace
}  // namespace tcm
