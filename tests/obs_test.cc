// Tests for the observability layer (src/obs/*): histogram bucket math and
// Prometheus rendering, trace sampling/ring semantics, Chrome trace_event
// export validity, span correlation across the serving stack's thread hop,
// and an exposition-format lint over the full /metrics render.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <fstream>

#include "api/json.h"
#include "api/service.h"
#include "datagen/generator.h"
#include "model/cost_model.h"
#include "model/featurize.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/process.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "registry/model_registry.h"
#include "support/log.h"

namespace fs = std::filesystem;

namespace tcm {
namespace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, BucketsCountsAndSum) {
  obs::Histogram h("t", "help", "", {1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0 (le=1)
  h.observe(1.0);    // le is inclusive-upper in Prometheus: upper_bound puts
                     // exactly-1.0 in bucket 1... assert via snapshot below
  h.observe(5.0);    // bucket 1 (le=10)
  h.observe(50.0);   // bucket 2 (le=100)
  h.observe(5000.0); // overflow (+Inf)
  const obs::Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[3], 1u);  // only the 5000 lands past the last bound
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 5.0 + 50.0 + 5000.0);
  // Negative observations clamp into the first bucket, not the sum.
  h.observe(-3.0);
  EXPECT_EQ(h.snapshot().counts[0], s.counts[0] + 1);
  EXPECT_DOUBLE_EQ(h.snapshot().sum, s.sum);
}

TEST(Histogram, QuantileInterpolatesWithinBuckets) {
  obs::Histogram h("t", "help", "", {1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) h.observe(1.5);  // all in (1,2]
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  EXPECT_GT(h.quantile(0.99), 1.0);
  // Empty histogram reports 0.
  obs::Histogram empty("e", "help", "", {1.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.99), 0.0);
}

TEST(Histogram, ExponentialBucketsAreLogSpaced) {
  const std::vector<double> b = obs::exponential_buckets(1e-6, 2.0, 5);
  ASSERT_EQ(b.size(), 5u);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_DOUBLE_EQ(b[i], b[i - 1] * 2.0);
  EXPECT_THROW(obs::exponential_buckets(0.0, 2.0, 3), std::invalid_argument);
  EXPECT_THROW(obs::exponential_buckets(1.0, 1.0, 3), std::invalid_argument);
}

TEST(Histogram, ConcurrentObserveLosesNothing) {
  obs::Histogram h("t", "help", "", obs::exponential_buckets(1e-6, 2.0, 20));
  constexpr int kThreads = 8, kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.observe(1e-4);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.snapshot().count, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, RendersFamiliesOnceAndGetOrCreates) {
  obs::MetricsRegistry reg;
  obs::Histogram& a = reg.histogram("fam", "a family", "stage=\"x\"", {1.0});
  obs::Histogram& a2 = reg.histogram("fam", "a family", "stage=\"x\"", {1.0});
  EXPECT_EQ(&a, &a2);  // same (name, labels) -> same histogram
  reg.histogram("fam", "a family", "stage=\"y\"", {1.0});
  a.observe(0.5);
  const std::string text = reg.render_prometheus();
  // One HELP/TYPE preamble for the two-member family.
  EXPECT_EQ(text.find("# TYPE fam histogram"), text.rfind("# TYPE fam histogram"));
  EXPECT_NE(text.find("fam_bucket{stage=\"x\",le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("fam_bucket{stage=\"y\",le=\"+Inf\"} 0"), std::string::npos);
  EXPECT_NE(text.find("fam_count{stage=\"x\"} 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Counters, gauges, and the unified render
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CounterAndGaugeGetOrCreateAndRender) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("hits_total", "hits", "route=\"/a\"");
  EXPECT_EQ(&c, &reg.counter("hits_total", "hits", "route=\"/a\""));
  obs::Counter& c2 = reg.counter("hits_total", "hits", "route=\"/b\"");
  EXPECT_NE(&c, &c2);
  c.inc();
  c.inc(41);
  c2.inc();
  obs::Gauge& g = reg.gauge("depth", "queue depth");
  g.set(7.5);
  g.add(-0.5);
  reg.gauge_callback("uptime", "seconds", "", [] { return 3.0; });

  const std::string text = reg.render_prometheus();
  // One preamble for the two-member counter family.
  EXPECT_EQ(text.find("# TYPE hits_total counter"), text.rfind("# TYPE hits_total counter"));
  EXPECT_NE(text.find("hits_total{route=\"/a\"} 42"), std::string::npos);
  EXPECT_NE(text.find("hits_total{route=\"/b\"} 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(text.find("depth 7"), std::string::npos);
  EXPECT_NE(text.find("uptime 3"), std::string::npos);
}

TEST(MetricsRegistry, CrossKindFamilyRegistrationThrows) {
  obs::MetricsRegistry reg;
  reg.counter("fam_total", "a counter");
  EXPECT_THROW(reg.gauge("fam_total", "now a gauge?"), std::logic_error);
  EXPECT_THROW(reg.histogram("fam_total", "now a histogram?", "", {1.0}), std::logic_error);
  // A plain gauge and a callback gauge may share a family (both render as
  // the one gauge TYPE).
  reg.gauge("g", "plain", "kind=\"a\"");
  reg.gauge_callback("g", "plain", "kind=\"b\"", [] { return 1.0; });
  const std::string text = reg.render_prometheus();
  EXPECT_EQ(text.find("# TYPE g gauge"), text.rfind("# TYPE g gauge"));
}

TEST(MetricsRegistry, ConcurrentCounterIncLosesNothing) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("n_total", "n");
  constexpr int kThreads = 8, kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, DeclaredCounterFamilyRendersBeforeFirstSample) {
  obs::MetricsRegistry reg;
  reg.counter_family("routes_total", "declared up front");
  std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("# TYPE routes_total counter\n"), std::string::npos);
  EXPECT_EQ(text.find("\nroutes_total"), std::string::npos);  // no sample line yet
  // The first labelled counter joins the declared family: one preamble.
  reg.counter("routes_total", "declared up front", "route=\"/a\"").inc();
  reg.counter_family("routes_total", "declared again");  // no-op
  text = reg.render_prometheus();
  EXPECT_EQ(text.find("# TYPE routes_total"), text.rfind("# TYPE routes_total"));
  EXPECT_NE(text.find("routes_total{route=\"/a\"} 1\n"), std::string::npos);
  // A declared counter family cannot be reused as another kind.
  EXPECT_THROW(reg.gauge("routes_total", "wrong kind"), std::logic_error);
}

// ---------------------------------------------------------------------------
// EventLog flight recorder
// ---------------------------------------------------------------------------

// The EventLog is a process-global singleton; reset it around each test.
struct EventLogGuard {
  EventLogGuard() { obs::EventLog::instance().set_capacity(512); }
  ~EventLogGuard() { obs::EventLog::instance().set_capacity(512); }
};

TEST(EventLog, RingWrapsKeepingNewestInOrder) {
  EventLogGuard guard;
  obs::EventLog& log = obs::EventLog::instance();
  log.set_capacity(8);
  for (int i = 1; i <= 20; ++i)
    log.emit("tick", "info", "n=" + std::to_string(i), static_cast<std::uint64_t>(i));
  EXPECT_EQ(log.total_emitted(), 20u);
  const std::vector<obs::Event> events = log.events();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first, newest 8 survive, seq strictly ascending.
  EXPECT_EQ(events.front().detail, "n=13");
  EXPECT_EQ(events.back().detail, "n=20");
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  EXPECT_EQ(events.back().trace_id, 20u);
  EXPECT_STREQ(events.back().type, "tick");
}

TEST(EventLog, ConcurrentEmittersProduceDenseSequence) {
  EventLogGuard guard;
  obs::EventLog& log = obs::EventLog::instance();
  log.set_capacity(4096);
  constexpr int kThreads = 8, kPerThread = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i)
        log.emit("burst", "info", "t=" + std::to_string(t));
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(log.total_emitted(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const std::vector<obs::Event> events = log.events();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1) << "gap at " << i;
}

TEST(EventLog, RenderJsonParsesAndCarriesTheSequence) {
  EventLogGuard guard;
  obs::EventLog& log = obs::EventLog::instance();
  log.set_capacity(64);
  // The canonical autopilot lifecycle, threaded by one trace id.
  log.emit("drift_trigger", "warn", "reason=\"psi over threshold\" psi=0.31/0.25", 99);
  log.emit("cycle_start", "info", "incumbent=v3", 99);
  log.emit("cycle_finish", "info", "candidate=v4 promoted=1", 99);
  log.emit("promote", "info", "from=v3 to=v4 by=cycle", 99);

  const std::string json = log.render_json();
  api::Result<api::Json> doc = api::Json::parse(json);
  ASSERT_TRUE(doc.ok()) << json;
  EXPECT_EQ(doc->find("emitted")->as_int(), 4);
  EXPECT_EQ(doc->find("dropped")->as_int(), 0);
  const api::Json* events = doc->find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 4u);
  const std::vector<std::string> expected = {"drift_trigger", "cycle_start", "cycle_finish",
                                             "promote"};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const api::Json& e = events->as_array()[i];
    EXPECT_EQ(e.find("type")->as_string(), expected[i]);
    EXPECT_EQ(e.find("trace_id")->as_int(), 99);
    ASSERT_NE(e.find("wall_ms"), nullptr);
  }
  // Escaping: the quoted reason string survived as JSON.
  EXPECT_EQ(events->as_array()[0].find("detail")->as_string(),
            "reason=\"psi over threshold\" psi=0.31/0.25");
}

TEST(EventLog, DumpToFdWritesParseableJson) {
  EventLogGuard guard;
  obs::EventLog& log = obs::EventLog::instance();
  log.set_capacity(16);
  log.emit("drift_trigger", "warn", "reason=\"ks \\ fired\"", 7);
  log.emit("cycle_fail", "error", std::string("boom\nnewline\tand control\x01chars"), 7);

  const fs::path path = fs::path(::testing::TempDir()) / "tcm_obs_flight.json";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  log.dump_to_fd(fd);
  ::close(fd);

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  api::Result<api::Json> doc = api::Json::parse(buf.str());
  ASSERT_TRUE(doc.ok()) << buf.str();
  EXPECT_EQ(doc->find("emitted")->as_int(), 2);
  const api::Json* events = doc->find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 2u);
  EXPECT_EQ(events->as_array()[0].find("type")->as_string(), "drift_trigger");
  EXPECT_EQ(events->as_array()[1].find("severity")->as_string(), "error");
  // Control characters were replaced, not emitted raw.
  const std::string detail = events->as_array()[1].find("detail")->as_string();
  for (char c : detail) EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << detail;
}

// ---------------------------------------------------------------------------
// Watchdog (fake clock: stall detection without sleeping)
// ---------------------------------------------------------------------------

std::atomic<std::uint64_t> g_fake_now_ns{0};
std::uint64_t fake_now() { return g_fake_now_ns.load(std::memory_order_relaxed); }

TEST(Watchdog, BusyThreadStallsIdleThreadNever) {
  g_fake_now_ns.store(0);
  obs::Watchdog dog(&fake_now);
  const obs::Watchdog::Handle worker =
      dog.register_thread("batch_worker_0", std::chrono::milliseconds(100), /*critical=*/true);
  const obs::Watchdog::Handle poller =
      dog.register_thread("autopilot_poller", std::chrono::milliseconds(100), /*critical=*/false);
  EXPECT_EQ(dog.registered_threads(), 2u);

  // Both idle: any age is fine.
  g_fake_now_ns.store(10'000'000'000ull);  // +10s
  EXPECT_EQ(dog.report().health, obs::Watchdog::Health::kHealthy);

  // Busy inside the window: healthy.
  dog.set_busy(worker, "run_batch");
  g_fake_now_ns.fetch_add(50'000'000ull);  // +50ms
  EXPECT_EQ(dog.report().health, obs::Watchdog::Health::kHealthy);

  // Busy past the window: a critical stall is unhealthy, with the reason.
  g_fake_now_ns.fetch_add(200'000'000ull);  // +200ms
  obs::Watchdog::Report report = dog.report();
  EXPECT_EQ(report.health, obs::Watchdog::Health::kUnhealthy);
  EXPECT_NE(report.reason.find("batch_worker_0"), std::string::npos);
  EXPECT_NE(report.reason.find("run_batch"), std::string::npos);
  ASSERT_EQ(report.threads.size(), 2u);
  EXPECT_TRUE(report.threads[0].stalled);
  EXPECT_FALSE(report.threads[1].stalled);  // idle never stalls

  // A beat recovers it.
  dog.beat(worker);
  EXPECT_EQ(dog.report().health, obs::Watchdog::Health::kHealthy);

  // A stalled non-critical thread only degrades.
  dog.set_idle(worker);
  dog.set_busy(poller, "poll");
  g_fake_now_ns.fetch_add(200'000'000ull);
  report = dog.report();
  EXPECT_EQ(report.health, obs::Watchdog::Health::kDegraded);
  EXPECT_NE(report.reason.find("autopilot_poller"), std::string::npos);

  // Unregistered threads leave the report entirely.
  dog.unregister(poller);
  report = dog.report();
  EXPECT_EQ(report.health, obs::Watchdog::Health::kHealthy);
  EXPECT_EQ(report.threads.size(), 1u);
  EXPECT_EQ(dog.registered_threads(), 1u);
}

TEST(Watchdog, InvalidHandleIsANoOp) {
  obs::Watchdog dog;
  obs::Watchdog::Handle none;
  EXPECT_FALSE(none.valid());
  dog.beat(none);
  dog.set_busy(none, "x");
  dog.set_idle(none);
  dog.unregister(none);
  EXPECT_EQ(dog.report().health, obs::Watchdog::Health::kHealthy);
}

// ---------------------------------------------------------------------------
// Process self-metrics
// ---------------------------------------------------------------------------

TEST(ProcessMetrics, ReadsProcAndRegistersFamilies) {
#ifdef __linux__
  const obs::ProcessStats stats = obs::read_process_stats();
  EXPECT_GT(stats.resident_bytes, 0u);
  EXPECT_GT(stats.virtual_bytes, stats.resident_bytes / 2);
  EXPECT_GT(stats.open_fds, 0u);
  EXPECT_GE(stats.threads, 1u);
  EXPECT_GE(stats.uptime_seconds, 0.0);
#endif
  obs::MetricsRegistry reg;
  obs::register_process_metrics(reg);
  const std::string text = reg.render_prometheus();
  for (const char* family :
       {"tcm_process_resident_memory_bytes", "tcm_process_open_fds", "tcm_process_threads",
        "tcm_process_uptime_seconds", "tcm_build_info"})
    EXPECT_NE(text.find(std::string("# TYPE ") + family + " gauge"), std::string::npos)
        << family;
  EXPECT_NE(text.find("tcm_build_info{"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

// The Tracer is a process-global singleton; each test leaves it disabled and
// empty so tests stay order-independent.
struct TracerGuard {
  TracerGuard() {
    obs::Tracer::instance().set_sample_rate(0.0);
    obs::Tracer::instance().clear();
  }
  ~TracerGuard() {
    obs::Tracer::instance().set_sample_rate(0.0);
    obs::Tracer::instance().clear();
  }
};

TEST(Tracer, StrideSamplingIsDeterministic) {
  TracerGuard guard;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_sample_rate(0.25);  // stride 4
  int sampled = 0;
  for (int i = 0; i < 400; ++i)
    if (tracer.sample_request() != 0) ++sampled;
  EXPECT_EQ(sampled, 100);

  tracer.set_sample_rate(0.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(tracer.sample_request(), 0u);
  EXPECT_FALSE(tracer.enabled());

  // force_request captures regardless of the stride position (but never when
  // tracing is fully off).
  EXPECT_EQ(tracer.force_request(), 0u);
  tracer.set_sample_rate(0.01);
  EXPECT_NE(tracer.force_request(), 0u);
}

TEST(Tracer, RingKeepsNewestSpans) {
  TracerGuard guard;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_sample_rate(1.0);
  tracer.set_capacity(8);
  for (std::uint64_t i = 1; i <= 20; ++i) tracer.record("span", i, i * 10, i * 10 + 5);
  const std::vector<obs::SpanRecord> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 8u);
  // Oldest first, and only the newest 8 survive the wrap.
  EXPECT_EQ(spans.front().trace_id, 13u);
  EXPECT_EQ(spans.back().trace_id, 20u);
  tracer.set_capacity(1 << 14);  // restore the default
}

TEST(Tracer, ContextNestsAndSpansSkipUnsampled) {
  TracerGuard guard;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_sample_rate(1.0);
  EXPECT_EQ(obs::current_trace_id(), 0u);
  {
    obs::TraceContext outer(42);
    EXPECT_EQ(obs::current_trace_id(), 42u);
    {
      obs::TraceContext inner(7);
      EXPECT_EQ(obs::current_trace_id(), 7u);
    }
    EXPECT_EQ(obs::current_trace_id(), 42u);
    { TCM_TRACE_SPAN("nested.work"); }
  }
  EXPECT_EQ(obs::current_trace_id(), 0u);
  { TCM_TRACE_SPAN("unsampled.work"); }  // context is 0: records nothing
  const std::vector<obs::SpanRecord> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "nested.work");
  EXPECT_EQ(spans[0].trace_id, 42u);
  EXPECT_GE(spans[0].end_ns, spans[0].start_ns);
}

TEST(Tracer, ChromeExportIsValidTraceEventJson) {
  TracerGuard guard;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_sample_rate(1.0);
  const std::uint64_t id = tracer.sample_request();
  tracer.set_label(id, "req \"quoted\"\n");  // exercises JSON escaping
  tracer.record("alpha", id, 1000, 3000);
  tracer.record("beta", id, 2000, 2500);

  const std::string json = tracer.export_chrome_json();
  api::Result<api::Json> doc = api::Json::parse(json);
  ASSERT_TRUE(doc.ok()) << json;
  EXPECT_EQ(doc->find("displayTimeUnit")->as_string(), "ms");
  const api::Json* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 2u);
  const api::Json& first = events->as_array()[0];
  EXPECT_EQ(first.find("name")->as_string(), "alpha");  // sorted by start
  EXPECT_EQ(first.find("ph")->as_string(), "X");
  EXPECT_DOUBLE_EQ(first.find("ts")->as_double(), 1.0);   // 1000ns -> 1us
  EXPECT_DOUBLE_EQ(first.find("dur")->as_double(), 2.0);  // 2000ns
  EXPECT_EQ(first.find("args")->find("request_id")->as_string(), "req \"quoted\"\n");
}

// ---------------------------------------------------------------------------
// End-to-end: a traced predict produces correlated, sanely-ordered spans
// ---------------------------------------------------------------------------

std::string make_registry(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("tcm_obs_" + name);
  fs::remove_all(dir);
  registry::ModelRegistry reg(dir.string());
  Rng rng(404);
  model::CostModel m(model::ModelConfig::fast(), rng);
  registry::ModelManifest manifest;
  manifest.config = model::ModelConfig::fast();
  manifest.provenance = "obs_test";
  reg.register_version(m, manifest);
  reg.promote(1);
  return dir.string();
}

api::Result<std::unique_ptr<api::Service>> open_service(const std::string& name) {
  api::ServiceOptions opt;
  opt.registry_root = make_registry(name);
  opt.serve.num_threads = 2;
  opt.serve.features = model::FeatureConfig::fast();
  opt.serve.max_queue_latency = std::chrono::microseconds(200);
  return api::Service::open(std::move(opt));
}

TEST(Tracing, PredictSpansCorrelateAcrossTheBatcherHop) {
  TracerGuard guard;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_sample_rate(1.0);

  api::Result<std::unique_ptr<api::Service>> svc = open_service("spans");
  ASSERT_TRUE(svc.ok()) << svc.status().to_string();

  datagen::RandomProgramGenerator gen(datagen::GeneratorOptions::tiny());
  datagen::RandomScheduleGenerator sgen;
  Rng rng(11);
  api::PredictRequest request;
  request.program = gen.generate(5);
  request.schedules.push_back(sgen.generate(request.program, rng));

  // Install a request context the way the HTTP edge does.
  const std::uint64_t trace_id = tracer.sample_request();
  ASSERT_NE(trace_id, 0u);
  {
    obs::TraceContext ctx(trace_id);
    ASSERT_TRUE((*svc)->predict(request).ok());
  }
  ASSERT_TRUE((*svc)->quiesce().ok());

  std::map<std::string, obs::SpanRecord> by_name;
  for (const obs::SpanRecord& s : tracer.spans())
    if (s.trace_id == trace_id) by_name[s.name] = s;

  // The synchronous layer and the batch worker both logged under the one id.
  for (const char* expected :
       {"api.predict", "serve.featurize", "serve.queue_wait", "serve.batch_assemble",
        "serve.infer", "serve.e2e"})
    EXPECT_TRUE(by_name.count(expected)) << "missing span " << expected;
  ASSERT_TRUE(by_name.count("api.predict"));
  ASSERT_TRUE(by_name.count("serve.infer"));
  ASSERT_TRUE(by_name.count("serve.queue_wait"));
  ASSERT_TRUE(by_name.count("serve.e2e"));

  const obs::SpanRecord& predict = by_name["api.predict"];
  const obs::SpanRecord& infer = by_name["serve.infer"];
  const obs::SpanRecord& queue = by_name["serve.queue_wait"];
  const obs::SpanRecord& e2e = by_name["serve.e2e"];
  // Nesting: the facade call envelops the whole pipeline; the queue wait
  // starts at enqueue (inside predict) and precedes inference; e2e covers
  // queue through inference.
  EXPECT_LE(predict.start_ns, queue.start_ns);
  EXPECT_LE(queue.end_ns, infer.end_ns);
  EXPECT_LE(infer.end_ns, predict.end_ns);
  EXPECT_EQ(e2e.start_ns, queue.start_ns);  // both anchored at enqueue time
  EXPECT_GE(e2e.end_ns, infer.start_ns);
}

// ---------------------------------------------------------------------------
// Exposition lint: the full /metrics render is valid Prometheus 0.0.4
// ---------------------------------------------------------------------------

bool valid_metric_line(const std::string& line) {
  // name{labels} value  |  name value — one space, parsable double value.
  const std::size_t sp = line.rfind(' ');
  if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) return false;
  const std::string name_part = line.substr(0, sp);
  const std::string value_part = line.substr(sp + 1);
  if (value_part != "+Inf" && value_part != "-Inf" && value_part != "NaN") {
    try {
      std::size_t used = 0;
      (void)std::stod(value_part, &used);
      if (used != value_part.size()) return false;
    } catch (...) {
      return false;
    }
  }
  const std::size_t brace = name_part.find('{');
  const std::string name = brace == std::string::npos ? name_part : name_part.substr(0, brace);
  if (name.empty()) return false;
  for (char c : name)
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')) return false;
  if (brace != std::string::npos && name_part.back() != '}') return false;
  return true;
}

TEST(Exposition, FullMetricsRenderPassesFormatLint) {
  TracerGuard guard;
  api::Result<std::unique_ptr<api::Service>> svc = open_service("lint");
  ASSERT_TRUE(svc.ok()) << svc.status().to_string();

  datagen::RandomProgramGenerator gen(datagen::GeneratorOptions::tiny());
  datagen::RandomScheduleGenerator sgen;
  Rng rng(23);
  api::PredictRequest request;
  request.program = gen.generate(6);
  for (int i = 0; i < 8; ++i) request.schedules.push_back(sgen.generate(request.program, rng));
  ASSERT_TRUE((*svc)->predict(request).ok());
  ASSERT_TRUE((*svc)->quiesce().ok());

  const std::string text = (*svc)->metrics()->render_prometheus();

  std::set<std::string> typed;            // names with a TYPE line
  std::map<std::string, std::string> types;
  std::map<std::string, std::vector<std::pair<double, std::uint64_t>>> buckets;  // per series
  std::map<std::string, std::uint64_t> counts;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream t(line.substr(7));
      std::string name, type;
      t >> name >> type;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram") << line;
      // One TYPE per family.
      EXPECT_TRUE(typed.insert(name).second) << "duplicate TYPE for " << name;
      types[name] = type;
      continue;
    }
    if (line[0] == '#') continue;
    EXPECT_TRUE(valid_metric_line(line)) << "invalid exposition line: " << line;
    // Collect histogram bucket series for monotonicity / consistency checks.
    // Series key = everything before the le label (trailing '{' or ','
    // trimmed), e.g. `fam_bucket{stage="x"` or plain `fam_bucket`.
    const std::size_t le_pos = line.rfind("le=\"");
    if (line.find("_bucket{") != std::string::npos && le_pos != std::string::npos) {
      std::size_t key_end = le_pos;
      if (key_end > 0 && (line[key_end - 1] == ',' || line[key_end - 1] == '{')) --key_end;
      const std::string series = line.substr(0, key_end);
      const std::size_t le_start = le_pos + 4;
      const std::size_t le_end = line.find('"', le_start);
      const std::string le = line.substr(le_start, le_end - le_start);
      const double bound =
          le == "+Inf" ? std::numeric_limits<double>::infinity() : std::stod(le);
      const std::uint64_t value = std::stoull(line.substr(line.rfind(' ') + 1));
      buckets[series].emplace_back(bound, value);
      continue;
    }
    if (line.find("_count") != std::string::npos) {
      const std::string fam_and_labels = line.substr(0, line.rfind(' '));
      counts[fam_and_labels] = std::stoull(line.substr(line.rfind(' ') + 1));
    }
  }

  // Every metric name used in a sample has a TYPE; spot-check a few.
  for (const char* name : {"tcm_serve_requests_total", "tcm_serve_latency_seconds",
                           "tcm_stage_duration_seconds", "tcm_serve_batch_size"})
    EXPECT_TRUE(typed.count(name)) << "no TYPE line for " << name;
  EXPECT_EQ(types["tcm_serve_latency_seconds"], "histogram");

  // Histogram invariants: bounds ascending, cumulative counts monotone, and
  // the +Inf bucket equals the series' _count.
  ASSERT_FALSE(buckets.empty());
  for (const auto& [series, entries] : buckets) {
    for (std::size_t i = 1; i < entries.size(); ++i) {
      EXPECT_LT(entries[i - 1].first, entries[i].first) << series;
      EXPECT_LE(entries[i - 1].second, entries[i].second)
          << series << " cumulative counts must be monotone";
    }
    ASSERT_TRUE(std::isinf(entries.back().first)) << series << " missing le=\"+Inf\"";
    // series is `name_bucket` or `name_bucket{labels` — swap _bucket for
    // _count and close the brace when non-le labels remain.
    const std::size_t b = series.find("_bucket");
    ASSERT_NE(b, std::string::npos) << series;
    const std::string labels = series.substr(b + 7);  // "" or `{stage="x"`
    std::string count_key = series.substr(0, b) + "_count" + labels;
    if (!labels.empty()) count_key += "}";
    const auto it = counts.find(count_key);
    ASSERT_NE(it, counts.end()) << "no _count for " << series << " (looked up " << count_key
                                << ")";
    EXPECT_EQ(entries.back().second, it->second) << series;
  }

  // The e2e latency histogram saw all 8 predictions.
  EXPECT_NE(text.find("tcm_serve_latency_seconds_count 8\n"), std::string::npos);

  // The registry-owned families are part of the surface from the first
  // scrape — drift signals and autopilot counters even without --autopilot,
  // queue/cache gauges, process self-metrics, build info.
  for (const char* family :
       {"tcm_drift_signal", "tcm_drift_threshold", "tcm_drift_drifted",
        "tcm_autopilot_polls_total", "tcm_autopilot_triggers_total",
        "tcm_autopilot_cycles_total", "tcm_autopilot_cycle_failures_total",
        "tcm_autopilot_gc_removed_total", "tcm_serve_queue_depth", "tcm_serve_cache_hit_ratio",
        "tcm_process_resident_memory_bytes", "tcm_process_open_fds", "tcm_build_info"})
    EXPECT_TRUE(typed.count(family)) << "no TYPE line for " << family;
  EXPECT_NE(text.find("tcm_drift_signal{signal=\"psi\"}"), std::string::npos);
  EXPECT_NE(text.find("tcm_autopilot_cycles_total{outcome=\"promoted\"}"), std::string::npos);
  // The per-batch gauges were set by the workers that served the request.
  EXPECT_NE(text.find("tcm_serve_cache_hit_ratio"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Structured logging
// ---------------------------------------------------------------------------

std::vector<std::string>& captured_lines() {
  static std::vector<std::string> lines;
  return lines;
}

void capture_sink(LogLevel, const std::string& line) { captured_lines().push_back(line); }

TEST(Log, LineCarriesTimestampLevelTidAndKvSuffix) {
  captured_lines().clear();
  set_log_sink(&capture_sink);
  const LogLevel before = log_level();
  set_log_level(LogLevel::Info);
  log_warn() << "slow request" << kv("route", "/v1/predict") << kv("ms", 512)
             << kv("note", "two words");
  set_log_sink(nullptr);
  set_log_level(before);

  ASSERT_EQ(captured_lines().size(), 1u);
  const std::string& line = captured_lines()[0];
  // [YYYY-MM-DDTHH:MM:SS.mmmZ] [WARN ] [tid N] msg k=v ...
  ASSERT_GE(line.size(), 26u);
  EXPECT_EQ(line[0], '[');
  EXPECT_EQ(line[5], '-');
  EXPECT_EQ(line[11], 'T');
  EXPECT_EQ(line[20], '.');
  EXPECT_EQ(line[24], 'Z');
  EXPECT_NE(line.find("] [WARN ] [tid "), std::string::npos);
  EXPECT_NE(line.find("slow request route=/v1/predict ms=512 note=\"two words\""),
            std::string::npos);
}

TEST(Log, ParseLogLevelAndEnvInit) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("Warn"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::Error);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_EQ(parse_log_level("loud"), std::nullopt);

  const LogLevel before = log_level();
  ::setenv("TCM_LOG_LEVEL", "error", 1);
  init_log_level_from_env();
  EXPECT_EQ(log_level(), LogLevel::Error);
  ::setenv("TCM_LOG_LEVEL", "not-a-level", 1);
  init_log_level_from_env();          // unparsable: level unchanged
  EXPECT_EQ(log_level(), LogLevel::Error);
  ::unsetenv("TCM_LOG_LEVEL");
  set_log_level(before);
}

TEST(Log, RateLimitSuppressesFloodsAndReportsOnNextPass) {
  captured_lines().clear();
  set_log_sink(&capture_sink);
  const LogLevel before = log_level();
  set_log_level(LogLevel::Info);
  // rate 0 = no refill: exactly `burst` lines pass, deterministically.
  set_log_rate_limit(/*lines_per_sec=*/0.0, /*burst=*/3.0);
  const std::uint64_t suppressed_before = log_suppressed_total();
  for (int i = 0; i < 10; ++i) log_warn() << "flood " << i;
  EXPECT_EQ(captured_lines().size(), 3u);
  EXPECT_EQ(log_suppressed_total() - suppressed_before, 7u);

  // Info/debug lines bypass the limiter entirely.
  log_info() << "not limited";
  EXPECT_EQ(captured_lines().size(), 4u);

  // Reconfiguring refills the bucket but keeps the pending count: the next
  // admitted WARN carries the suppressed=N trailer.
  set_log_rate_limit(64.0, 256.0);
  log_warn() << "after the flood";
  ASSERT_EQ(captured_lines().size(), 5u);
  EXPECT_NE(captured_lines().back().find("after the flood suppressed=7"), std::string::npos)
      << captured_lines().back();

  // burst <= 0 disables the limiter.
  set_log_rate_limit(0.0, 0.0);
  for (int i = 0; i < 5; ++i) log_error() << "unlimited " << i;
  EXPECT_EQ(captured_lines().size(), 10u);

  set_log_rate_limit(64.0, 256.0);  // restore defaults
  set_log_sink(nullptr);
  set_log_level(before);
}

TEST(Log, LevelThresholdDropsBelow) {
  captured_lines().clear();
  set_log_sink(&capture_sink);
  const LogLevel before = log_level();
  set_log_level(LogLevel::Warn);
  log_debug() << "dropped";
  log_info() << "dropped too";
  log_error() << "kept";
  set_log_sink(nullptr);
  set_log_level(before);
  ASSERT_EQ(captured_lines().size(), 1u);
  EXPECT_NE(captured_lines()[0].find("[ERROR]"), std::string::npos);
  EXPECT_NE(captured_lines()[0].find("kept"), std::string::npos);
}

}  // namespace
}  // namespace tcm
