// Tests for the HTTP serving surface (src/api/http_server.* + rest.*):
// transport hardening (malformed / oversized / truncated requests must come
// back as clean 4xx Status bodies, never a crash or a hung worker), the v1
// route table, and the acceptance bar — concurrent HTTP clients receive
// predictions bitwise-identical to the in-process futures API while models
// hot-swap under live traffic.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/http_client.h"
#include "api/http_server.h"
#include "api/rest.h"
#include "api/service.h"
#include "api/wire.h"
#include "datagen/generator.h"
#include "model/cost_model.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "registry/model_registry.h"

namespace fs = std::filesystem;

namespace tcm::api {
namespace {

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("tcm_http_" + name);
  fs::remove_all(dir);
  return dir.string();
}

std::string make_registry(const std::string& name, int versions = 1) {
  const std::string root = scratch_dir(name);
  registry::ModelRegistry reg(root);
  for (int v = 0; v < versions; ++v) {
    Rng rng(300 + static_cast<std::uint64_t>(v));
    model::CostModel m(model::ModelConfig::fast(), rng);
    registry::ModelManifest manifest;
    manifest.config = model::ModelConfig::fast();
    manifest.provenance = "http_test v" + std::to_string(v + 1);
    reg.register_version(m, manifest);
  }
  reg.promote(1);
  return root;
}

// One façade + bound server on an ephemeral loopback port.
struct Stack {
  std::unique_ptr<Service> service;
  std::unique_ptr<HttpServer> server;

  int port() const { return server->port(); }
};

Stack make_stack(const std::string& name, int versions = 1,
                 HttpServerOptions http_options = {}) {
  ServiceOptions opt;
  opt.registry_root = make_registry(name, versions);
  opt.serve.num_threads = 2;
  opt.serve.features = model::FeatureConfig::fast();
  opt.serve.max_queue_latency = std::chrono::microseconds(200);
  Result<std::unique_ptr<Service>> svc = Service::open(std::move(opt));
  EXPECT_TRUE(svc.ok()) << svc.status().to_string();

  http_options.host = "127.0.0.1";
  http_options.port = 0;  // ephemeral
  Stack stack;
  stack.service = svc.take();
  http_options.metrics = stack.service->metrics();    // as tcm_serve wires it
  http_options.watchdog = stack.service->watchdog();  // one watchdog for /healthz
  stack.server = std::make_unique<HttpServer>(http_options);
  bind_routes(*stack.server, *stack.service);
  const Status started = stack.server->start();
  EXPECT_TRUE(started.ok()) << started.to_string();
  return stack;
}

Json predict_body(const ir::Program& program, const transforms::Schedule& schedule) {
  Json body = Json::object();
  body.set("program", to_json(program));
  body.set("schedule", to_json(schedule));
  return body;
}

// Error code out of a Status body (empty string when the shape is off).
std::string error_code(const std::string& body) {
  Result<Json> parsed = Json::parse(body);
  if (!parsed.ok()) return "";
  const Json* err = parsed->find("error");
  if (err == nullptr || err->find("code") == nullptr) return "";
  return err->find("code")->as_string();
}

// ---------------------------------------------------------------------------
// Routes
// ---------------------------------------------------------------------------

TEST(Http, HealthzAndStats) {
  Stack stack = make_stack("health");
  HttpClient client("127.0.0.1", stack.port());

  Result<HttpResponse> health = client.get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().to_string();
  EXPECT_EQ(health->status, 200);
  Result<Json> parsed = Json::parse(health->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->find("status")->as_string(), "serving");
  EXPECT_EQ(parsed->find("active_version")->as_int(), 1);

  Result<HttpResponse> stats = client.get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, 200);
  Result<Json> sparsed = Json::parse(stats->body);
  ASSERT_TRUE(sparsed.ok());
  EXPECT_EQ(sparsed->find("active_version")->as_int(), 1);
  EXPECT_NE(sparsed->find("serve"), nullptr);

  stack.server->stop();
}

TEST(Http, PredictSingleAndBatch) {
  Stack stack = make_stack("predict");
  HttpClient client("127.0.0.1", stack.port());
  datagen::RandomProgramGenerator gen(datagen::GeneratorOptions::tiny());
  datagen::RandomScheduleGenerator sgen;
  Rng rng(21);
  const ir::Program program = gen.generate(1);

  // Single.
  Result<HttpResponse> single =
      client.post("/v1/predict", predict_body(program, sgen.generate(program, rng)).dump());
  ASSERT_TRUE(single.ok()) << single.status().to_string();
  ASSERT_EQ(single->status, 200) << single->body;
  Result<Json> sj = Json::parse(single->body);
  ASSERT_TRUE(sj.ok());
  ASSERT_EQ(sj->find("predictions")->as_array().size(), 1u);
  EXPECT_GT(sj->find("predictions")->as_array()[0].find("speedup")->as_double(), 0.0);
  EXPECT_EQ(sj->find("predictions")->as_array()[0].find("model_version")->as_int(), 1);

  // Batch.
  Json body = Json::object();
  body.set("program", to_json(program));
  Json schedules = Json::array();
  for (int i = 0; i < 5; ++i) schedules.push_back(to_json(sgen.generate(program, rng)));
  body.set("schedules", std::move(schedules));
  Result<HttpResponse> batch = client.post("/v1/predict", body.dump());
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->status, 200) << batch->body;
  Result<Json> bj = Json::parse(batch->body);
  ASSERT_TRUE(bj.ok());
  EXPECT_EQ(bj->find("predictions")->as_array().size(), 5u);

  stack.server->stop();
}

TEST(Http, ModelsPromoteRollback) {
  Stack stack = make_stack("lifecycle", /*versions=*/2);
  HttpClient client("127.0.0.1", stack.port());

  Result<HttpResponse> models = client.get("/v1/models");
  ASSERT_TRUE(models.ok());
  ASSERT_EQ(models->status, 200);
  Result<Json> mj = Json::parse(models->body);
  ASSERT_TRUE(mj.ok());
  EXPECT_EQ(mj->find("active")->as_int(), 1);
  EXPECT_EQ(mj->find("models")->as_array().size(), 2u);

  Result<HttpResponse> promoted = client.post("/v1/models/promote", R"({"version":2})");
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(promoted->status, 200) << promoted->body;
  EXPECT_EQ(stack.service->active_version(), 2);

  Result<HttpResponse> missing = client.post("/v1/models/promote", R"({"version":42})");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  EXPECT_EQ(error_code(missing->body), "NOT_FOUND");

  Result<HttpResponse> rolled = client.post("/v1/models/rollback", "{}");
  ASSERT_TRUE(rolled.ok());
  EXPECT_EQ(rolled->status, 200) << rolled->body;
  Result<Json> rj = Json::parse(rolled->body);
  ASSERT_TRUE(rj.ok());
  EXPECT_EQ(rj->find("active")->as_int(), 1);
  EXPECT_EQ(stack.service->active_version(), 1);

  stack.server->stop();
}

TEST(Http, MetricsExposition) {
  Stack stack = make_stack("metrics");
  HttpClient client("127.0.0.1", stack.port());
  datagen::RandomProgramGenerator gen(datagen::GeneratorOptions::tiny());
  datagen::RandomScheduleGenerator sgen;
  Rng rng(31);
  const ir::Program program = gen.generate(0);
  ASSERT_TRUE(client.post("/v1/predict",
                          predict_body(program, sgen.generate(program, rng)).dump())
                  .ok());

  Result<HttpResponse> metrics = client.get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->content_type.find("text/plain"), std::string::npos);
  EXPECT_NE(metrics->body.find("# TYPE tcm_serve_requests_total counter"), std::string::npos);
  EXPECT_NE(metrics->body.find("tcm_serve_requests_total 1\n"), std::string::npos);
  EXPECT_NE(metrics->body.find("tcm_model_active_version 1\n"), std::string::npos);
  EXPECT_NE(metrics->body.find("tcm_drift_signal{signal=\"psi\"}"), std::string::npos);
  EXPECT_NE(metrics->body.find("tcm_http_requests_total"), std::string::npos);
  // Histogram families from the shared registry: serving latency (e2e and
  // per stage), batch size, and the HTTP handler-time series.
  EXPECT_NE(metrics->body.find("# TYPE tcm_serve_latency_seconds histogram"), std::string::npos);
  EXPECT_NE(metrics->body.find("tcm_serve_latency_seconds_count 1\n"), std::string::npos);
  EXPECT_NE(metrics->body.find("tcm_stage_duration_seconds_bucket{stage=\"queue_wait\","),
            std::string::npos);
  EXPECT_NE(metrics->body.find("tcm_serve_batch_size_count 1\n"), std::string::npos);
  EXPECT_NE(metrics->body.find("# TYPE tcm_http_request_duration_seconds histogram"),
            std::string::npos);
  // The per-route counter carries route/method/status-class labels now.
  EXPECT_NE(metrics->body.find(
                "tcm_http_requests_total{route=\"/v1/predict\",method=\"POST\",code=\"2xx\"} 1"),
            std::string::npos);

  stack.server->stop();
}

TEST(Http, MetricsContentTypeAndOneTypeLinePerFamily) {
  Stack stack = make_stack("ctype");
  HttpClient client("127.0.0.1", stack.port());
  datagen::RandomProgramGenerator gen(datagen::GeneratorOptions::tiny());
  datagen::RandomScheduleGenerator sgen;
  Rng rng(61);
  const ir::Program program = gen.generate(1);
  ASSERT_TRUE(client.post("/v1/predict",
                          predict_body(program, sgen.generate(program, rng)).dump())
                  .ok());

  Result<HttpResponse> metrics = client.get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  // The exact Prometheus text exposition content type.
  EXPECT_EQ(metrics->content_type.rfind("text/plain; version=0.0.4", 0), 0u)
      << metrics->content_type;

  // Exactly one # TYPE line per family across the whole exposition.
  std::set<std::string> typed;
  std::istringstream lines(metrics->body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    const std::string name = line.substr(7, line.find(' ', 7) - 7);
    EXPECT_TRUE(typed.insert(name).second) << "duplicate TYPE for " << name;
  }
  // Families registered by different layers (serving, autopilot, process,
  // HTTP) all show up.
  for (const char* family :
       {"tcm_serve_requests_total", "tcm_drift_signal", "tcm_autopilot_polls_total",
        "tcm_serve_queue_depth", "tcm_process_resident_memory_bytes", "tcm_build_info",
        "tcm_http_requests_total"})
    EXPECT_TRUE(typed.count(family)) << "missing TYPE for " << family;

  stack.server->stop();
}

TEST(Http, HealthzFollowsWatchdogDegradedThenUnhealthy) {
  Stack stack = make_stack("watchdog");
  HttpClient client("127.0.0.1", stack.port());
  ASSERT_EQ(client.get("/healthz")->status, 200);

  // Wedge a fake non-critical background thread: register a heartbeat on the
  // service's watchdog, mark it busy, and let it age past its threshold.
  obs::Watchdog& dog = *stack.service->watchdog();
  const obs::Watchdog::Handle poller =
      dog.register_thread("fake_poller", std::chrono::milliseconds(10), /*critical=*/false);
  dog.set_busy(poller, "poll");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Result<HttpResponse> degraded = client.get("/healthz");
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded->status, 200);  // non-critical: keep routing traffic
  Result<Json> dj = Json::parse(degraded->body);
  ASSERT_TRUE(dj.ok());
  EXPECT_EQ(dj->find("status")->as_string(), "degraded");
  ASSERT_NE(dj->find("reason"), nullptr);
  EXPECT_NE(dj->find("reason")->as_string().find("fake_poller"), std::string::npos);

  // Now a wedged *critical* worker: 503 with the named stall.
  const obs::Watchdog::Handle worker =
      dog.register_thread("fake_batch_worker", std::chrono::milliseconds(10), /*critical=*/true);
  dog.set_busy(worker, "run_batch");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Result<HttpResponse> unhealthy = client.get("/healthz");
  ASSERT_TRUE(unhealthy.ok());
  EXPECT_EQ(unhealthy->status, 503);
  Result<Json> uj = Json::parse(unhealthy->body);
  ASSERT_TRUE(uj.ok());
  EXPECT_EQ(uj->find("status")->as_string(), "unhealthy");
  EXPECT_NE(uj->find("reason")->as_string().find("fake_batch_worker"), std::string::npos);
  EXPECT_NE(uj->find("reason")->as_string().find("run_batch"), std::string::npos);
  const Json* stalled = uj->find("stalled_threads");
  ASSERT_NE(stalled, nullptr);
  bool named = false;
  for (const Json& t : stalled->as_array())
    if (t.as_string() == "fake_batch_worker") named = true;
  EXPECT_TRUE(named);

  // Recovery: the wedged threads go away, readiness returns.
  dog.unregister(poller);
  dog.unregister(worker);
  Result<HttpResponse> recovered = client.get("/healthz");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->status, 200);
  EXPECT_EQ(Json::parse(recovered->body)->find("status")->as_string(), "serving");

  stack.server->stop();
}

TEST(Http, DebugStateAndEventsAreValidJson) {
  obs::EventLog::instance().set_capacity(512);  // reset the singleton ring
  Stack stack = make_stack("debug", /*versions=*/2);
  HttpClient client("127.0.0.1", stack.port());
  datagen::RandomProgramGenerator gen(datagen::GeneratorOptions::tiny());
  datagen::RandomScheduleGenerator sgen;
  Rng rng(71);
  const ir::Program program = gen.generate(3);
  ASSERT_TRUE(client.post("/v1/predict",
                          predict_body(program, sgen.generate(program, rng)).dump())
                  .ok());
  ASSERT_EQ(client.post("/v1/models/promote", R"({"version":2})")->status, 200);

  Result<HttpResponse> state = client.get("/debug/state");
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->status, 200);
  Result<Json> sj = Json::parse(state->body);
  ASSERT_TRUE(sj.ok()) << state->body.substr(0, 300);
  const Json* registry = sj->find("registry");
  ASSERT_NE(registry, nullptr);
  EXPECT_EQ(registry->find("active")->as_int(), 2);
  EXPECT_EQ(registry->find("versions")->as_array().size(), 2u);
  ASSERT_NE(registry->find("active_lineage"), nullptr);
  EXPECT_EQ(registry->find("active_lineage")->as_array()[0].as_int(), 2);
  const Json* serving = sj->find("serving");
  ASSERT_NE(serving, nullptr);
  EXPECT_GE(serving->find("requests")->as_int(), 1);
  ASSERT_NE(serving->find("cache"), nullptr);
  EXPECT_EQ(sj->find("autopilot")->find("enabled")->as_bool(), false);
  const Json* watchdog = sj->find("watchdog");
  ASSERT_NE(watchdog, nullptr);
  EXPECT_EQ(watchdog->find("health")->as_string(), "healthy");
  // Batch workers and the HTTP acceptor/workers all heartbeat here.
  EXPECT_GE(watchdog->find("threads")->as_array().size(), 3u);
  ASSERT_NE(sj->find("events"), nullptr);
  EXPECT_GE(sj->find("events")->find("emitted")->as_int(), 1);

  // The flight recorder saw the promote (and the hot swap it caused).
  Result<HttpResponse> events = client.get("/debug/events");
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->status, 200);
  Result<Json> ej = Json::parse(events->body);
  ASSERT_TRUE(ej.ok()) << events->body.substr(0, 300);
  bool saw_promote = false, saw_swap = false;
  for (const Json& e : ej->find("events")->as_array()) {
    const std::string type = e.find("type")->as_string();
    if (type == "promote" &&
        e.find("detail")->as_string().find("to=v2") != std::string::npos)
      saw_promote = true;
    if (type == "hot_swap") saw_swap = true;
  }
  EXPECT_TRUE(saw_promote);
  EXPECT_TRUE(saw_swap);

  stack.server->stop();
}

TEST(Http, RequestIdEchoedAndGenerated) {
  Stack stack = make_stack("reqid");
  HttpClient client("127.0.0.1", stack.port());

  // A client-supplied X-Request-Id comes back verbatim.
  Result<HttpResponse> echoed =
      client.request("GET", "/healthz", "", {{"X-Request-Id", "trace-me-42"}});
  ASSERT_TRUE(echoed.ok()) << echoed.status().to_string();
  ASSERT_NE(echoed->header("X-Request-Id"), nullptr);
  EXPECT_EQ(*echoed->header("X-Request-Id"), "trace-me-42");

  // Without one the server generates an id.
  Result<HttpResponse> generated = client.get("/healthz");
  ASSERT_TRUE(generated.ok());
  ASSERT_NE(generated->header("X-Request-Id"), nullptr);
  EXPECT_EQ(generated->header("X-Request-Id")->rfind("req-", 0), 0u);

  stack.server->stop();
}

TEST(Http, RouteCountersSplitByStatusClass) {
  Stack stack = make_stack("route_counters");
  HttpClient client("127.0.0.1", stack.port());

  ASSERT_TRUE(client.get("/healthz").ok());
  ASSERT_TRUE(client.get("/healthz").ok());
  ASSERT_TRUE(client.get("/nope").ok());                      // 404: unmatched slot
  ASSERT_TRUE(client.post("/v1/predict", "{not json").ok());  // 400 on a real route

  Result<HttpResponse> metrics = client.get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find(
                "tcm_http_requests_total{route=\"/healthz\",method=\"GET\",code=\"2xx\"} 2"),
            std::string::npos);
  EXPECT_NE(metrics->body.find(
                "tcm_http_requests_total{route=\"other\",method=\"other\",code=\"4xx\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics->body.find(
                "tcm_http_requests_total{route=\"/v1/predict\",method=\"POST\",code=\"4xx\"} 1"),
            std::string::npos);
  stack.server->stop();
}

// Golden inventory of /metrics families for the full stack (HTTP, feedback,
// search) after one predict, one search and one 404: the set of # TYPE
// names. Any family added, renamed or dropped shows up here.
TEST(Http, MetricsFamilyInventoryIsStable) {
  Stack stack = make_stack("families");
  HttpClient client("127.0.0.1", stack.port());
  datagen::RandomProgramGenerator gen(datagen::GeneratorOptions::tiny());
  datagen::RandomScheduleGenerator sgen;
  Rng rng(91);
  const ir::Program program = gen.generate(3);
  ASSERT_EQ(client.post("/v1/predict", predict_body(program, sgen.generate(program, rng)).dump())
                ->status,
            200);
  Json search = Json::object();
  search.set("program", to_json(program));
  search.set("beam_width", Json(static_cast<std::int64_t>(2)));
  Result<HttpResponse> submitted = client.post("/v1/search", search.dump());
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted->status, 202) << submitted->body;
  Result<Json> job = Json::parse(submitted->body);
  ASSERT_TRUE(job.ok());
  ASSERT_NE(job->find("job_id"), nullptr) << submitted->body;
  // The event stream ends once the job is terminal: no polling, no sleeps.
  Result<HttpResponse> events =
      client.get("/v1/search/" + job->find("job_id")->as_string() + "/events");
  ASSERT_TRUE(events.ok());
  EXPECT_NE(events->body.find("\"state\":\"DONE\""), std::string::npos) << events->body;
  ASSERT_EQ(client.get("/nope")->status, 404);

  Result<HttpResponse> metrics = client.get("/metrics");
  ASSERT_TRUE(metrics.ok());
  std::set<std::string> families;
  std::istringstream lines(metrics->body);
  std::string line;
  while (std::getline(lines, line))
    if (line.rfind("# TYPE ", 0) == 0) families.insert(line.substr(7, line.find(' ', 7) - 7));

  // tcm_uptime_seconds is deliberately absent: it duplicated
  // tcm_process_uptime_seconds.
  const std::set<std::string> expected = {
      "tcm_autopilot_cycle_failures_total",
      "tcm_autopilot_cycles_total",
      "tcm_autopilot_enabled",
      "tcm_autopilot_gc_removed_total",
      "tcm_autopilot_polls_total",
      "tcm_autopilot_triggers_total",
      "tcm_build_info",
      "tcm_degradation_level",
      "tcm_drift_drifted",
      "tcm_drift_reference_size",
      "tcm_drift_signal",
      "tcm_drift_threshold",
      "tcm_drift_window_size",
      "tcm_feedback_buffered",
      "tcm_feedback_enabled",
      "tcm_feedback_offered_total",
      "tcm_feedback_sampled_total",
      "tcm_http_connections_total",
      "tcm_http_request_duration_seconds",
      "tcm_http_requests_total",
      "tcm_model_active_version",
      "tcm_model_previous_version",
      "tcm_model_swaps_total",
      "tcm_process_open_fds",
      "tcm_process_resident_memory_bytes",
      "tcm_process_threads",
      "tcm_process_uptime_seconds",
      "tcm_process_virtual_memory_bytes",
      "tcm_schedule_memory_entries",
      "tcm_schedule_memory_hits_total",
      "tcm_schedule_memory_misses_total",
      "tcm_search_job_duration_seconds",
      "tcm_search_jobs_queued",
      "tcm_search_jobs_running",
      "tcm_search_jobs_total",
      "tcm_serve_arena_heap_allocs_total",
      "tcm_serve_batch_occupancy",
      "tcm_serve_batch_size",
      "tcm_serve_batches_total",
      "tcm_serve_cache_hit_ratio",
      "tcm_serve_cache_hits_total",
      "tcm_serve_cache_misses_total",
      "tcm_serve_failed_requests_total",
      "tcm_serve_latency_seconds",
      "tcm_serve_queue_depth",
      "tcm_serve_requests_total",
      "tcm_shadow_failures_total",
      "tcm_shadow_mape",
      "tcm_shadow_requests_total",
      "tcm_shadow_spearman",
      "tcm_shadow_version",
      "tcm_shed_total",
      "tcm_stage_duration_seconds",
  };
  for (const std::string& f : expected) EXPECT_TRUE(families.count(f)) << "missing family " << f;
  for (const std::string& f : families) EXPECT_TRUE(expected.count(f)) << "unexpected family " << f;
  stack.server->stop();
}

TEST(Http, DebugTracesExportsSampledRequest) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_sample_rate(1.0);
  tracer.clear();

  Stack stack = make_stack("traces");
  HttpClient client("127.0.0.1", stack.port());
  datagen::RandomProgramGenerator gen(datagen::GeneratorOptions::tiny());
  datagen::RandomScheduleGenerator sgen;
  Rng rng(77);
  const ir::Program program = gen.generate(2);
  Result<HttpResponse> predict =
      client.request("POST", "/v1/predict",
                     predict_body(program, sgen.generate(program, rng)).dump(),
                     {{"X-Request-Id", "traced-predict-1"}});
  ASSERT_TRUE(predict.ok());
  ASSERT_EQ(predict->status, 200) << predict->body;

  Result<HttpResponse> traces = client.get("/debug/traces");
  ASSERT_TRUE(traces.ok());
  EXPECT_EQ(traces->status, 200);
  Result<Json> doc = Json::parse(traces->body);
  ASSERT_TRUE(doc.ok()) << traces->body.substr(0, 200);
  const Json* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_http = false, saw_labeled = false;
  for (const Json& ev : events->as_array()) {
    const std::string name = ev.find("name")->as_string();
    if (name == "http.request") saw_http = true;
    const Json* args = ev.find("args");
    if (args != nullptr && args->find("request_id") != nullptr &&
        args->find("request_id")->as_string() == "traced-predict-1")
      saw_labeled = true;
  }
  EXPECT_TRUE(saw_http);
  EXPECT_TRUE(saw_labeled);

  stack.server->stop();
  tracer.set_sample_rate(0.0);
  tracer.clear();
}

// ---------------------------------------------------------------------------
// Hardening: malformed, oversized, truncated, unknown
// ---------------------------------------------------------------------------

TEST(Http, UnknownRouteAndMethod) {
  Stack stack = make_stack("routes");
  HttpClient client("127.0.0.1", stack.port());

  Result<HttpResponse> missing = client.get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  EXPECT_EQ(error_code(missing->body), "NOT_FOUND");

  Result<HttpResponse> wrong_method = client.get("/v1/predict");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);

  stack.server->stop();
}

TEST(Http, MalformedJsonIsCleanBadRequest) {
  Stack stack = make_stack("badjson");
  HttpClient client("127.0.0.1", stack.port());

  for (const std::string body : {std::string("{not json"), std::string("[1,2,"),
                                 std::string("\xff\xfe\x00garbage", 11), std::string("null")}) {
    Result<HttpResponse> response = client.post("/v1/predict", body);
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    EXPECT_EQ(response->status, 400) << body;
    EXPECT_EQ(error_code(response->body), "INVALID_ARGUMENT");
  }
  // Valid JSON, wrong shape.
  Result<HttpResponse> response = client.post("/v1/predict", R"({"program":17})");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 400);
  // Empty body.
  response = client.post("/v1/predict", "");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 400);
  // The server survived all of it.
  EXPECT_EQ(client.get("/healthz")->status, 200);

  stack.server->stop();
}

TEST(Http, MalformedRequestLineIsBadRequest) {
  Stack stack = make_stack("badline");
  HttpClient client("127.0.0.1", stack.port());
  Result<HttpResponse> response = client.raw_exchange("GARBAGE\r\n\r\n");
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response->status, 400);
  EXPECT_EQ(error_code(response->body), "INVALID_ARGUMENT");
}

TEST(Http, OversizedBodyIsRejectedWithoutReadingIt) {
  HttpServerOptions hopt;
  hopt.max_body_bytes = 2048;
  Stack stack = make_stack("oversize", 1, hopt);
  HttpClient client("127.0.0.1", stack.port());

  // Declared length over the cap: refused from the headers alone.
  Result<HttpResponse> response = client.raw_exchange(
      "POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 1000000\r\n\r\n");
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response->status, 413);
  EXPECT_EQ(error_code(response->body), "RESOURCE_EXHAUSTED");
  EXPECT_EQ(client.get("/healthz")->status, 200);
  stack.server->stop();
}

TEST(Http, OversizedHeadersAreRejected) {
  HttpServerOptions hopt;
  hopt.max_header_bytes = 1024;
  Stack stack = make_stack("bigheader", 1, hopt);
  HttpClient client("127.0.0.1", stack.port());
  std::string request = "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Filler: ";
  request.append(4096, 'a');
  request += "\r\n\r\n";
  Result<HttpResponse> response = client.raw_exchange(request);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response->status, 431);
  stack.server->stop();
}

TEST(Http, TruncatedBodyIsCleanBadRequest) {
  Stack stack = make_stack("truncated");
  HttpClient client("127.0.0.1", stack.port());
  // Declares 100 bytes, sends 10, then half-closes: the worker must answer
  // 400 instead of blocking on the missing 90 bytes.
  Result<HttpResponse> response = client.raw_exchange(
      "POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n0123456789",
      /*half_close=*/true);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response->status, 400);
  EXPECT_EQ(error_code(response->body), "INVALID_ARGUMENT");
  EXPECT_EQ(client.get("/healthz")->status, 200);
  stack.server->stop();
}

TEST(Http, ExpectContinueIsHonored) {
  Stack stack = make_stack("continue");
  HttpClient client("127.0.0.1", stack.port());
  datagen::RandomProgramGenerator gen(datagen::GeneratorOptions::tiny());
  datagen::RandomScheduleGenerator sgen;
  Rng rng(41);
  const ir::Program program = gen.generate(2);
  Result<HttpResponse> response =
      client.request("POST", "/v1/predict",
                     predict_body(program, sgen.generate(program, rng)).dump(),
                     {{"Expect", "100-continue"}});
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response->status, 200) << response->body;
  stack.server->stop();
}

TEST(Http, KeepAliveReusesOneConnection) {
  Stack stack = make_stack("keepalive");
  HttpClient client("127.0.0.1", stack.port());
  for (int i = 0; i < 5; ++i) ASSERT_EQ(client.get("/healthz")->status, 200);
  EXPECT_EQ(stack.server->connections_accepted(), 1u);
  EXPECT_EQ(stack.server->requests_handled(), 5u);
  stack.server->stop();
}

// ---------------------------------------------------------------------------
// The acceptance bar: >= 8 concurrent HTTP clients, predictions bitwise-
// identical to the in-process futures API, hot-swap via /v1/models/promote
// under live traffic.
// ---------------------------------------------------------------------------

TEST(Http, ConcurrentClientsBitwiseParityWithHotSwapUnderTraffic) {
  Stack stack = make_stack("hammer", /*versions=*/2);

  // Workload: a handful of (program, schedule) pairs reused by all clients.
  datagen::RandomProgramGenerator gen(datagen::GeneratorOptions::tiny());
  datagen::RandomScheduleGenerator sgen;
  Rng rng(51);
  std::vector<ir::Program> programs;
  std::vector<transforms::Schedule> schedules;
  std::vector<std::string> bodies;
  for (int i = 0; i < 6; ++i) {
    programs.push_back(gen.generate(static_cast<std::uint64_t>(i % 3)));
    schedules.push_back(sgen.generate(programs.back(), rng));
    bodies.push_back(predict_body(programs.back(), schedules.back()).dump());
  }

  // Expected speedups per version via the in-process futures API (the
  // façade's predict is proven bitwise-equal to raw submit() in api_test).
  auto expected_for_active = [&] {
    std::vector<double> out;
    for (std::size_t i = 0; i < programs.size(); ++i) {
      PredictRequest request;
      request.program = programs[i];
      request.schedules.push_back(schedules[i]);
      Result<PredictResponse> r = stack.service->predict(request);
      EXPECT_TRUE(r.ok()) << r.status().to_string();
      out.push_back(r->predictions[0].speedup);
    }
    return out;
  };
  const std::vector<double> expected_v1 = expected_for_active();
  ASSERT_TRUE(stack.service->promote(2).ok());
  const std::vector<double> expected_v2 = expected_for_active();
  Result<int> back = stack.service->rollback();
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(stack.service->active_version(), 1);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 12;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::atomic<int> done{0};
  const int port = stack.port();

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client("127.0.0.1", port);
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const std::size_t i = static_cast<std::size_t>((c + r)) % bodies.size();
        Result<HttpResponse> response = client.post("/v1/predict", bodies[i]);
        if (!response.ok() || response->status != 200) {
          ++failures;
          continue;
        }
        Result<Json> parsed = Json::parse(response->body);
        if (!parsed.ok()) {
          ++failures;
          continue;
        }
        const Json& item = parsed->find("predictions")->as_array()[0];
        const double speedup = item.find("speedup")->as_double();
        const int version = static_cast<int>(item.find("model_version")->as_int());
        const double expected = version == 1 ? expected_v1[i] : expected_v2[i];
        if (speedup != expected) ++mismatches;  // bitwise comparison
        ++done;
      }
    });
  }

  // Hot-swap through the HTTP surface mid-traffic.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  HttpClient admin("127.0.0.1", port);
  Result<HttpResponse> promoted = admin.post("/v1/models/promote", R"({"version":2})");
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(promoted->status, 200) << promoted->body;

  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(done.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(stack.service->active_version(), 2);
  EXPECT_GE(stack.service->stats().serve.model_swaps, 1u);

  stack.server->stop();
}

}  // namespace
}  // namespace tcm::api
