// Per-request overhead of the HTTP+JSON surface vs the in-process futures
// API, on identical (program, schedule) traffic against one serving stack.
//
// Three closed-loop configurations, same request count each:
//   in_process  submit() future + get() (the embedded-caller fast path)
//   facade      api::Service::predict (Status boundary, no wire)
//   http        POST /v1/predict over a keep-alive loopback connection
//               (JSON encode + TCP + parse on both sides)
//
// The headline number is http_minus_in_process_us: what a caller pays per
// request for process isolation. Emitted to BENCH_http_overhead.json for
// the CI perf trajectory.
//
// Flags:
//   --requests N   requests per configuration (default 2000)
//   --json PATH    output path (default BENCH_http_overhead.json; "" disables)
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "api/http_client.h"
#include "api/rest.h"
#include "api/service.h"
#include "datagen/generator.h"
#include "model/cost_model.h"
#include "registry/model_registry.h"
#include "support/table.h"

using namespace tcm;
using Clock = std::chrono::steady_clock;

namespace {

double us_since(Clock::time_point start, int requests) {
  const auto elapsed = std::chrono::duration<double, std::micro>(Clock::now() - start);
  return elapsed.count() / requests;
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 2000;
  std::string json_path = "BENCH_http_overhead.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--requests" && i + 1 < argc) requests = std::atoi(argv[++i]);
    else if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
  }

  // --- stack: untrained fast model behind registry + facade + HTTP ---------
  // Start from an empty registry, so a rerun in the same directory never
  // meets the previous run's ACTIVE pointer or manifests.
  const std::string root = "bench_http_registry";
  std::filesystem::remove_all(root);
  {
    registry::ModelRegistry reg(root);
    Rng rng(7);
    model::CostModel m(model::ModelConfig::fast(), rng);
    registry::ModelManifest manifest;
    manifest.config = model::ModelConfig::fast();
    manifest.provenance = "bench_http_overhead";
    reg.promote(reg.register_version(m, manifest));
  }
  api::ServiceOptions sopt;
  sopt.registry_root = root;
  sopt.serve.num_threads = 1;  // single worker: measure per-request path, not parallelism
  sopt.serve.features = model::FeatureConfig::fast();
  sopt.serve.max_queue_latency = std::chrono::microseconds(50);
  sopt.enable_feedback = false;  // keep the three paths identical
  auto service = api::Service::open(std::move(sopt));
  if (!service.ok()) {
    std::cerr << "cannot open service: " << service.status().to_string() << "\n";
    return 1;
  }
  api::HttpServer server(api::HttpServerOptions{});
  api::bind_routes(server, **service);
  if (api::Status started = server.start(); !started.ok()) {
    std::cerr << "cannot start server: " << started.to_string() << "\n";
    return 1;
  }

  // Workload: a few tiny programs, one schedule each, pre-encoded bodies.
  datagen::RandomProgramGenerator gen(datagen::GeneratorOptions::tiny());
  datagen::RandomScheduleGenerator sgen;
  Rng rng(13);
  std::vector<ir::Program> programs;
  std::vector<transforms::Schedule> schedules;
  std::vector<std::string> bodies;
  for (int i = 0; i < 8; ++i) {
    programs.push_back(gen.generate(static_cast<std::uint64_t>(i)));
    schedules.push_back(sgen.generate(programs.back(), rng));
    api::Json body = api::Json::object();
    body.set("program", api::to_json(programs.back()));
    body.set("schedule", api::to_json(schedules.back()));
    bodies.push_back(body.dump());
  }
  serve::PredictionService& raw = (*service)->raw_service();

  // Warmup (feature cache, inference plans, connection).
  api::HttpClient client("127.0.0.1", server.port());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    auto f = raw.submit(programs[i], schedules[i]);
    raw.flush();
    f.get();
    if (!client.post("/v1/predict", bodies[i]).ok()) {
      std::cerr << "warmup request failed\n";
      return 1;
    }
  }

  // --- in-process futures ---------------------------------------------------
  Clock::time_point start = Clock::now();
  for (int r = 0; r < requests; ++r) {
    const std::size_t i = static_cast<std::size_t>(r) % bodies.size();
    auto f = raw.submit(programs[i], schedules[i]);
    raw.flush();
    f.get();
  }
  const double in_process_us = us_since(start, requests);

  // --- facade ---------------------------------------------------------------
  start = Clock::now();
  for (int r = 0; r < requests; ++r) {
    const std::size_t i = static_cast<std::size_t>(r) % bodies.size();
    api::PredictRequest request;
    request.program = programs[i];
    request.schedules.push_back(schedules[i]);
    auto response = (*service)->predict(request);
    if (!response.ok()) {
      std::cerr << "facade predict failed: " << response.status().to_string() << "\n";
      return 1;
    }
  }
  const double facade_us = us_since(start, requests);

  // --- HTTP -----------------------------------------------------------------
  start = Clock::now();
  for (int r = 0; r < requests; ++r) {
    auto response = client.post("/v1/predict", bodies[static_cast<std::size_t>(r) % bodies.size()]);
    if (!response.ok() || response->status != 200) {
      std::cerr << "http predict failed\n";
      return 1;
    }
  }
  const double http_us = us_since(start, requests);

  server.stop();

  Table table({"path", "us_per_request", "overhead_vs_in_process_us"});
  table.add_row({"in_process_futures", std::to_string(in_process_us), "0"});
  table.add_row({"facade", std::to_string(facade_us), std::to_string(facade_us - in_process_us)});
  table.add_row({"http_json", std::to_string(http_us), std::to_string(http_us - in_process_us)});
  std::cout << table.to_string() << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n";
    out << "  \"bench\": \"http_overhead\",\n";
    out << "  \"requests_per_config\": " << requests << ",\n";
    out << "  \"in_process_us\": " << in_process_us << ",\n";
    out << "  \"facade_us\": " << facade_us << ",\n";
    out << "  \"http_us\": " << http_us << ",\n";
    out << "  \"facade_minus_in_process_us\": " << facade_us - in_process_us << ",\n";
    out << "  \"http_minus_in_process_us\": " << http_us - in_process_us << ",\n";
    out << "  \"http_overhead_ratio\": " << (in_process_us > 0 ? http_us / in_process_us : 0)
        << "\n";
    out << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
