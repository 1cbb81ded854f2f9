// Serving throughput: requests/sec of serve::PredictionService as a function
// of worker-thread count and dynamic-batching cap, on a mixed-structure
// request stream (several programs interleaved, many schedules each — the
// shape of traffic a search produces). The autograd-vs-fused engine A/B is
// bench_micro's BM_CostModelForwardAutograd vs BM_CostModelInferBatch.
//
// Flags:
//   --requests N   total requests per configuration (default 3000)
//   --clients N    closed-loop client threads (default 8)
//   --csv PATH     also write the table as CSV
//   --json PATH    machine-readable results (default BENCH_serve_throughput.json;
//                  empty string disables)
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "datagen/generator.h"
#include "model/cost_model.h"
#include "serve/prediction_service.h"
#include "support/table.h"

using namespace tcm;

namespace {

struct Workload {
  std::vector<ir::Program> programs;
  // Parallel arrays: request i is (programs[pair_program[i]], pair_schedule[i]).
  std::vector<std::size_t> pair_program;
  std::vector<transforms::Schedule> pair_schedule;

  std::size_t size() const { return pair_schedule.size(); }
};

Workload make_workload(int num_programs, int schedules_per_program) {
  Workload w;
  datagen::RandomProgramGenerator gen(datagen::GeneratorOptions::tiny());
  datagen::RandomScheduleGenerator sgen;
  Rng rng(99);
  for (int p = 0; p < num_programs; ++p) {
    w.programs.push_back(gen.generate(static_cast<std::uint64_t>(p)));
    for (int s = 0; s < schedules_per_program; ++s) {
      w.pair_program.push_back(static_cast<std::size_t>(p));
      w.pair_schedule.push_back(sgen.generate(w.programs.back(), rng));
    }
  }
  return w;
}

struct RunResult {
  int workers = 0;
  int max_batch = 0;
  double requests_per_sec = 0;
  serve::ServeStats stats;

  double allocs_per_pred() const {
    return stats.requests > 0 ? static_cast<double>(stats.arena_heap_allocs) /
                                    static_cast<double>(stats.requests)
                              : 0.0;
  }
};

RunResult run_configuration(model::SpeedupPredictor& predictor, const Workload& workload,
                            int workers, int max_batch, int total_requests, int num_clients) {
  serve::ServeOptions options;
  options.num_threads = workers;
  options.max_batch = max_batch;
  options.max_queue_latency = std::chrono::microseconds(500);
  options.cache_capacity = 4096;
  options.features = model::FeatureConfig::fast();
  serve::PredictionService service(predictor, options);

  std::atomic<std::size_t> next{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&] {
      std::vector<std::future<serve::Prediction>> inflight;
      inflight.reserve(128);
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= static_cast<std::size_t>(total_requests)) break;
        const std::size_t pair = i % workload.size();
        inflight.push_back(service.submit(workload.programs[workload.pair_program[pair]],
                                          workload.pair_schedule[pair]));
        if (inflight.size() >= 128) {
          for (auto& f : inflight) f.get();
          inflight.clear();
        }
      }
      for (auto& f : inflight) f.get();
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  RunResult r;
  r.workers = workers;
  r.max_batch = max_batch;
  r.requests_per_sec = static_cast<double>(total_requests) / seconds;
  r.stats = service.stats();
  return r;
}

void write_json(const std::string& path, const std::vector<RunResult>& results,
                int total_requests, int num_clients) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"serve_throughput\",\n";
  out << "  \"requests_per_config\": " << total_requests << ",\n";
  out << "  \"client_threads\": " << num_clients << ",\n";
  out << "  \"configs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    out << "    {\"workers\": " << r.workers << ", \"max_batch\": " << r.max_batch
        << ", \"requests_per_sec\": " << r.requests_per_sec
        << ", \"p50_latency_s\": " << r.stats.p50_latency
        << ", \"p99_latency_s\": " << r.stats.p99_latency
        << ", \"mean_batch_occupancy\": " << r.stats.mean_batch_occupancy
        << ", \"arena_heap_allocs\": " << r.stats.arena_heap_allocs
        << ", \"allocs_per_pred\": " << r.allocs_per_pred() << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  int total_requests = 3000;
  int num_clients = 8;
  std::string csv_path;
  std::string json_path = "BENCH_serve_throughput.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--requests" && i + 1 < argc) total_requests = std::atoi(argv[++i]);
    else if (arg == "--clients" && i + 1 < argc) num_clients = std::atoi(argv[++i]);
    else if (arg == "--csv" && i + 1 < argc) csv_path = argv[++i];
    else if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
  }
  total_requests = std::max(total_requests, 1);
  num_clients = std::max(num_clients, 1);

  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  const Workload workload = make_workload(/*num_programs=*/6, /*schedules_per_program=*/16);

  std::cout << "serve throughput: " << total_requests << " requests/config, " << num_clients
            << " client threads, " << workload.size() << " distinct (program, schedule) pairs, "
            << std::thread::hardware_concurrency() << " hardware threads\n\n";

  struct Config {
    int workers;
    int max_batch;
  };
  const std::vector<Config> configs = {
      {1, 1}, {1, 8}, {1, 64}, {2, 64}, {4, 1}, {4, 8}, {4, 64},
  };

  // Warm-up: fault in code paths and the allocator before timing. (Each
  // configuration constructs its own service and therefore its own feature
  // cache, so all configurations start equally cache-cold.)
  run_configuration(cost_model, workload, 1, 64, static_cast<int>(workload.size()), 2);

  Table table({"workers", "batch cap", "req/s", "speedup", "occupancy",
               "cache hit %", "allocs/pred", "p50 ms", "p99 ms"});
  double baseline = 0;
  double one_worker_64 = 0, four_worker_64 = 0;
  std::vector<RunResult> results;
  for (const Config& cfg : configs) {
    const RunResult r = run_configuration(cost_model, workload, cfg.workers, cfg.max_batch,
                                          total_requests, num_clients);
    results.push_back(r);
    if (baseline == 0) baseline = r.requests_per_sec;
    if (cfg.max_batch == 64 && cfg.workers == 1) one_worker_64 = r.requests_per_sec;
    if (cfg.max_batch == 64 && cfg.workers == 4) four_worker_64 = r.requests_per_sec;
    const double hit_total =
        static_cast<double>(r.stats.cache_hits + r.stats.cache_misses);
    table.add_row({std::to_string(cfg.workers), std::to_string(cfg.max_batch),
                   Table::fmt(r.requests_per_sec, 0),
                   Table::fmt(r.requests_per_sec / baseline, 2) + "x",
                   Table::fmt(r.stats.mean_batch_occupancy, 1),
                   Table::fmt(hit_total > 0 ? 100.0 * static_cast<double>(r.stats.cache_hits) /
                                                  hit_total
                                            : 0.0,
                              1),
                   Table::fmt(r.allocs_per_pred(), 3),
                   Table::fmt(1e3 * r.stats.p50_latency, 2),
                   Table::fmt(1e3 * r.stats.p99_latency, 2)});
  }
  std::cout << table.to_string() << "\n";
  if (one_worker_64 > 0 && four_worker_64 > 0)
    std::cout << "speedup 1 -> 4 workers at batch cap 64: "
              << Table::fmt(four_worker_64 / one_worker_64, 2) << "x\n";
  std::cout << "speedup unbatched -> dynamic batching (1 worker): "
            << Table::fmt(one_worker_64 / baseline, 2) << "x\n";
  if (!csv_path.empty()) table.write_csv(csv_path);
  if (!json_path.empty())
    write_json(json_path, results, total_requests, num_clients);
  return 0;
}
