// perfbench: one workload of the end-to-end benchmark per invocation.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--trace-out FILE] [--revision REV]
//
// Sets the stack up at least nine times (setup_s is the median), measures
// the last one for S seconds, checks the outputs, and prints a table
// followed by one JSON line: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics; traced runs the per-layer
// ones.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common.h"
#include "support/log.h"
#include "workloads.h"

using namespace perfbench;

namespace {

// Set-up repeats at least kMinSetups times, and beyond that until
// kSetupBudgetS seconds have gone into it (at most kMaxSetups times), so the
// median of a short set-up rests on more samples.
constexpr int kMinSetups = 9;
constexpr int kMaxSetups = 41;
constexpr double kSetupBudgetS = 2.0;

// A fixed number of cores per phase, whatever the host lends, so the figures
// stay comparable across machines: as many as the phase keeps busy at once,
// so hand-offs between threads land on cores that are already busy. Waking
// an idle vCPU is slow while the host is busy: on a shared 4-vCPU guest,
// spreading the threads over four cores made CPU time per request swing by
// half between runs, and running search_cold (one job at a time: the job
// worker waits while the inference worker scores) on two cores made its job
// latency rise by half, against a sixth for its CPU time, when the host got
// busier. Set-up is one sequential flow and runs on one core. A traced
// search_cold run replays each job while the other client's job runs, so
// it gets a second core for the replays.
constexpr int kSetupCores = 1;
int window_cores(const RunConfig& config) {
  return config.workload == "search_cold" && !config.trace ? 1 : 2;
}

// Every per-layer metric a traced run reports, with its unit. A workload
// that bypasses a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"api.json_parse_us", "us"},         {"api.wire_decode_us", "us"},
    {"api.encode_us", "us"},             {"api.http_us", "us"},
    {"api.request_bytes", "bytes"},      {"serve.predict_us", "us"},
    {"serve.fingerprint_us", "us"},      {"serve.batch_occupancy", "count"},
    {"serve.cache_hit_ratio", "ratio"},  {"serve.structures_per_batch", "count"},
    {"serve.shadow_requests", "count"},  {"model.featurize_us", "us"},
    {"model.batch_assemble_us", "us"},   {"model.infer_us_per_row.b1", "us"},
    {"model.infer_us_per_row.b8", "us"}, {"model.infer_us_per_row.b32", "us"},
    {"nn.train_s", "s"},                 {"nn.train_batch_ms", "ms"},
    {"nn.arena_heap_allocs", "count"},   {"search.enumerate_us", "us"},
    {"search.heuristics_us", "us"},      {"search.score_ms_per_job", "ms"},
    {"search.self_ms_per_job", "ms"},    {"search.score_batch", "count"},
    {"search.decisions_per_job", "count"}, {"search.evaluations_per_job", "count"},
    {"transforms.is_legal_us", "us"},    {"transforms.apply_us", "us"},
    {"transforms.dependence_us", "us"},  {"jobs.run_ms", "ms"},
    {"jobs.queue_wait_ms", "ms"},        {"jobs.memory_hit_ratio", "ratio"},
    {"datagen.build_s", "s"},            {"sim.measure_us", "us"},
    {"registry.register_ms", "ms"},      {"registry.load_ms", "ms"},
    {"registry.promote_ms", "ms"},       {"registry.canary_s", "s"},
    {"trace.overhead_frac", "ratio"},    {"trace.unaccounted_frac", "ratio"},
};

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

// The metrics BENCHMARK.json gates on, in its order. An operation is a
// request on the predict workloads, a job (submit to terminal) on
// search_cold and a cycle on finetune_cycle.
Metrics end_to_end(const Outcome& out, const std::vector<double>& setup_seconds) {
  Metrics m;
  m.set("op_p50_ms", out.e2e.get("op_p50_ms"), "ms");
  m.set("ops_per_s", out.e2e.get("ops_per_s"), "1/s");
  m.set("cpu_ms_per_op", out.e2e.get("cpu_ms_per_op"), "ms");
  m.set("peak_rss_mb", out.peak_rss_mb, "MiB");
  m.set("setup_s", percentile(setup_seconds, 50), "s");
  return m;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload predict_unique|predict_batch_hot|search_cold|"
               "finetune_cycle --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--trace-out FILE] [--revision REV]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  RunConfig config;
  std::string revision = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") config.workload = value;
    else if (flag == "--seed") config.seed = std::stoull(value);
    else if (flag == "--seconds") config.seconds = std::stod(value);
    else if (flag == "--trace") config.trace = value == "1";
    else if (flag == "--work-dir") config.work_dir = value;
    else if (flag == "--trace-out") config.trace_out = value;
    else if (flag == "--revision") revision = value;
    else return usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 != 1) return usage("flags take one value each");
  if (config.work_dir.empty()) return usage("--work-dir is required");
  if (!(config.seconds > 0)) return usage("--seconds must be positive");
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "perfbench: refusing to measure a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }

  const int nproc = available_cores();
  const int cores = std::min(window_cores(config), nproc);
  const ThreadBudget budget = thread_budget(config.workload, cores);
  const int setup_cores = pin_to_cores(kSetupCores);
#ifdef _OPENMP
  omp_set_num_threads(budget.omp_threads);
#endif
  tcm::set_log_level(tcm::LogLevel::Warn);

  std::unique_ptr<Workload> workload;
  if (config.workload == "predict_unique") workload = make_predict_workload(config, budget, false);
  else if (config.workload == "predict_batch_hot") workload = make_predict_workload(config, budget, true);
  else if (config.workload == "search_cold") workload = make_search_workload(config, budget);
  else if (config.workload == "finetune_cycle") workload = make_finetune_workload(config, budget);
  else return usage(("unknown workload " + config.workload).c_str());

  std::error_code ec;
  if (std::filesystem::exists(config.work_dir, ec)) {
    std::cerr << "perfbench: work dir already exists: " << config.work_dir << "\n";
    return 2;
  }
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) {
    std::cerr << "perfbench: cannot create " << config.work_dir << ": " << ec.message() << "\n";
    return 2;
  }

  Outcome out;
  std::string refused;
  std::vector<double> setup_seconds;
  try {
    // Set-up from scratch, repeated; the first one also pays process start.
    double setup_total_s = 0;
    for (int rep = 0; rep < kMinSetups || (setup_total_s < kSetupBudgetS && rep < kMaxSetups);
         ++rep) {
      if (rep > 0) workload->teardown();
      // Peak memory covers the last set-up and its run, not the churn of the
      // earlier set-ups.
      reset_peak_rss();
      const Clock::time_point t0 = rep == 0 ? process_start : Clock::now();
      workload->setup(config.work_dir + "/rep" + std::to_string(rep));
      setup_seconds.push_back(seconds_since(t0));
      setup_total_s += setup_seconds.back();
    }
    pin_to_cores(cores);
    refused = workload->run(out);
    workload->teardown();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << config.workload << " failed: " << e.what() << "\n";
    remove_tree(config.work_dir);
    return 1;
  }
  remove_tree(config.work_dir);

  std::cout << "run-record {\"revision\":" << json_string(revision)
            << ",\"cpu\":" << json_string(cpu_model()) << ",\"nproc\":" << nproc
            << ",\"cores_used\":" << budget.cores << ",\"setup_cores\":" << setup_cores
            << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
            << ",\"cxx_flags\":" << json_string(PERFBENCH_CXX_FLAGS)
            << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
            << ",\"threads\":{\"clients\":" << budget.clients
            << ",\"http\":" << budget.http_threads << ",\"serve_workers\":" << budget.serve_workers
            << ",\"job_workers\":" << budget.job_workers << ",\"omp\":" << budget.omp_threads
            << "},\"workload\":" << json_string(config.workload) << ",\"seed\":" << config.seed
            << ",\"seconds\":" << number(config.seconds) << ",\"trace\":" << config.trace << "}\n";
  for (const std::string& note : out.notes) std::cout << "note: " << note << "\n";
  if (!refused.empty()) {
    std::cerr << "perfbench: run refused, workload shape guard failed: " << refused << "\n";
    return 3;
  }

  const Metrics e2e = end_to_end(out, setup_seconds);
  const double failed_frac =
      out.attempted > 0 ? static_cast<double>(out.failed) / static_cast<double>(out.attempted) : 1;
  Metrics table = out.e2e;
  table.set("failed_frac", failed_frac, "ratio");
  for (const Metric& m : e2e.all()) table.set(m.name, m.value, m.unit);
  table.set("setup_samples", static_cast<double>(setup_seconds.size()), "count");
  std::cout << "\n" << config.workload << " (seed " << config.seed << ")\n";
  for (const Metric& m : table.all())
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  Metrics reported;
  if (config.trace) {
    for (const auto& [name, unit] : kLayerMetrics) reported.set(name, out.layers.get(name), unit);
    std::cout << "per-layer\n";
    for (const Metric& m : reported.all())
      std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  } else {
    reported = e2e;
  }

  const bool correct = out.failed == 0 && out.checked > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : reported.all()) {
    std::cout << (first ? "" : ", ") << json_string(m.name) << ": {\"value\": " << number(m.value)
              << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
