#include "common.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/types.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <exception>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "api/rest.h"
#include "model/dataset.h"
#include "model/featurize.h"
#include "registry/model_registry.h"
#include "support/rng.h"

namespace perfbench {

using namespace tcm;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

int available_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
  return 1;
}

int pin_to_cores(int cores) {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (int cpu = 0, n = 0; cpu < CPU_SETSIZE && n < cores; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      ++n;
    }
  if (CPU_COUNT(&chosen) == 0) return available_cores();
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task", ec))
    sched_setaffinity(static_cast<pid_t>(std::stoi(task.path().filename().string())),
                      sizeof(chosen), &chosen);
  return available_cores();
}

ThreadBudget thread_budget(const std::string& workload, int cores) {
  ThreadBudget b;
  b.cores = cores;
  if (workload == "finetune_cycle") {
    // The trainer's OpenMP team shares the box with one canary client, its
    // HTTP thread and one inference worker (of which about one runs at a
    // time: the client waits while the server scores).
    b.clients = 1;
    b.http_threads = 1;
    b.serve_workers = 1;
    b.omp_threads = std::max(1, cores - 2);
  } else if (workload == "search_cold") {
    // Clients only wait; each job worker blocks while an inference worker
    // scores its candidates.
    b.clients = 2;
    b.http_threads = 0;
    b.job_workers = std::clamp(cores / 2, 1, 2);
    b.serve_workers = std::clamp(cores - b.job_workers, 1, 2);
  } else {
    b.clients = 2;
    b.http_threads = 2;
    b.serve_workers = std::clamp(cores - b.clients, 1, 2);
  }
  return b;
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : items_)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  items_.push_back({name, value, unit});
}

double Metrics::get(const std::string& name) const {
  for (const Metric& m : items_)
    if (m.name == name) return m.value;
  return 0;
}

double serve_window_metrics(const serve::ServeStats& before, const serve::ServeStats& after,
                            Metrics& m) {
  const auto delta = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
  const double hits = delta(before.cache_hits, after.cache_hits);
  const double lookups = hits + delta(before.cache_misses, after.cache_misses);
  const double batches = delta(before.batches, after.batches);
  const double hit_ratio = lookups > 0 ? hits / lookups : 0;
  m.set("serve.cache_hit_ratio", hit_ratio, "ratio");
  m.set("serve.batch_occupancy", batches > 0 ? delta(before.requests, after.requests) / batches : 0,
        "count");
  m.set("nn.arena_heap_allocs", delta(before.arena_heap_allocs, after.arena_heap_allocs), "count");
  return hit_ratio;
}

void run_threads(int n, const std::function<void(int)>& fn) {
  std::mutex mu;
  std::exception_ptr first;
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i)
    threads.emplace_back([&, i] {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first) first = std::current_exception();
      }
    });
  for (std::thread& t : threads) t.join();
  if (first) std::rethrow_exception(first);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= values.size()) return values.back();
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

WindowSummary summarize_window(const std::vector<OpSample>& ops, Clock::time_point start,
                               Clock::time_point end, int slices, double tail_percentile) {
  WindowSummary w;
  w.ops = static_cast<std::int64_t>(ops.size());
  slices = std::max(1, slices);
  const double width_s = std::chrono::duration<double>(end - start).count() / slices;
  if (ops.empty() || !(width_s > 0)) return w;
  std::vector<std::vector<double>> parts(static_cast<std::size_t>(slices));
  std::vector<double> all;
  for (const OpSample& op : ops) {
    const double at = std::chrono::duration<double>(op.done - start).count();
    const int k = std::clamp(static_cast<int>(at / width_s), 0, slices - 1);
    parts[static_cast<std::size_t>(k)].push_back(op.latency_ms);
    all.push_back(op.latency_ms);
  }
  std::vector<double> rate, p50, tail;
  for (const std::vector<double>& part : parts) {
    rate.push_back(static_cast<double>(part.size()) / width_s);
    if (part.empty()) continue;
    p50.push_back(percentile(part, 50));
    tail.push_back(percentile(part, tail_percentile));
  }
  w.per_s = percentile(rate, 50);
  w.p50_ms = percentile(p50, 50);
  w.tail_ms = percentile(tail, 50);
  w.mean_ms = mean_of(all);
  return w;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void reset_peak_rss() {
  malloc_trim(0);  // hand back what earlier set-ups freed, so it is not counted
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0;
}

// --- spans ------------------------------------------------------------------

SpanRecorder::SpanRecorder(bool enabled, Clock::time_point epoch)
    : enabled_(enabled), epoch_(epoch) {}

std::uint64_t SpanRecorder::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::record(const char* name, std::uint64_t id, std::uint64_t parent,
                          std::uint64_t op, Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.op = op;
  s.start_us = us_between(epoch_, start);
  s.end_us = us_between(epoch_, end);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, double> child_us;
  for (const Span& s : spans_)
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  std::map<std::string, Totals> out;
  for (const Span& s : spans_) {
    Totals& t = out[s.name];
    const double dur = s.end_us - s.start_us;
    auto it = child_us.find(s.id);
    t.self_us += dur - (it == child_us.end() ? 0.0 : it->second);
    t.total_us += dur;
    ++t.count;
  }
  return out;
}

double SpanRecorder::unaccounted_frac() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, double> child_us;
  for (const Span& s : spans_)
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  double root_us = 0, covered_us = 0;
  for (const Span& s : spans_) {
    if (s.parent != 0) continue;
    root_us += s.end_us - s.start_us;
    auto it = child_us.find(s.id);
    if (it != child_us.end()) covered_us += it->second;
  }
  return root_us > 0 ? (root_us - covered_us) / root_us : 0;
}

std::vector<std::string> SpanRecorder::self_time_shares() const {
  const std::map<std::string, Totals> t = totals();
  double root_us = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_)
      if (s.parent == 0) root_us += s.end_us - s.start_us;
  }
  std::vector<std::string> lines;
  if (root_us <= 0) return lines;
  double covered = 0;
  for (const auto& [name, totals] : t) {
    bool is_root = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const Span& s : spans_)
        if (s.name == name) {
          is_root = s.parent == 0;
          break;
        }
    }
    if (is_root) continue;
    covered += totals.self_us;
    char buf[128];
    std::snprintf(buf, sizeof buf, "self-time share %-24s %8.4f", name.c_str(),
                  totals.self_us / root_us);
    lines.push_back(buf);
  }
  char buf[128];
  std::snprintf(buf, sizeof buf, "self-time share %-24s %8.4f (layers + unaccounted = %.4f)",
                "unaccounted", unaccounted_frac(), covered / root_us + unaccounted_frac());
  lines.push_back(buf);
  return lines;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << ",\"start_us\":" << s.start_us
        << ",\"end_us\":" << s.end_us << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanRecorder& rec, const char* name, std::uint64_t parent,
                       std::uint64_t op)
    : rec_(rec),
      name_(name),
      id_(rec.enabled() ? rec.next_id() : 0),
      parent_(parent),
      op_(op),
      start_(Clock::now()) {}

ScopedSpan::~ScopedSpan() { rec_.record(name_, id_, parent_, op_, start_, Clock::now()); }

// --- stack ------------------------------------------------------------------

std::unique_ptr<model::CostModel> make_fast_model() {
  Rng rng(7);
  return std::make_unique<model::CostModel>(model::ModelConfig::fast(), rng);
}

Stack::Stack(const StackOptions& options) {
  if (std::filesystem::exists(options.root))
    throw std::runtime_error("registry root already exists: " + options.root);
  {
    registry::ModelRegistry reg(options.root);
    std::unique_ptr<model::CostModel> m = make_fast_model();
    registry::ModelManifest manifest;
    manifest.config = model::ModelConfig::fast();
    manifest.provenance = "perfbench fixed-seed fast model";
    reg.promote(reg.register_version(*m, manifest));
  }
  api::ServiceOptions sopt;
  sopt.registry_root = options.root;
  sopt.serve.num_threads = options.serve_workers;
  sopt.serve.features = model::FeatureConfig::fast();
  sopt.enable_feedback = options.feedback;
  sopt.enable_search = options.search;
  sopt.search.workers = options.job_workers;
  api::Result<std::unique_ptr<api::Service>> opened = api::Service::open(std::move(sopt));
  if (!opened.ok()) throw std::runtime_error("Service::open: " + opened.status().to_string());
  service_ = std::move(*opened);
  if (options.http_threads > 0) {
    api::HttpServerOptions hopt;
    hopt.num_threads = options.http_threads;
    hopt.metrics = service_->metrics();
    hopt.watchdog = service_->watchdog();
    http_ = std::make_unique<api::HttpServer>(hopt);
    api::bind_routes(*http_, *service_);
    if (api::Status s = http_->start(); !s.ok())
      throw std::runtime_error("HttpServer::start: " + s.to_string());
  }
}

Stack::~Stack() {
  if (http_) http_->stop();
  if (service_) service_->shutdown();
}

ReferenceScorer::ReferenceScorer(registry::ModelRegistry& registry) : registry_(registry) {}

double ReferenceScorer::score(int version, const ir::Program& program,
                              const transforms::Schedule& schedule) {
  auto it = models_.find(version);
  if (it == models_.end()) {
    try {
      it = models_.emplace(version, registry_.load(version)).first;
    } catch (const std::exception&) {
      return std::nan("");
    }
  }
  std::optional<model::FeaturizedProgram> feats =
      model::featurize(program, schedule, model::FeatureConfig::fast());
  if (!feats) return std::nan("");
  const model::Batch single = model::make_inference_batch({&*feats});
  return static_cast<double>(it->second->infer_batch(single, arena_).at(0, 0));
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
