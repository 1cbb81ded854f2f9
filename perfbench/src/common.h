// Shared pieces of the end-to-end benchmark: run configuration, the thread
// budget, metric tables, the span recorder, the serving stack every
// workload opens, and the reference scorer the output checks compare to.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/http_server.h"
#include "api/service.h"
#include "model/cost_model.h"
#include "nn/inference.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);
double us_between(Clock::time_point a, Clock::time_point b);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   // fresh per run; removed at exit
  std::string trace_out;  // span dump of a traced run
};

// Thread counts derived from the core count so that no more threads are
// runnable at once than there are cores (closed-loop clients block while
// their request is served, so a client and the thread serving it never run
// at the same time for long).
struct ThreadBudget {
  int cores = 1;
  int clients = 2;        // closed-loop client threads (fixed by the workloads)
  int http_threads = 2;   // one per keep-alive connection
  int serve_workers = 1;  // PredictionService inference workers
  int job_workers = 1;    // SearchJobManager workers
  int omp_threads = 1;    // OpenMP team for training matmuls
};
ThreadBudget thread_budget(const std::string& workload, int cores);
int available_cores();
// Restricts every thread of this process (and every thread started later)
// to the first `cores` of the CPUs the process was allowed at its first
// call; returns how many it now has.
int pin_to_cores(int cores);

// Ordered name -> (value, unit) table.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return items_; }
  double get(const std::string& name) const;  // 0 when absent

 private:
  std::vector<Metric> items_;
};

// What a workload's timed run produces.
struct Outcome {
  std::int64_t attempted = 0;  // operations started in the timed window
  std::int64_t failed = 0;     // failed, refused, or failed an output check
  std::int64_t checked = 0;    // outputs the checks compared
  double peak_rss_mb = 0;      // read at the end of the timed window
  Metrics e2e;                 // end-to-end metrics (issue names, per workload)
  Metrics layers;              // per-layer metrics (traced runs only)
  std::vector<std::string> notes;
};

// One completed closed-loop operation.
struct OpSample {
  double latency_ms = 0;
  Clock::time_point done{};
};

// Rate and latency of the operations that completed in [start, end] (later
// completions count in the last part). The window is cut into `slices`
// equal parts; each part's rate, median and tail percentile come from the
// operations that completed in it, and the median across parts is reported,
// so a stall confined to fewer than half the parts moves the result little.
struct WindowSummary {
  std::int64_t ops = 0;
  double per_s = 0;
  double p50_ms = 0;
  double tail_ms = 0;
  double mean_ms = 0;  // over the whole window
};
WindowSummary summarize_window(const std::vector<OpSample>& ops, Clock::time_point start,
                               Clock::time_point end, int slices, double tail_percentile);

// Runs fn(0) .. fn(n-1) on n threads, joins them all, then rethrows the
// first exception any of them raised.
void run_threads(int n, const std::function<void(int)>& fn);

// serve.cache_hit_ratio, serve.batch_occupancy and nn.arena_heap_allocs over
// the window between two stats snapshots; returns the hit ratio.
double serve_window_metrics(const tcm::serve::ServeStats& before,
                            const tcm::serve::ServeStats& after, Metrics& m);

// Percentile with linear interpolation (p in [0,100]); 0 when empty.
double percentile(std::vector<double> values, double p);
double mean_of(const std::vector<double>& values);

// User plus system CPU time of the whole process so far, in seconds.
double process_cpu_seconds();

// Peak resident set size of this process (VmHWM) since the last
// reset_peak_rss(), in MiB.
double peak_rss_mb();
void reset_peak_rss();

// ---------------------------------------------------------------------------
// Spans recorded around calls into the library's public functions. Each
// operation (request, job, cycle) has a root span timed by its client;
// replays of the operation's layers run right after it, on the same inputs,
// and hang under the root so their self times attribute to it.
// ---------------------------------------------------------------------------
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;      // request, job or cycle id
  double start_us = 0;       // since the recorder's epoch
  double end_us = 0;
};

class SpanRecorder {
 public:
  SpanRecorder(bool enabled, Clock::time_point epoch);
  bool enabled() const { return enabled_; }

  std::uint64_t next_id();
  // Records a finished span; no-op when disabled. Thread-safe.
  void record(const char* name, std::uint64_t id, std::uint64_t parent, std::uint64_t op,
              Clock::time_point start, Clock::time_point end);

  // Self time per span name (duration minus the part covered by children),
  // summed, and the number of spans of that name.
  struct Totals {
    double self_us = 0;
    double total_us = 0;
    std::int64_t count = 0;
  };
  std::map<std::string, Totals> totals() const;
  // Part of the root spans' time that no descendant's self time covers.
  double unaccounted_frac() const;
  // One line per non-root span name: its self time as a share of the root
  // spans' time, then the unaccounted share; the shares sum to one.
  std::vector<std::string> self_time_shares() const;
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

// RAII span: times its scope and records it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::uint64_t parent, std::uint64_t op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  const char* name_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::uint64_t op_;
  Clock::time_point start_;
};

// ---------------------------------------------------------------------------
// The serving stack under test: a fresh registry holding the fixed-seed fast
// cost model as v1, api::Service over it, and optionally the HTTP server
// with the REST routes.
// ---------------------------------------------------------------------------
struct StackOptions {
  std::string root;  // registry root; must not exist yet
  int serve_workers = 1;
  int http_threads = 0;  // 0 = no HTTP server
  bool search = false;
  int job_workers = 1;
  bool feedback = true;
};

class Stack {
 public:
  explicit Stack(const StackOptions& options);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  tcm::api::Service& service() { return *service_; }
  int port() const { return http_ ? http_->port() : 0; }

 private:
  std::unique_ptr<tcm::api::Service> service_;
  std::unique_ptr<tcm::api::HttpServer> http_;
};

// The model every stack starts from (fixed seed: the benchmark measures
// system speed, not accuracy).
std::unique_ptr<tcm::model::CostModel> make_fast_model();

// Direct single-row scoring through the same inference engine the service
// workers run; predictions served for a pair must equal it bitwise.
class ReferenceScorer {
 public:
  explicit ReferenceScorer(tcm::registry::ModelRegistry& registry);
  // Returns NaN when the pair cannot be featurized or the version is unknown.
  double score(int version, const tcm::ir::Program& program,
               const tcm::transforms::Schedule& schedule);

 private:
  tcm::registry::ModelRegistry& registry_;
  std::map<int, std::unique_ptr<tcm::model::SpeedupPredictor>> models_;
  tcm::nn::InferenceArena arena_;
};

// Removes a directory tree; ignores a missing path.
void remove_tree(const std::string& path);

}  // namespace perfbench
