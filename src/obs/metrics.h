// Counter/gauge metrics and the unified MetricsRegistry.
//
// The registry is the one store of every metric on /metrics: serving,
// feedback, HTTP, search, drift/autopilot and process families are all
// instruments the producing subsystem updates in place, and the exposition
// is a single render_prometheus() call. The instrument set:
//
//   - Counter: monotone uint64, wait-free inc() (one relaxed atomic
//     fetch_add), for event totals (requests, batches, autopilot cycles).
//   - Gauge: settable double, wait-free set()/add(), for point-in-time
//     values (queue depth, cache hit ratio, drift signal levels).
//   - Callback gauges: sampled at render time, for values derived from state
//     that is not a counter (process RSS/fds/uptime from /proc, the shadow
//     disagreement window). A callback co-owns what it reads: the registry
//     may outlive any subsystem that registered into it.
//
// MetricsRegistry hands out all three plus histograms, keyed (name, labels)
// get-or-create with stable references, and renders one Prometheus 0.0.4
// text block: families in first-registration order, exactly one HELP/TYPE
// preamble per family regardless of how many label sets it has.
//
// Registration takes a mutex (once per instrument); updates never do.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace tcm::obs {

class Counter {
 public:
  Counter(std::string name, std::string help, std::string labels)
      : name_(std::move(name)), help_(std::move(help)), labels_(std::move(labels)) {}

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  // Wait-free. Returns the value before the increment, so a counter can
  // double as a ticket dispenser (batch index, sampling ticket).
  std::uint64_t inc(std::uint64_t n = 1) {
    return value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const std::string& labels() const { return labels_; }

 private:
  const std::string name_;
  const std::string help_;
  const std::string labels_;
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  Gauge(std::string name, std::string help, std::string labels)
      : name_(std::move(name)), help_(std::move(help)), labels_(std::move(labels)) {}

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  // Wait-free (add() is a CAS loop, still lock-free; contention on a gauge
  // is one writer in practice).
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const std::string& labels() const { return labels_; }

 private:
  const std::string name_;
  const std::string help_;
  const std::string labels_;
  std::atomic<double> value_{0.0};
};

class MetricsRegistry {
 public:
  // Get-or-create by (name, labels); `help` (and `bounds` for histograms)
  // are taken from the first registration of the pair. Thread-safe; the
  // returned references are stable for the registry's lifetime. Registering
  // one family name under two different instrument kinds is a programming
  // error and throws.
  Histogram& histogram(const std::string& name, const std::string& help,
                       const std::string& labels, std::vector<double> bounds);
  Counter& counter(const std::string& name, const std::string& help,
                   const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& help, const std::string& labels = "");

  // A gauge whose value is pulled from `fn` at render time; for sources no
  // counter or gauge can hold (/proc, a derived statistic). The callback
  // must stay valid for the registry's lifetime — capture shared ownership
  // of the state it reads, never a raw owner pointer — and be callable from
  // any thread.
  void gauge_callback(const std::string& name, const std::string& help,
                      const std::string& labels, std::function<double()> fn);

  // Declares a labelled counter family before its first label set exists,
  // so the family renders (HELP/TYPE, no samples) from the first scrape.
  // Samples appear as counter(name, ..., labels) creates them.
  void counter_family(const std::string& name, const std::string& help);

  // Prometheus 0.0.4 text: families in first-registration order, HELP/TYPE
  // once per family, then one sample line (or bucket block) per label set.
  std::string render_prometheus() const;

 private:
  enum class Kind { kHistogram, kCounter, kGauge, kCallbackGauge, kCounterFamily };
  struct CounterFamily {
    std::string name;
    std::string help;
  };
  struct CallbackGauge {
    std::string name;
    std::string help;
    std::string labels;
    std::function<double()> fn;
  };
  // (kind, index into that kind's deque) in registration order; render
  // groups consecutive same-name runs into one family block.
  struct Entry {
    Kind kind;
    std::size_t index;
  };

  const std::string* entry_name(const Entry& e) const;
  void check_kind(const std::string& name, Kind kind) const;

  mutable std::mutex mu_;
  std::deque<Histogram> histograms_;  // deques: references must not move
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<CallbackGauge> callback_gauges_;
  std::deque<CounterFamily> counter_families_;
  std::vector<Entry> order_;
};

}  // namespace tcm::obs
