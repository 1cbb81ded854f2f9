#include "obs/metrics.h"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace tcm::obs {

namespace {

void append_double(double v, std::string& out) {
  if (std::isnan(v)) {
    out += "NaN";
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, end);
}

const char* kind_type_name(int kind) {
  switch (kind) {
    case 0: return "histogram";
    case 1: return "counter";
    default: return "gauge";
  }
}

}  // namespace

const std::string* MetricsRegistry::entry_name(const Entry& e) const {
  switch (e.kind) {
    case Kind::kHistogram: return &histograms_[e.index].name();
    case Kind::kCounter: return &counters_[e.index].name();
    case Kind::kGauge: return &gauges_[e.index].name();
    case Kind::kCallbackGauge: return &callback_gauges_[e.index].name;
    case Kind::kCounterFamily: return &counter_families_[e.index].name;
  }
  return nullptr;
}

void MetricsRegistry::check_kind(const std::string& name, Kind kind) const {
  // Callback gauges and plain gauges share the `gauge` exposition type and
  // may coexist in one family; any other cross-kind reuse is a bug.
  const auto type_of = [](Kind k) {
    if (k == Kind::kHistogram) return 0;
    if (k == Kind::kCounter || k == Kind::kCounterFamily) return 1;
    return 2;
  };
  for (const Entry& e : order_) {
    if (*entry_name(e) == name && type_of(e.kind) != type_of(kind))
      throw std::logic_error("MetricsRegistry: family '" + name + "' registered as " +
                             kind_type_name(type_of(e.kind)) + " and " +
                             kind_type_name(type_of(kind)));
  }
}

Histogram& MetricsRegistry::histogram(const std::string& name, const std::string& help,
                                      const std::string& labels, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Histogram& h : histograms_)
    if (h.name() == name && h.labels() == labels) return h;
  check_kind(name, Kind::kHistogram);
  Histogram& h = histograms_.emplace_back(name, help, labels, std::move(bounds));
  order_.push_back({Kind::kHistogram, histograms_.size() - 1});
  return h;
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& help,
                                  const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Counter& c : counters_)
    if (c.name() == name && c.labels() == labels) return c;
  check_kind(name, Kind::kCounter);
  Counter& c = counters_.emplace_back(name, help, labels);
  order_.push_back({Kind::kCounter, counters_.size() - 1});
  return c;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Gauge& g : gauges_)
    if (g.name() == name && g.labels() == labels) return g;
  check_kind(name, Kind::kGauge);
  Gauge& g = gauges_.emplace_back(name, help, labels);
  order_.push_back({Kind::kGauge, gauges_.size() - 1});
  return g;
}

void MetricsRegistry::gauge_callback(const std::string& name, const std::string& help,
                                     const std::string& labels, std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (CallbackGauge& g : callback_gauges_) {
    if (g.name == name && g.labels == labels) {
      g.fn = std::move(fn);  // re-registration replaces the source
      return;
    }
  }
  check_kind(name, Kind::kCallbackGauge);
  callback_gauges_.push_back({name, help, labels, std::move(fn)});
  order_.push_back({Kind::kCallbackGauge, callback_gauges_.size() - 1});
}

void MetricsRegistry::counter_family(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : order_)
    if (*entry_name(e) == name && (e.kind == Kind::kCounter || e.kind == Kind::kCounterFamily))
      return;  // already declared, or a label set already carries it
  check_kind(name, Kind::kCounterFamily);
  counter_families_.push_back({name, help});
  order_.push_back({Kind::kCounterFamily, counter_families_.size() - 1});
}

std::string MetricsRegistry::render_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  // Families in first-registration order; members of one family rendered
  // together under a single HELP/TYPE preamble.
  std::vector<const std::string*> family_order;
  for (const Entry& e : order_) {
    const std::string* name = entry_name(e);
    bool seen = false;
    for (const std::string* f : family_order)
      if (*f == *name) seen = true;
    if (!seen) family_order.push_back(name);
  }
  for (const std::string* family : family_order) {
    bool preamble = false;
    for (const Entry& e : order_) {
      if (*entry_name(e) != *family) continue;
      const auto preamble_for = [&](const std::string& help, const char* type) {
        if (preamble) return;
        out += "# HELP " + *family + ' ' + help + '\n';
        out += "# TYPE " + *family + ' ' + type + '\n';
        preamble = true;
      };
      switch (e.kind) {
        case Kind::kHistogram: {
          const Histogram& h = histograms_[e.index];
          preamble_for(h.help(), "histogram");
          const Histogram::Snapshot s = h.snapshot();
          const std::string sep = h.labels().empty() ? "" : h.labels() + ",";
          std::uint64_t cum = 0;
          for (std::size_t i = 0; i <= s.bounds.size(); ++i) {
            cum += s.counts[i];
            out += h.name() + "_bucket{" + sep + "le=\"";
            if (i == s.bounds.size()) {
              out += "+Inf";
            } else {
              append_double(s.bounds[i], out);
            }
            out += "\"} " + std::to_string(cum) + '\n';
          }
          const std::string label_block = h.labels().empty() ? "" : '{' + h.labels() + '}';
          out += h.name() + "_sum" + label_block + ' ';
          append_double(s.sum, out);
          out += '\n';
          out += h.name() + "_count" + label_block + ' ' + std::to_string(s.count) + '\n';
          break;
        }
        case Kind::kCounter: {
          const Counter& c = counters_[e.index];
          preamble_for(c.help(), "counter");
          const std::string label_block = c.labels().empty() ? "" : '{' + c.labels() + '}';
          out += c.name() + label_block + ' ' + std::to_string(c.value()) + '\n';
          break;
        }
        case Kind::kGauge: {
          const Gauge& g = gauges_[e.index];
          preamble_for(g.help(), "gauge");
          const std::string label_block = g.labels().empty() ? "" : '{' + g.labels() + '}';
          out += g.name() + label_block + ' ';
          append_double(g.value(), out);
          out += '\n';
          break;
        }
        case Kind::kCallbackGauge: {
          const CallbackGauge& g = callback_gauges_[e.index];
          preamble_for(g.help, "gauge");
          const std::string label_block = g.labels.empty() ? "" : '{' + g.labels + '}';
          out += g.name + label_block + ' ';
          append_double(g.fn ? g.fn() : 0.0, out);
          out += '\n';
          break;
        }
        case Kind::kCounterFamily:
          preamble_for(counter_families_[e.index].help, "counter");
          break;
      }
    }
  }
  return out;
}

}  // namespace tcm::obs
