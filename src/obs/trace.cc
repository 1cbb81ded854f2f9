#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "support/clock.h"

namespace tcm::obs {

namespace {

constexpr std::size_t kMaxLabels = 4096;

thread_local std::uint64_t t_current_trace_id = 0;

// JSON string escape for request-id labels (client-supplied bytes).
void append_escaped(const std::string& s, std::string& out) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::uint32_t trace_thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Tracer::Tracer() { ring_.reserve(ring_capacity_); }

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_sample_rate(double rate) {
  std::uint32_t stride = 0;
  if (rate > 0) {
    rate = std::min(rate, 1.0);
    stride = static_cast<std::uint32_t>(std::llround(1.0 / rate));
    if (stride == 0) stride = 1;
  }
  stride_.store(stride, std::memory_order_relaxed);
}

double Tracer::sample_rate() const {
  const std::uint32_t stride = stride_.load(std::memory_order_relaxed);
  return stride == 0 ? 0.0 : 1.0 / static_cast<double>(stride);
}

void Tracer::set_capacity(std::size_t spans) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_capacity_ = std::max<std::size_t>(spans, 1);
  ring_.clear();
  ring_.reserve(ring_capacity_);
  ring_next_ = 0;
  ring_wrapped_ = false;
}

std::uint64_t Tracer::sample_request() {
  const std::uint32_t stride = stride_.load(std::memory_order_relaxed);
  if (stride == 0) return 0;
  if (draws_.fetch_add(1, std::memory_order_relaxed) % stride != 0) return 0;
  return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Tracer::force_request() {
  if (stride_.load(std::memory_order_relaxed) == 0) return 0;
  return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::set_label(std::uint64_t trace_id, std::string label) {
  if (trace_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (labels_.size() >= kMaxLabels) labels_.erase(labels_.begin());
  labels_.emplace_back(trace_id, std::move(label));
}

void Tracer::record(const char* name, std::uint64_t trace_id, std::uint64_t start_ns,
                    std::uint64_t end_ns) {
  if (trace_id == 0) return;
  SpanRecord span;
  span.name = name;
  span.trace_id = trace_id;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.tid = trace_thread_id();
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < ring_capacity_) {
    ring_.push_back(span);
  } else {
    ring_[ring_next_] = span;
    ring_next_ = (ring_next_ + 1) % ring_capacity_;
    ring_wrapped_ = true;
  }
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ring_wrapped_) return ring_;
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(ring_next_), ring_.end());
  out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(ring_next_));
  return out;
}

std::string Tracer::label(std::uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = labels_.rbegin(); it != labels_.rend(); ++it)
    if (it->first == trace_id) return it->second;
  return "";
}

std::string Tracer::export_chrome_json() const {
  std::vector<SpanRecord> all = spans();
  // chrome://tracing sorts internally, but a time-ordered export diffs
  // cleanly and is easier on the eyes raw.
  std::stable_sort(all.begin(), all.end(),
                   [](const SpanRecord& a, const SpanRecord& b) { return a.start_ns < b.start_ns; });
  std::string out;
  out.reserve(128 + all.size() * 160);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : all) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += s.name;
    out += "\",\"cat\":\"tcm\",\"ph\":\"X\",\"ts\":";
    // trace_event timestamps are microseconds; keep ns resolution as the
    // fractional part.
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(s.start_ns) / 1e3);
    out += buf;
    out += ",\"dur\":";
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += buf;
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(s.tid);
    out += ",\"args\":{\"request_id\":\"";
    const std::string lbl = label(s.trace_id);
    if (lbl.empty()) {
      char idbuf[32];
      std::snprintf(idbuf, sizeof idbuf, "trace-%llu",
                    static_cast<unsigned long long>(s.trace_id));
      out += idbuf;
    } else {
      append_escaped(lbl, out);
    }
    out += "\"}}";
  }
  out += "]}";
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  ring_next_ = 0;
  ring_wrapped_ = false;
  labels_.clear();
}

std::uint64_t Tracer::now_ns() { return support::to_ns(support::now()); }

std::uint64_t current_trace_id() { return t_current_trace_id; }

TraceContext::TraceContext(std::uint64_t trace_id) : previous_(t_current_trace_id) {
  t_current_trace_id = trace_id;
}

TraceContext::~TraceContext() { t_current_trace_id = previous_; }

}  // namespace tcm::obs
