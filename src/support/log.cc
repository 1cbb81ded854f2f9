#include "support/log.h"

#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>

#ifdef __linux__
#include <sys/syscall.h>
#endif

#include "support/clock.h"

namespace tcm {
namespace {

std::atomic<LogLevel> g_level{LogLevel::Info};
std::atomic<LogSink> g_sink{nullptr};
std::mutex g_mutex;

// Token bucket for Warn/Error; guarded by its own mutex so the (rare)
// limiter bookkeeping never serializes against the stderr write.
struct RateLimiter {
  std::mutex mu;
  double rate = 64.0;    // tokens per second
  double burst = 256.0;  // bucket capacity; <= 0 disables
  double tokens = 256.0;
  support::TimePoint last = support::now();
  std::uint64_t pending_suppressed = 0;  // dropped since the last passing line
};
RateLimiter g_rate;
std::atomic<std::uint64_t> g_suppressed_total{0};

// Returns false when the line must be dropped; on pass, *suppressed gets the
// number of drops this line should report (0 almost always).
bool rate_limit_admit(std::uint64_t* suppressed) {
  std::lock_guard<std::mutex> lock(g_rate.mu);
  if (g_rate.burst <= 0) {
    *suppressed = 0;
    return true;
  }
  const auto now = support::now();
  // A replaced test clock can leave `last` ahead of now: refill nothing.
  if (now > g_rate.last)
    g_rate.tokens += std::chrono::duration<double>(now - g_rate.last).count() * g_rate.rate;
  if (g_rate.tokens > g_rate.burst) g_rate.tokens = g_rate.burst;
  g_rate.last = now;
  if (g_rate.tokens < 1.0) {
    ++g_rate.pending_suppressed;
    g_suppressed_total.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  g_rate.tokens -= 1.0;
  *suppressed = g_rate.pending_suppressed;
  g_rate.pending_suppressed = 0;
  return true;
}

const char* level_name(LogLevel l) {
  switch (l) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF  ";
  }
  return "?";
}

// [2026-08-07T12:34:56.789Z]
void append_timestamp(std::string& out) {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[40];
  const int n = std::snprintf(buf, sizeof buf, "[%04d-%02d-%02dT%02d:%02d:%02d.%03dZ]",
                              tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour, tm.tm_min,
                              tm.tm_sec, static_cast<int>(ms));
  out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }
LogLevel log_level() { return g_level.load(); }

std::optional<LogLevel> parse_log_level(std::string_view name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  if (lower == "debug") return LogLevel::Debug;
  if (lower == "info") return LogLevel::Info;
  if (lower == "warn" || lower == "warning") return LogLevel::Warn;
  if (lower == "error") return LogLevel::Error;
  if (lower == "off" || lower == "none") return LogLevel::Off;
  return std::nullopt;
}

void init_log_level_from_env() {
  const char* env = std::getenv("TCM_LOG_LEVEL");
  if (env == nullptr) return;
  if (auto level = parse_log_level(env)) set_log_level(*level);
}

std::uint64_t os_thread_id() {
#ifdef __linux__
  thread_local std::uint64_t id = static_cast<std::uint64_t>(::syscall(SYS_gettid));
#else
  thread_local std::uint64_t id = static_cast<std::uint64_t>(::getpid());
#endif
  return id;
}

std::string format_log_line(LogLevel level, const std::string& msg) {
  std::string line;
  line.reserve(48 + msg.size());
  append_timestamp(line);
  line += " [";
  line += level_name(level);
  line += "] [tid ";
  line += std::to_string(os_thread_id());
  line += "] ";
  line += msg;
  return line;
}

void set_log_sink(LogSink sink) { g_sink.store(sink); }

void set_log_rate_limit(double lines_per_sec, double burst) {
  std::lock_guard<std::mutex> lock(g_rate.mu);
  g_rate.rate = lines_per_sec;
  g_rate.burst = burst;
  g_rate.tokens = burst;
  g_rate.last = support::now();
}

std::uint64_t log_suppressed_total() {
  return g_suppressed_total.load(std::memory_order_relaxed);
}

void log_message(LogLevel level, const std::string& msg) {
  if (static_cast<int>(level) < static_cast<int>(g_level.load())) return;
  std::string body = msg;
  if (level == LogLevel::Warn || level == LogLevel::Error) {
    std::uint64_t suppressed = 0;
    if (!rate_limit_admit(&suppressed)) return;
    if (suppressed > 0) body += " suppressed=" + std::to_string(suppressed);
  }
  const std::string line = format_log_line(level, body);
  if (LogSink sink = g_sink.load()) {
    sink(level, line);
    return;
  }
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "%s\n", line.c_str());
}

namespace detail {

std::string quote_log_value(std::string_view value) {
  bool needs_quotes = value.empty();
  for (char c : value) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '"' || c == '=') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) return std::string(value);
  std::string out;
  out.reserve(value.size() + 2);
  out += '"';
  for (char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace detail

}  // namespace tcm
