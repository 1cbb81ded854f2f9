#include "jobs/schedule_memory.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "api/json.h"
#include "api/wire.h"
#include "support/log.h"
#include "support/retry.h"

namespace fs = std::filesystem;

namespace tcm::jobs {
namespace {

constexpr const char* kFormat = "tcm-schedule-memory";
constexpr int kFormatVersion = 2;    // journal: header line, then one entry per line
constexpr int kDocumentVersion = 1;  // one document {"entries":[...]}; still read

support::RetryOptions io_retry_options(const char* op) {
  support::RetryOptions options;
  options.max_attempts = 3;
  options.initial_backoff = std::chrono::milliseconds(5);
  options.max_backoff = std::chrono::milliseconds(100);
  options.on_retry = [op](int attempt, const std::string& why) {
    log_warn() << "ScheduleMemory: retrying " << op << " after attempt " << attempt << ": "
               << why;
  };
  return options;
}

void fsync_path(const fs::path& path, bool directory) {
  const int fd = ::open(path.c_str(), directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  if (fd < 0) throw std::runtime_error("ScheduleMemory: cannot open for fsync: " + path.string());
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("ScheduleMemory: fsync failed on " + path.string());
}

// Same crash-safety discipline as the registry: stage, fsync, rename, fsync
// the directory. After a power cut the path holds the old or the new
// content, never a torn file.
void atomic_write_file(const fs::path& path, const std::string& content) {
  support::with_retries(io_retry_options("atomic write"), [&] {
    const fs::path tmp = path.string() + ".tmp";
    {
      std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
      if (!f) throw std::runtime_error("ScheduleMemory: cannot write " + tmp.string());
      f.write(content.data(), static_cast<std::streamsize>(content.size()));
      f.flush();
      if (!f) throw std::runtime_error("ScheduleMemory: short write to " + tmp.string());
    }
    fsync_path(tmp, /*directory=*/false);
    fs::rename(tmp, path);
    fsync_path(path.parent_path().empty() ? fs::path(".") : path.parent_path(),
               /*directory=*/true);
  });
}

// Appends `line` and fdatasyncs it. A failed attempt truncates the file back
// so a retry does not leave a torn line in front of the next one.
void append_line(const std::string& path, const std::string& line) {
  support::with_retries(io_retry_options("append"), [&] {
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd < 0) throw std::runtime_error("ScheduleMemory: cannot open " + path);
    const off_t size = ::lseek(fd, 0, SEEK_END);
    std::size_t done = 0;
    bool ok = size >= 0;
    while (ok && done < line.size()) {
      const ssize_t n = ::write(fd, line.data() + done, line.size() - done);
      if (n < 0 && errno == EINTR) continue;
      ok = n > 0;
      if (ok) done += static_cast<std::size_t>(n);
    }
    ok = ok && ::fdatasync(fd) == 0;
    const bool clean = ok || (size >= 0 && ::ftruncate(fd, size) == 0);
    ::close(fd);
    if (!clean) log_warn() << "ScheduleMemory: cannot truncate a failed append to " << path;
    if (!ok) throw std::runtime_error("ScheduleMemory: append failed on " + path);
  });
}

// u64 fingerprints ride as decimal strings: api::Json keeps integers as
// int64, and the top bit of a fingerprint is meaningful.
std::string u64_str(std::uint64_t v) { return std::to_string(v); }

bool parse_u64(const api::Json* j, std::uint64_t& out) {
  if (j == nullptr || !j->is_string()) return false;
  const std::string& s = j->as_string();
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

api::Json entry_to_json(const MemoryEntry& e) {
  api::Json je = api::Json::object();
  je.set("program_fp", u64_str(e.program_fp));
  je.set("shape_fp", u64_str(e.shape_fp));
  je.set("speedup", e.predicted_speedup);
  je.set("evaluations", e.evaluations);
  je.set("method", e.method);
  je.set("hits", u64_str(e.hits));
  je.set("schedule", api::to_json(e.schedule));
  return je;
}

std::optional<MemoryEntry> entry_from_json(const api::Json& je) {
  MemoryEntry e;
  const api::Json* schedule = je.find("schedule");
  const api::Json* speedup = je.find("speedup");
  if (!parse_u64(je.find("program_fp"), e.program_fp) ||
      !parse_u64(je.find("shape_fp"), e.shape_fp) || schedule == nullptr ||
      speedup == nullptr || !speedup->is_number())
    return std::nullopt;
  api::Result<transforms::Schedule> s = api::schedule_from_json(*schedule);
  if (!s.ok()) return std::nullopt;
  e.schedule = std::move(*s);
  e.predicted_speedup = speedup->as_double();
  if (const api::Json* ev = je.find("evaluations"); ev != nullptr && ev->is_int())
    e.evaluations = ev->as_int();
  if (const api::Json* m = je.find("method"); m != nullptr && m->is_string())
    e.method = m->as_string();
  std::uint64_t hits = 0;
  if (parse_u64(je.find("hits"), hits)) e.hits = hits;
  return e;
}

}  // namespace

ScheduleMemory::ScheduleMemory(std::string path, obs::MetricsRegistry* metrics)
    : path_(std::move(path)) {
  if (metrics != nullptr) {
    hit_exact_ = &metrics->counter("tcm_schedule_memory_hits_total",
                                   "Schedule-memory lookups served", "kind=\"exact\"");
    hit_shape_ = &metrics->counter("tcm_schedule_memory_hits_total",
                                   "Schedule-memory lookups served", "kind=\"shape\"");
    miss_ = &metrics->counter("tcm_schedule_memory_misses_total",
                              "Schedule-memory lookups that ran a full search");
    size_gauge_ = &metrics->gauge("tcm_schedule_memory_entries",
                                  "Entries resident in the schedule memory");
  }
  load();
}

std::optional<MemoryEntry> ScheduleMemory::lookup(std::uint64_t program_fp) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(program_fp);
  if (it == entries_.end()) {
    ++misses_;
    if (miss_ != nullptr) miss_->inc();
    return std::nullopt;
  }
  ++it->second.hits;
  ++exact_hits_;
  if (hit_exact_ != nullptr) hit_exact_->inc();
  return it->second;
}

std::vector<transforms::Schedule> ScheduleMemory::warm_starts(std::uint64_t shape_fp,
                                                              std::uint64_t exclude_program_fp,
                                                              std::size_t max) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_shape_.find(shape_fp);
  if (it == by_shape_.end()) return {};
  std::vector<const MemoryEntry*> matches;
  for (std::uint64_t fp : it->second) {
    if (fp == exclude_program_fp) continue;
    auto e = entries_.find(fp);
    if (e != entries_.end()) matches.push_back(&e->second);
  }
  std::sort(matches.begin(), matches.end(), [](const MemoryEntry* a, const MemoryEntry* b) {
    return a->predicted_speedup > b->predicted_speedup;
  });
  if (matches.size() > max) matches.resize(max);
  std::vector<transforms::Schedule> out;
  out.reserve(matches.size());
  for (const MemoryEntry* m : matches) out.push_back(m->schedule);
  if (!out.empty()) {
    ++shape_hits_;
    if (hit_shape_ != nullptr) hit_shape_->inc();
  }
  return out;
}

void ScheduleMemory::store(MemoryEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t fp = entry.program_fp;
  if (!upsert_locked(std::move(entry))) return;
  ++stores_;
  if (size_gauge_ != nullptr) size_gauge_->set(static_cast<double>(entries_.size()));
  persist_locked(entries_.at(fp));
}

bool ScheduleMemory::upsert_locked(MemoryEntry entry) {
  auto it = entries_.find(entry.program_fp);
  if (it == entries_.end()) {
    by_shape_[entry.shape_fp].push_back(entry.program_fp);
    entries_.emplace(entry.program_fp, std::move(entry));
    return true;
  }
  // Keep the better schedule; always keep the accumulated hit count.
  if (entry.predicted_speedup <= it->second.predicted_speedup) return false;
  entry.hits = std::max(entry.hits, it->second.hits);
  it->second = std::move(entry);
  return true;
}

std::size_t ScheduleMemory::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

ScheduleMemoryStats ScheduleMemory::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ScheduleMemoryStats s;
  s.entries = entries_.size();
  s.exact_hits = exact_hits_;
  s.shape_hits = shape_hits_;
  s.misses = misses_;
  s.stores = stores_;
  return s;
}

void ScheduleMemory::load() {
  if (path_.empty() || !fs::exists(path_)) return;
  std::string text;
  try {
    text = support::with_retries(io_retry_options("read"), [&] {
      std::ifstream f(path_, std::ios::binary);
      if (!f) throw std::runtime_error("ScheduleMemory: cannot read " + path_);
      std::ostringstream out;
      out << f.rdbuf();
      return out.str();
    });
  } catch (const std::exception& e) {
    log_warn() << "ScheduleMemory: discarding unreadable file " << path_ << ": " << e.what();
    return;
  }
  const std::size_t header_end = std::min(text.find('\n'), text.size());
  api::Result<api::Json> parsed = api::Json::parse(std::string_view(text).substr(0, header_end));
  if (!parsed.ok()) {
    log_warn() << "ScheduleMemory: discarding corrupt file " << path_ << ": "
               << parsed.status().message();
    return;
  }
  const api::Json& header = *parsed;
  const api::Json* format = header.find("format");
  const api::Json* version = header.find("version");
  const api::Json* document = header.find("entries");
  const std::int64_t v = version != nullptr && version->is_int() ? version->as_int() : 0;
  const bool single_document =
      v == kDocumentVersion && document != nullptr && document->is_array();
  if (format == nullptr || !format->is_string() || format->as_string() != kFormat ||
      (v != kFormatVersion && !single_document)) {
    log_warn() << "ScheduleMemory: discarding file with unexpected header: " << path_;
    return;
  }
  std::size_t dropped = 0;
  auto replay = [&](const api::Json& je) {
    std::optional<MemoryEntry> e = entry_from_json(je);
    if (e) upsert_locked(std::move(*e));
    else ++dropped;
  };
  if (single_document) {
    for (const api::Json& je : document->as_array()) replay(je);
  } else {
    for (std::size_t begin = header_end + 1; begin < text.size();) {
      const std::size_t end = std::min(text.find('\n', begin), text.size());
      api::Result<api::Json> line =
          api::Json::parse(std::string_view(text).substr(begin, end - begin));
      if (line.ok()) replay(*line);
      else ++dropped;
      ++journal_lines_;
      begin = end + 1;
    }
  }
  if (dropped > 0)
    log_warn() << "ScheduleMemory: dropped " << dropped << " malformed entries from " << path_;
  if (size_gauge_ != nullptr) size_gauge_->set(static_cast<double>(entries_.size()));
  log_info() << "ScheduleMemory: restored " << entries_.size() << " entries from " << path_;
  // A clean journal is appended to as it is. Anything else — the old
  // document format, a dropped line, a missing final newline that the next
  // append would run into, or mostly superseded lines — is rewritten now.
  rewrite_due_ = single_document || dropped > 0 || text.back() != '\n' ||
                 journal_lines_ > 2 * entries_.size();
  if (!rewrite_due_) return;
  try {
    rewrite_locked();
  } catch (const std::exception& e) {
    log_warn() << "ScheduleMemory: compaction failed for " << path_ << ": " << e.what();
  }
}

void ScheduleMemory::persist_locked(const MemoryEntry& entry) {
  if (path_.empty()) return;
  try {
    if (rewrite_due_ || journal_lines_ + 1 > 2 * entries_.size()) {
      rewrite_locked();
    } else {
      std::string line = entry_to_json(entry).dump();
      line += '\n';
      append_line(path_, line);
      ++journal_lines_;
    }
  } catch (const std::exception& e) {
    // Losing persistence degrades the cache to in-memory; never fail a job
    // completion over it. The next store rewrites the whole file.
    rewrite_due_ = true;
    log_warn() << "ScheduleMemory: persist failed for " << path_ << ": " << e.what();
  }
}

void ScheduleMemory::rewrite_locked() {
  api::Json header = api::Json::object();
  header.set("format", kFormat);
  header.set("version", kFormatVersion);
  std::string content = header.dump();
  content += '\n';
  for (const auto& [fp, e] : entries_) {
    content += entry_to_json(e).dump();
    content += '\n';
  }
  atomic_write_file(path_, content);
  journal_lines_ = entries_.size();
  rewrite_due_ = false;
}

}  // namespace tcm::jobs
