// Persistent schedule-reuse memory (Meliora-style, arXiv 2006.09473).
//
// Autoscheduling is expensive (hundreds of model evaluations per program)
// and production workloads are repetitive: the same kernels come back
// compile after compile. The memory is a fingerprint-keyed map from program
// to the best schedule search ever found for it —
//
//   exact hit   fingerprint(program) matches: the remembered schedule is
//               returned instantly (job born DONE, reused=true); no search.
//   shape hit   shape_fingerprint(program) matches a different program:
//               same loop structure, different arithmetic. The remembered
//               schedule is legal for this program too, so it seeds the
//               beam (warm start) — search still runs but starts near a
//               known-good region.
//   miss        full search.
//
// Durability is an append-only journal: a header line
// {"format":"tcm-schedule-memory","version":2} followed by one JSON entry
// per line. A store appends its entry's line and fdatasyncs it under bounded
// retries, so a store that returns is durable and costs the same however
// many entries are remembered. Loading replays the lines; a later line for
// the same program wins under the upsert rule. A torn or garbled line (a
// crash mid-append) is dropped with a WARN and the entries around it are
// kept; a file whose header is bad is discarded with a WARN — losing the
// cache is benign, refusing to serve is not. The file is rewritten with only
// the live entries (stage → fsync → rename → fsync(dir)) when it is created,
// after a version-1 file (one JSON document, still read) or a dropped line
// was loaded, and when it holds more than twice as many entry lines as live
// entries. Hit counts reach disk with an entry's line and at those rewrites,
// so hits served since the last of them are lost on restart. Fingerprints
// are serialized as decimal strings because the JSON layer keeps integers in
// int64.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "transforms/schedule.h"

namespace tcm::jobs {

struct MemoryEntry {
  std::uint64_t program_fp = 0;
  std::uint64_t shape_fp = 0;
  transforms::Schedule schedule;
  double predicted_speedup = 0;
  std::int64_t evaluations = 0;  // evaluations the original search spent
  std::string method;            // "beam" | "mcts"
  std::uint64_t hits = 0;        // times served as an exact hit
};

struct ScheduleMemoryStats {
  std::size_t entries = 0;
  std::uint64_t exact_hits = 0;
  std::uint64_t shape_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
};

class ScheduleMemory {
 public:
  // Empty path = in-memory only (no persistence). `metrics` may be null;
  // otherwise hit/miss/size instruments are registered get-or-create.
  explicit ScheduleMemory(std::string path, obs::MetricsRegistry* metrics = nullptr);

  // Exact-fingerprint lookup; bumps the entry's hit count on success.
  std::optional<MemoryEntry> lookup(std::uint64_t program_fp);

  // Remembered schedules of *other* programs with this loop shape, best
  // first, capped at `max` — the beam warm-start set.
  std::vector<transforms::Schedule> warm_starts(std::uint64_t shape_fp,
                                                std::uint64_t exclude_program_fp,
                                                std::size_t max = 4);

  // Upsert: replaces an existing entry only when the new speedup is better.
  // Persists a kept entry (when configured) before returning.
  void store(MemoryEntry entry);

  std::size_t size() const;
  ScheduleMemoryStats stats() const;
  const std::string& path() const { return path_; }

 private:
  // The helpers below require mu_ held (load() runs from the constructor).
  void load();
  // Inserts or replaces under the upsert rule; false when `entry` is not
  // better than the remembered one.
  bool upsert_locked(MemoryEntry entry);
  void persist_locked(const MemoryEntry& entry);  // append, or rewrite when due
  void rewrite_locked();                          // throws on I/O failure

  const std::string path_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, MemoryEntry> entries_;  // by program_fp
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> by_shape_;
  std::uint64_t exact_hits_ = 0;
  std::uint64_t shape_hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t stores_ = 0;
  std::size_t journal_lines_ = 0;  // entry lines in the file
  bool rewrite_due_ = true;        // no clean journal on disk to append to
  obs::Counter* hit_exact_ = nullptr;
  obs::Counter* hit_shape_ = nullptr;
  obs::Counter* miss_ = nullptr;
  obs::Gauge* size_gauge_ = nullptr;
};

}  // namespace tcm::jobs
