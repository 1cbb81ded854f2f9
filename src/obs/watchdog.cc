#include "obs/watchdog.h"

#include <cstdio>

#include "support/clock.h"

namespace tcm::obs {

Watchdog::Handle Watchdog::register_thread(std::string name,
                                           std::chrono::milliseconds stall_after, bool critical) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_.emplace_back();
  e.name = std::move(name);
  e.stall_after_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stall_after).count());
  e.critical = critical;
  e.last_beat_ns.store(support::to_ns(support::now()), std::memory_order_relaxed);
  return Handle{&e};
}

void Watchdog::unregister(Handle h) {
  if (!h.valid()) return;
  static_cast<Entry*>(h.slot)->active.store(false, std::memory_order_relaxed);
}

void Watchdog::beat(Handle h) {
  if (!h.valid()) return;
  static_cast<Entry*>(h.slot)->last_beat_ns.store(support::to_ns(support::now()),
                                                  std::memory_order_relaxed);
}

void Watchdog::set_busy(Handle h, const char* activity) {
  if (!h.valid()) return;
  Entry& e = *static_cast<Entry*>(h.slot);
  e.activity.store(activity, std::memory_order_relaxed);
  e.idle.store(false, std::memory_order_relaxed);
  e.last_beat_ns.store(support::to_ns(support::now()), std::memory_order_relaxed);
}

void Watchdog::set_idle(Handle h) {
  if (!h.valid()) return;
  Entry& e = *static_cast<Entry*>(h.slot);
  e.idle.store(true, std::memory_order_relaxed);
  e.last_beat_ns.store(support::to_ns(support::now()), std::memory_order_relaxed);
}

const char* Watchdog::health_name(Health h) {
  switch (h) {
    case Health::kHealthy: return "healthy";
    case Health::kDegraded: return "degraded";
    case Health::kUnhealthy: return "unhealthy";
  }
  return "?";
}

Watchdog::Report Watchdog::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  Report r;
  const std::uint64_t now = support::to_ns(support::now());
  for (const Entry& e : entries_) {
    if (!e.active.load(std::memory_order_relaxed)) continue;
    ThreadReport t;
    t.name = e.name;
    t.critical = e.critical;
    t.idle = e.idle.load(std::memory_order_relaxed);
    t.activity = e.activity.load(std::memory_order_relaxed);
    const std::uint64_t beat = e.last_beat_ns.load(std::memory_order_relaxed);
    const std::uint64_t age = now > beat ? now - beat : 0;
    t.age_seconds = static_cast<double>(age) * 1e-9;
    t.stall_after_seconds = static_cast<double>(e.stall_after_ns) * 1e-9;
    t.stalled = !t.idle && age > e.stall_after_ns;
    if (t.stalled) {
      if (!r.reason.empty()) r.reason += "; ";
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s stalled for %.1fs%s%s", t.name.c_str(), t.age_seconds,
                    *t.activity != '\0' ? " in " : "", t.activity);
      r.reason += buf;
      if (e.critical) {
        r.health = Health::kUnhealthy;
      } else if (r.health == Health::kHealthy) {
        r.health = Health::kDegraded;
      }
    }
    r.threads.push_back(std::move(t));
  }
  return r;
}

std::size_t Watchdog::registered_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Entry& e : entries_)
    if (e.active.load(std::memory_order_relaxed)) ++n;
  return n;
}

}  // namespace tcm::obs
