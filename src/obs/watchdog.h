// Watchdog: heartbeat-based liveness for background threads.
//
// The serving stack runs a dozen threads that must never silently stop:
// batch workers (requests queue forever if they wedge), the HTTP acceptor
// and workers (the port goes dark), the autopilot poller (drift goes
// unanswered). Each registers a named heartbeat; the thread beats on every
// loop iteration, marks itself idle while blocked waiting for work (idle
// threads never stall — a keep-alive connection with no traffic is not an
// incident), and names its current activity while busy so a stall report
// says *what* it was doing, not just that it stopped.
//
// report() folds the heartbeat ages into one readiness verdict:
//   healthy   — nothing stalled
//   degraded  — a non-critical thread stalled (autopilot poller); serving
//               still works, /healthz stays 200 so load balancers keep
//               routing, but the state is surfaced
//   unhealthy — a critical thread stalled (batch worker, HTTP acceptor);
//               /healthz turns 503 with the per-thread reason
//
// beat()/set_busy()/set_idle() are wait-free (relaxed atomic stores) so they
// can sit on per-batch and per-request paths. Heartbeat ages are read off the
// process clock (support/clock.h).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace tcm::obs {

class Watchdog {
 public:
  // Opaque reference to a heartbeat slot. Slots live in a stable deque, so
  // the pointer stays valid (and beats stay lock-free) while other threads
  // register concurrently.
  struct Handle {
    void* slot = nullptr;
    bool valid() const { return slot != nullptr; }
  };

  // Registers a heartbeat; the thread starts idle. `stall_after` is how
  // long a *busy* heartbeat may age before the thread counts as stalled;
  // `critical` decides unhealthy vs degraded. Thread-safe.
  Handle register_thread(std::string name, std::chrono::milliseconds stall_after, bool critical);

  // Removes the heartbeat (clean thread exit); the slot is retired, not
  // reused, so stale handles can never alias a new thread.
  void unregister(Handle h);

  // Wait-free. set_busy names the current activity (must be a string
  // literal); set_idle marks the thread as blocked-waiting-for-work. All
  // three refresh the heartbeat.
  void beat(Handle h);
  void set_busy(Handle h, const char* activity);
  void set_idle(Handle h);

  enum class Health { kHealthy, kDegraded, kUnhealthy };
  static const char* health_name(Health h);  // "healthy"/"degraded"/"unhealthy"

  struct ThreadReport {
    std::string name;
    bool critical = false;
    bool idle = true;
    const char* activity = "";      // last set_busy() label
    double age_seconds = 0;         // since last beat
    double stall_after_seconds = 0;
    bool stalled = false;
  };
  struct Report {
    Health health = Health::kHealthy;
    std::vector<ThreadReport> threads;
    // "batch_worker_0 stalled for 12.4s in infer" — one clause per stalled
    // thread, "; "-joined; empty when healthy.
    std::string reason;
  };
  Report report() const;

  std::size_t registered_threads() const;

 private:
  struct Entry {
    std::string name;
    std::uint64_t stall_after_ns = 0;
    bool critical = false;
    std::atomic<bool> active{true};
    std::atomic<bool> idle{true};
    std::atomic<const char*> activity{""};
    std::atomic<std::uint64_t> last_beat_ns{0};
  };

  mutable std::mutex mu_;  // guards registration; beats are lock-free
  std::deque<Entry> entries_;  // deque: handles index into stable storage
};

}  // namespace tcm::obs
