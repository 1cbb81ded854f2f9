// Closed / open / half-open circuit breaker.
//
// Guards a repeatedly-attempted operation (here: continual-learning cycles)
// against a persistently failing dependency. In the closed state every
// attempt is allowed; `failure_threshold` *consecutive* failures trip the
// breaker open, after which allow() refuses until `open_cooldown` elapses.
// Then the breaker goes half-open: exactly one probe attempt is admitted —
// success closes the breaker, failure re-opens it (restarting the
// cooldown). This converts a broken trainer/registry from a retry storm
// burning compute every poll into one cheap probe per cooldown, with the
// state visible on /debug/state and /healthz.
//
// Thread-safe. The cooldown runs on the process clock (support/clock.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>

#include "support/clock.h"

namespace tcm::support {

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  struct Options {
    int failure_threshold = 3;  // consecutive failures that open the breaker
    std::chrono::milliseconds open_cooldown{60000};  // open -> half-open
  };

  explicit CircuitBreaker(Options options);

  // True when an attempt may proceed. In the open state this flips to
  // half-open once the cooldown has elapsed and admits exactly one probe;
  // further calls refuse until that probe reports back.
  bool allow();

  // Report the outcome of an allowed attempt.
  void record_success();
  void record_failure();

  State state() const;
  const char* state_name() const;  // "closed" / "open" / "half_open"

  int consecutive_failures() const;
  std::uint64_t times_opened() const;  // closed/half-open -> open transitions

 private:
  // Requires mu_ held: open -> half-open promotion when the cooldown passed.
  // Const because the read-only observers (state()) also perform it — the
  // promotion is driven by the clock, not by an API call.
  void refresh_locked() const;

  const Options options_;
  mutable std::mutex mu_;
  mutable State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  std::uint64_t times_opened_ = 0;
  mutable bool probe_in_flight_ = false;  // half-open: one probe admitted
  TimePoint opened_at_{};
};

}  // namespace tcm::support
