#include "support/clock.h"

#include <atomic>

namespace tcm::support {

namespace {
std::atomic<Clock*> g_clock{nullptr};  // null = steady_clock
}  // namespace

TimePoint now() {
  const Clock* clock = g_clock.load(std::memory_order_acquire);
  return clock != nullptr ? clock->now() : std::chrono::steady_clock::now();
}

std::cv_status wait_until(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                          TimePoint deadline) {
  if (Clock* clock = g_clock.load(std::memory_order_acquire))
    return clock->wait_until(cv, lock, deadline);
  if (deadline != TimePoint::max()) return cv.wait_until(lock, deadline);
  cv.wait(lock);
  return std::cv_status::no_timeout;
}

ScopedClock::ScopedClock(Clock& clock) : previous_(g_clock.exchange(&clock)) {}
ScopedClock::~ScopedClock() { g_clock.store(previous_); }

}  // namespace tcm::support
