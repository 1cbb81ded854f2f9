// The process clock: the one time source for every deadline, timeout and
// stage timestamp. Code reads it with support::now() and blocks on it with
// support::wait_until(); both follow steady_clock unless a ScopedClock has
// installed another Clock, which is how tests make time move only when they
// say so. Socket timeouts, retry backoff and failpoint delays stay real.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace tcm::support {

using TimePoint = std::chrono::steady_clock::time_point;

class Clock {
 public:
  virtual ~Clock() = default;
  virtual TimePoint now() const = 0;
  // Blocks on `cv` (`lock` held on entry and return) until a notify or until
  // now() reaches `deadline` (max(): notify only). May return spuriously.
  virtual std::cv_status wait_until(std::condition_variable& cv,
                                    std::unique_lock<std::mutex>& lock, TimePoint deadline) = 0;
};

TimePoint now();
std::cv_status wait_until(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                          TimePoint deadline);

// Waits until pred() or `deadline`; returns the final pred().
template <class Pred>
bool wait_until(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                TimePoint deadline, Pred pred) {
  while (!pred())
    if (wait_until(cv, lock, deadline) == std::cv_status::timeout) return pred();
  return true;
}

inline double seconds_since(TimePoint start) {
  return std::chrono::duration<double>(now() - start).count();
}

// Nanoseconds since the clock's epoch (trace spans, watchdog heartbeats).
inline std::uint64_t to_ns(TimePoint t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count());
}

// Installs `clock` for the guard's lifetime. Create it before anything that
// reads the clock and destroy it after them: no wait may outlive it.
class ScopedClock {
 public:
  explicit ScopedClock(Clock& clock);
  ~ScopedClock();
  ScopedClock(const ScopedClock&) = delete;
  ScopedClock& operator=(const ScopedClock&) = delete;

 private:
  Clock* const previous_;
};

}  // namespace tcm::support
