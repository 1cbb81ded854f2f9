// ManualClock: a support::Clock whose time moves only when a test calls
// advance(). Install it with support::ScopedClock before creating the
// objects under test:
//
//   ManualClock clock;
//   support::ScopedClock use(clock);
//   ...
//   clock.advance(std::chrono::seconds(2));  // wakes every wait armed on it
//
// advance() wakes every support::wait_until() blocked on the clock with no
// lost wakeup: a waiter registers (and re-checks its deadline) under the
// clock's mutex before it blocks, and advance() notifies each waiter's
// condition variable while holding that waiter's own mutex. So advance()
// must not be called while holding a mutex that some clock waiter uses.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "support/clock.h"

namespace tcm {

class ManualClock : public support::Clock {
 public:
  ManualClock() : ticks_(std::chrono::steady_clock::now().time_since_epoch().count()) {}

  support::TimePoint now() const override {
    return support::TimePoint(support::TimePoint::duration(ticks_.load()));
  }

  void advance(std::chrono::nanoseconds step) {
    std::vector<Waiter*> woken;
    {
      std::lock_guard<std::mutex> guard(mu_);
      ticks_.fetch_add(std::chrono::duration_cast<support::TimePoint::duration>(step).count());
      for (Waiter* w : waiters_) ++w->notifying;
      woken = waiters_;
    }
    for (Waiter* w : woken) {
      {
        std::lock_guard<std::mutex> lock(*w->mu);
        w->cv->notify_all();
      }
      std::lock_guard<std::mutex> guard(mu_);
      --w->notifying;
      released_.notify_all();
    }
  }

  std::cv_status wait_until(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                            support::TimePoint deadline) override {
    Waiter self{&cv, lock.mutex()};
    {
      std::lock_guard<std::mutex> guard(mu_);
      if (now() >= deadline) return std::cv_status::timeout;
      waiters_.push_back(&self);
    }
    cv.wait(lock);
    // An advance() that picked this waiter up may still be about to lock its
    // mutex: wait it out with that mutex released, then re-take it.
    lock.unlock();
    {
      std::unique_lock<std::mutex> guard(mu_);
      waiters_.erase(std::find(waiters_.begin(), waiters_.end(), &self));
      released_.wait(guard, [&] { return self.notifying == 0; });
    }
    lock.lock();
    return now() >= deadline ? std::cv_status::timeout : std::cv_status::no_timeout;
  }

 private:
  struct Waiter {
    std::condition_variable* cv;
    std::mutex* mu;
    int notifying = 0;  // advance() calls still holding this waiter; guarded by mu_
  };

  std::atomic<support::TimePoint::rep> ticks_;
  std::mutex mu_;
  std::condition_variable released_;
  std::vector<Waiter*> waiters_;
};

}  // namespace tcm
