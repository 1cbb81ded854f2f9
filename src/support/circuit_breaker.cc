#include "support/circuit_breaker.h"

namespace tcm::support {

CircuitBreaker::CircuitBreaker(Options options) : options_(std::move(options)) {}

void CircuitBreaker::refresh_locked() const {
  if (state_ == State::kOpen && now() - opened_at_ >= options_.open_cooldown) {
    state_ = State::kHalfOpen;
    probe_in_flight_ = false;
  }
}

bool CircuitBreaker::allow() {
  std::lock_guard<std::mutex> lock(mu_);
  refresh_locked();
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      return false;
    case State::kHalfOpen:
      if (probe_in_flight_) return false;
      probe_in_flight_ = true;
      return true;
  }
  return false;
}

void CircuitBreaker::record_success() {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = State::kClosed;
  consecutive_failures_ = 0;
  probe_in_flight_ = false;
}

void CircuitBreaker::record_failure() {
  std::lock_guard<std::mutex> lock(mu_);
  ++consecutive_failures_;
  // A failed half-open probe re-opens immediately; in the closed state the
  // consecutive-failure threshold decides.
  if (state_ == State::kHalfOpen || consecutive_failures_ >= options_.failure_threshold) {
    if (state_ != State::kOpen) ++times_opened_;
    state_ = State::kOpen;
    opened_at_ = now();
    probe_in_flight_ = false;
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  refresh_locked();
  return state_;
}

const char* CircuitBreaker::state_name() const {
  switch (state()) {
    case State::kClosed: return "closed";
    case State::kOpen: return "open";
    case State::kHalfOpen: return "half_open";
  }
  return "closed";
}

int CircuitBreaker::consecutive_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return consecutive_failures_;
}

std::uint64_t CircuitBreaker::times_opened() const {
  std::lock_guard<std::mutex> lock(mu_);
  return times_opened_;
}

}  // namespace tcm::support
