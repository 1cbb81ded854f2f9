// Closed-loop /v1/predict traffic over keep-alive HTTP connections, the
// request pools it draws from, and the output check of its responses.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "ir/program.h"
#include "support/rng.h"
#include "transforms/schedule.h"

namespace perfbench {

struct PairInput {
  std::uint32_t program = 0;
  tcm::transforms::Schedule schedule;
  std::string json;  // wire encoding of the schedule
};

// Random programs with `per_program` distinct random schedules each; the
// schedules of program p are pairs[p * per_program, (p + 1) * per_program).
// No two programs are equal, so no two pairs are.
struct PredictPool {
  std::vector<tcm::ir::Program> programs;
  std::vector<std::string> program_json;
  std::vector<PairInput> pairs;
  int per_program = 0;
};
PredictPool make_pool(std::uint64_t seed, int programs, int per_program);

// How a client picks its next request.
enum class Mix {
  kRoundRobin,  // one schedule per request, walking the pool in order
  kHotBatch,    // one program with `batch` of its schedules, drawn at random
};

// A response kept for the output check.
struct RequestLog {
  std::vector<std::uint32_t> pairs;  // pool indices, in request order
  std::string response;
};

struct ClientLog {
  std::vector<OpSample> ops;     // every request, in order
  std::vector<RequestLog> kept;  // the seeded sample whose responses are checked
  std::int64_t bad_status = 0;   // transport failures and non-200 replies
  std::int64_t body_bytes = 0;
};

// Called on the client thread after each traced request, with the span id
// of the request's root span.
using AfterRequest = std::function<void(int client, std::uint64_t op, std::uint64_t root,
                                        const std::string& body,
                                        const std::vector<std::uint32_t>& pairs)>;

class PredictTraffic {
 public:
  PredictTraffic(const PredictPool& pool, Mix mix, int batch, std::uint64_t seed);

  std::string body_for(const std::vector<std::uint32_t>& pairs) const;

  // Runs `clients` closed-loop clients until `until`, or until `stop` turns
  // true. With a recorder, each request becomes a root span and `after`
  // runs after it.
  std::vector<ClientLog> run(int port, int clients, Clock::time_point until,
                             const std::atomic<bool>* stop, SpanRecorder* recorder,
                             const AfterRequest& after);

  // Sends `requests` requests from one client, in order; throws if one
  // fails. The timed traffic continues after them.
  void warm_up(int port, int requests);

 private:
  std::vector<std::uint32_t> next_request(tcm::Rng& rng);
  // Seeded choice of the responses to check: every request for one pair in
  // eight of a round-robin pool, one request in sixteen of hot batches.
  bool keep(const std::vector<std::uint32_t>& pairs, std::uint64_t draw) const;

  const PredictPool& pool_;
  const Mix mix_;
  const int batch_;
  const std::uint64_t seed_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> runs_{0};
};

struct CheckTally {
  std::int64_t requests = 0;
  std::int64_t failed = 0;    // requests with a bad status, body or value
  std::int64_t compared = 0;  // predictions compared bitwise to the reference
};

// Every request must have been answered 200; every kept response must hold
// one finite positive prediction per schedule, equal bitwise to
// ReferenceScorer for the model version that served it.
CheckTally check_predictions(const PredictPool& pool, const std::vector<ClientLog>& logs,
                             ReferenceScorer& scorer);

// Every request of the logs, and the mean request body size.
std::vector<OpSample> all_ops(const std::vector<ClientLog>& logs);
double mean_body_bytes(const std::vector<ClientLog>& logs);

}  // namespace perfbench
