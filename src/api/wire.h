// Versioned request/response surface of tcm::api (wire format v1).
//
// These structs are the façade's vocabulary: in-process callers pass them to
// api::Service directly, HTTP callers exchange their JSON encodings. The
// JSON layout is part of the v1 contract — fields may be *added*, never
// renamed or re-typed; a breaking change mints /v2 alongside /v1 instead of
// mutating this file's meaning. A request carrying "api_version" other than
// kApiVersion is rejected with INVALID_ARGUMENT.
//
// Encodings (writers omit default-valued optional fields):
//
//   Program    {"name", "buffers":[{"name","dims","input"}],
//               "loops":[{"iter","extent","parent","body":[["loop",i]|["comp",i]],
//                         "parallel","vector_width","unroll",
//                         "tail_of","orig_extent",
//                         "skew_of","skew_factor","skew_is_sum","tags":{...}}],
//               "comps":[{"name","store":ACCESS,"rhs":EXPR,"reduction"}],
//               "roots":[...]}
//              Buffer/loop/comp ids are their array positions; Computation
//              loop_id is derived from the tree, not transmitted. Multi-root
//              programs list every top-level nest in "roots", in textual
//              order.
//   ACCESS     {"buffer":id,"depth":n,"rows":[[c..cn,const],...]}  (rank rows)
//   EXPR       {"const":v} | {"load":ACCESS}
//              | {"op":"add|sub|mul|div|max|min","lhs":EXPR,"rhs":EXPR}
//   Schedule   {"fuse":[{"a","b","depth"}],
//               "skew":[{"comp","level","factor"}],
//               "unimodular":[{"comp","level","coeffs":[...]}],  (4 or 9 coeffs,
//                 a row-major 2x2 or 3x3 matrix with |det| == 1)
//               "interchange":[{"comp","a","b"}],
//               "tile":[{"comp","level","sizes"}],"unroll":[{"comp","factor"}],
//               "parallel":[{"comp","level"}],"vectorize":[{"comp","width"}]}
//   Predict    request  {"program":PROGRAM, "schedule":SCHEDULE}
//                    or {"program":PROGRAM, "schedules":[SCHEDULE,...]}
//              response {"api_version":1,
//                        "predictions":[{"speedup":s,"model_version":v},...]}
//   Search     request  {"program":PROGRAM, "method":"beam"|"mcts",
//                        "beam_width":n, "iterations":n}  (deadline rides the
//                        X-Deadline-Ms header, like /v1/predict)
//              job      {"job_id","state","method","reused","warm_started",
//                        "progress","evaluations","best_speedup",
//                        "baseline_speedup","wall_seconds",
//                        "program_fingerprint" (decimal string; u64 exceeds
//                        JSON's interoperable int range),"schedule":SCHEDULE
//                        [,"error"]}
//   Error body {"error":{"code":"INVALID_ARGUMENT","http":400,"message":"..."}}
//
// Speedups are serialized with shortest-round-trip double formatting
// (api/json.h), so HTTP predictions are bitwise-identical to the in-process
// futures API.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/json.h"
#include "api/status.h"
#include "ir/program.h"
#include "jobs/job_manager.h"
#include "jobs/search_job.h"
#include "registry/model_registry.h"
#include "serve/drift_monitor.h"
#include "serve/prediction_service.h"
#include "transforms/schedule.h"

namespace tcm::api {

inline constexpr int kApiVersion = 1;

struct PredictRequest {
  ir::Program program;
  std::vector<transforms::Schedule> schedules;  // >= 1
  // Absolute deadline for the whole request; expired work is shed with
  // DEADLINE_EXCEEDED instead of served late. Not part of the JSON encoding:
  // HTTP callers send a *relative* X-Deadline-Ms header (an absolute
  // process-clock point is meaningless across processes) which rest.cc
  // converts on arrival; in-process callers set this directly.
  serve::RequestDeadline deadline = serve::kNoDeadline;
};

struct PredictResponse {
  struct Item {
    double speedup = 0;
    int model_version = 0;
  };
  std::vector<Item> predictions;  // one per requested schedule, in order
};

// POST /v1/search body. Like PredictRequest, the deadline is not part of the
// JSON encoding: HTTP callers send a relative X-Deadline-Ms header which
// rest.cc converts to an absolute point on arrival.
struct SearchRequest {
  ir::Program program;
  jobs::SearchMethod method = jobs::SearchMethod::kBeam;
  int beam_width = 4;        // beam method only
  int mcts_iterations = 48;  // mcts method only ("iterations" on the wire)
  serve::RequestDeadline deadline = serve::kNoDeadline;
};

// One registry version plus its lifecycle role.
struct ModelInfo {
  registry::ModelManifest manifest;
  bool active = false;    // currently receiving traffic
  bool previous = false;  // the rollback target
};

struct AutopilotStats {
  bool enabled = false;
  std::uint64_t polls = 0;
  std::uint64_t cycles = 0;          // successful retraining cycles
  std::uint64_t triggers = 0;        // drift triggers (incl. failed cycles)
  std::uint64_t cycle_failures = 0;  // cycles that threw (swallowed + recorded)
  serve::DriftReport last;           // most recent observation
};

struct FeedbackStats {
  bool enabled = false;
  std::uint64_t offered = 0;
  std::uint64_t sampled = 0;
  std::size_t buffered = 0;  // samples currently in the reservoir
};

struct SearchStats {
  bool enabled = false;
  jobs::SearchJobStats jobs;
};

struct StatsSnapshot {
  serve::ServeStats serve;
  int active_version = 0;
  int previous_version = 0;
  double uptime_seconds = 0;
  AutopilotStats autopilot;
  FeedbackStats feedback;
  SearchStats search;
};

// --- codecs ----------------------------------------------------------------
// Decoders validate types/ranges and (for programs) run Program::validate();
// every failure is INVALID_ARGUMENT with a path-ish message. Encoders cannot
// fail.

Json to_json(const ir::Program& program);
Result<ir::Program> program_from_json(const Json& j);

Json to_json(const transforms::Schedule& schedule);
Result<transforms::Schedule> schedule_from_json(const Json& j);

Result<PredictRequest> predict_request_from_json(const Json& j);
Json to_json(const PredictResponse& response);

Result<SearchRequest> search_request_from_json(const Json& j);
Json to_json(const jobs::SearchJobInfo& info);

Json to_json(const ModelInfo& info);
Json to_json(const StatsSnapshot& stats);

// {"error":{...}} body for a non-OK status.
Json error_body(const Status& status);

}  // namespace tcm::api
