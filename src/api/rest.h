// Binds the v1 HTTP surface onto an api::Service.
//
// Route table (all bodies JSON unless noted; errors use wire.h's Status
// body and the http_status() mapping):
//
//   GET  /healthz                 {"status":"serving","active_version":N}
//   GET  /metrics                 Prometheus text exposition of the
//                                 façade's obs::MetricsRegistry
//   GET  /v1/stats                StatsSnapshot
//   GET  /v1/models               {"active","previous","models":[ModelInfo]}
//   POST /v1/models/promote       {"version":N} -> {"active":N}
//   POST /v1/models/rollback      {} -> {"active":M}
//   POST /v1/predict              PredictRequest -> PredictResponse
//   POST /v1/search               SearchRequest -> 202 + job snapshot
//                                 (200 when answered from the schedule
//                                 memory: "reused":true, already DONE)
//   GET  /v1/search               {"jobs":[snapshot,...]} newest first
//   GET  /v1/search/{id}          job snapshot (poll until terminal)
//   GET  /v1/search/{id}/events   ndjson progress stream (chunked; one
//                                 line per evaluation batch, ends at a
//                                 terminal state)
//   DELETE /v1/search/{id}        cancel -> post-cancel snapshot
//
// The handlers are thin: decode JSON -> call the façade -> encode. All
// state, locking and error mapping live in api::Service; anything the
// handlers themselves might throw is caught by HttpServer::dispatch and
// mapped to 500, so no exception can cross the wire layer either.
#pragma once

#include "api/http_server.h"
#include "api/service.h"

namespace tcm::api {

// Registers every v1 route plus /healthz and /metrics on `server`. The
// service must outlive the server. Call before HttpServer::start().
void bind_routes(HttpServer& server, Service& service);

}  // namespace tcm::api
