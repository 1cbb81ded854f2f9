#include "api/rest.h"

#include <charconv>
#include <chrono>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "api/wire.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "support/clock.h"

namespace tcm::api {

namespace {

HttpResponse error_response(const Status& status) {
  return HttpResponse::json(http_status(status.code()), error_body(status).dump());
}

Result<Json> parse_body(const HttpRequest& request) {
  if (request.body.empty())
    return Status::invalid_argument("request body required");
  return Json::parse(request.body);
}

// X-Deadline-Ms: the client's remaining latency budget, relative because
// clocks differ across hosts. Converted on arrival to an absolute deadline on
// the process clock; a non-positive budget is already expired and sheds with
// 504, and a budget the clock cannot represent is rejected with 400.
Status read_deadline_header(const HttpRequest& request, serve::RequestDeadline* deadline) {
  const std::string* budget = request.header("X-Deadline-Ms");
  if (budget == nullptr) return Status();
  long long ms = 0;  // strict: optional '-', digits only, no overflow
  const char* end = budget->data() + budget->size();
  if (const auto [ptr, ec] = std::from_chars(budget->data(), end, ms);
      ec != std::errc() || ptr != end)
    return Status::invalid_argument("X-Deadline-Ms: integer milliseconds required");
  using Ticks = serve::RequestDeadline::duration;
  constexpr Ticks::rep kPerMs = Ticks(std::chrono::milliseconds(1)).count();
  Ticks::rep ticks = 0, at = 0;
  if (__builtin_mul_overflow(ms, kPerMs, &ticks) ||
      __builtin_add_overflow(support::now().time_since_epoch().count(), ticks, &at))
    return Status::invalid_argument("X-Deadline-Ms: budget out of range");
  *deadline = serve::RequestDeadline(Ticks(at));
  return Status();
}

}  // namespace

void bind_routes(HttpServer& server, Service& service) {
  Service* svc = &service;

  // Readiness: "serving" only while the façade is up AND no registered
  // background thread has stalled. A stalled critical thread (batch worker,
  // HTTP acceptor) means requests will queue forever — report 503 so load
  // balancers route away; a stalled non-critical thread (autopilot poller)
  // degrades the status string but keeps the 200.
  server.route("GET", "/healthz", [svc](const HttpRequest&) {
    const Status health = svc->healthy();
    if (!health.ok()) return error_response(health);
    const obs::Watchdog::Report report = svc->watchdog()->report();
    Json j = Json::object();
    const char* status = "serving";
    if (report.health == obs::Watchdog::Health::kDegraded) status = "degraded";
    if (report.health == obs::Watchdog::Health::kUnhealthy) status = "unhealthy";
    // Service-level degradation (an open autopilot circuit breaker) demotes
    // a clean watchdog verdict but never beats "unhealthy".
    const std::string degraded = svc->degraded_reason();
    std::string reason = report.reason;
    if (!degraded.empty()) {
      if (report.health == obs::Watchdog::Health::kHealthy) status = "degraded";
      reason = reason.empty() ? degraded : reason + "; " + degraded;
    }
    j.set("status", Json(status));
    j.set("active_version", Json(static_cast<std::int64_t>(svc->active_version())));
    if (!reason.empty()) {
      j.set("reason", Json(reason));
      Json stalled = Json::array();
      for (const obs::Watchdog::ThreadReport& t : report.threads)
        if (t.stalled) stalled.push_back(Json(t.name));
      j.set("stalled_threads", std::move(stalled));
    }
    const int code = report.health == obs::Watchdog::Health::kUnhealthy ? 503 : 200;
    return HttpResponse::json(code, j.dump());
  });

  // Prometheus exposition of the stack's one metrics registry. Wire-layer
  // families appear when the server shares that registry
  // (HttpServerOptions::metrics), as tcm_serve wires it.
  server.route("GET", "/metrics", [svc](const HttpRequest&) {
    return HttpResponse::text(200, svc->metrics()->render_prometheus());
  });

  // Chrome trace_event JSON of the recent sampled spans; load the body into
  // chrome://tracing or ui.perfetto.dev. Empty traceEvents until something
  // is sampled (--trace-sample > 0 on tcm_serve).
  server.route("GET", "/debug/traces", [](const HttpRequest&) {
    return HttpResponse{200, "application/json",
                        obs::Tracer::instance().export_chrome_json(), {}, {}};
  });

  // Flight recorder: the recent structured events (drift triggers, cycle
  // lifecycle, promotes/rollbacks, hot swaps, slow requests, 5xx), oldest
  // first. Same JSON the SIGTERM/crash dump writes to disk.
  server.route("GET", "/debug/events", [](const HttpRequest&) {
    return HttpResponse{200, "application/json", obs::EventLog::instance().render_json(), {},
                        {}};
  });

  // One JSON snapshot of everything an operator asks first; see
  // Service::debug_state().
  server.route("GET", "/debug/state", [svc](const HttpRequest&) {
    return HttpResponse::json(200, svc->debug_state().dump());
  });

  server.route("GET", "/v1/stats", [svc](const HttpRequest&) {
    return HttpResponse::json(200, to_json(svc->stats()).dump());
  });

  server.route("GET", "/v1/models", [svc](const HttpRequest&) {
    Result<std::vector<ModelInfo>> models = svc->models();
    if (!models.ok()) return error_response(models.status());
    Json list = Json::array();
    int active = 0, previous = 0;
    for (const ModelInfo& info : *models) {
      if (info.active) active = info.manifest.version;
      if (info.previous) previous = info.manifest.version;
      list.push_back(to_json(info));
    }
    Json j = Json::object();
    j.set("api_version", Json(static_cast<std::int64_t>(kApiVersion)));
    j.set("active", Json(static_cast<std::int64_t>(active)));
    j.set("previous", Json(static_cast<std::int64_t>(previous)));
    j.set("models", std::move(list));
    return HttpResponse::json(200, j.dump());
  });

  server.route("POST", "/v1/models/promote", [svc](const HttpRequest& request) {
    Result<Json> body = parse_body(request);
    if (!body.ok()) return error_response(body.status());
    const Json* version = body->find("version");
    if (version == nullptr || !version->is_int())
      return error_response(Status::invalid_argument("'version' (integer) required"));
    const std::int64_t requested = version->as_int();
    if (requested < 1 || requested > std::numeric_limits<int>::max())
      return error_response(Status::invalid_argument("'version' out of range"));
    const Status promoted = svc->promote(static_cast<int>(requested));
    if (!promoted.ok()) return error_response(promoted);
    Json j = Json::object();
    j.set("active", Json(version->as_int()));
    return HttpResponse::json(200, j.dump());
  });

  server.route("POST", "/v1/models/rollback", [svc](const HttpRequest&) {
    Result<int> restored = svc->rollback();
    if (!restored.ok()) return error_response(restored.status());
    Json j = Json::object();
    j.set("active", Json(static_cast<std::int64_t>(*restored)));
    return HttpResponse::json(200, j.dump());
  });

  // Retry-After advertised on 429 responses, whole seconds rounded up from
  // the admission policy (at least 1: "0" would invite an immediate retry
  // into the same overload).
  const long long retry_after_ms = service.options().serve.admission.retry_after.count();
  const long long retry_after_s = retry_after_ms <= 0 ? 1 : (retry_after_ms + 999) / 1000;

  server.route("POST", "/v1/predict", [svc, retry_after_s](const HttpRequest& request) {
    Result<Json> body = parse_body(request);
    if (!body.ok()) return error_response(body.status());
    Result<PredictRequest> decoded = predict_request_from_json(*body);
    if (!decoded.ok()) return error_response(decoded.status());
    if (Status st = read_deadline_header(request, &decoded->deadline); !st.ok())
      return error_response(st);
    Result<PredictResponse> response = svc->predict(*decoded);
    if (!response.ok()) {
      HttpResponse http = error_response(response.status());
      if (response.status().code() == StatusCode::kResourceExhausted)
        http.headers.emplace_back("Retry-After", std::to_string(retry_after_s));
      return http;
    }
    return HttpResponse::json(200, to_json(*response).dump());
  });

  // --- async autoscheduling jobs -------------------------------------------

  server.route("POST", "/v1/search", [svc, retry_after_s](const HttpRequest& request) {
    Result<Json> body = parse_body(request);
    if (!body.ok()) return error_response(body.status());
    Result<SearchRequest> decoded = search_request_from_json(*body);
    if (!decoded.ok()) return error_response(decoded.status());
    // Here the budget bounds the whole job (queue wait + search).
    if (Status st = read_deadline_header(request, &decoded->deadline); !st.ok())
      return error_response(st);
    Result<jobs::SearchJobInfo> submitted = svc->submit_search(*decoded);
    if (!submitted.ok()) {
      HttpResponse http = error_response(submitted.status());
      if (submitted.status().code() == StatusCode::kResourceExhausted)
        http.headers.emplace_back("Retry-After", std::to_string(retry_after_s));
      return http;
    }
    // A schedule-memory hit is complete on arrival (200, reused=true);
    // everything else was accepted for async processing (202 — poll
    // GET /v1/search/{id} or stream .../events).
    const int code = submitted->state == jobs::JobState::kDone ? 200 : 202;
    return HttpResponse::json(code, to_json(*submitted).dump());
  });

  server.route("GET", "/v1/search", [svc](const HttpRequest&) {
    Result<std::vector<jobs::SearchJobInfo>> list = svc->list_searches();
    if (!list.ok()) return error_response(list.status());
    Json arr = Json::array();
    for (const jobs::SearchJobInfo& info : *list) arr.push_back(to_json(info));
    Json j = Json::object();
    j.set("api_version", Json(static_cast<std::int64_t>(kApiVersion)));
    j.set("jobs", std::move(arr));
    return HttpResponse::json(200, j.dump());
  });

  // Poll one job, or stream its progress: /v1/search/{id}[/events].
  server.route_prefix("GET", "/v1/search/", [svc](const HttpRequest& request) {
    constexpr std::string_view kPrefix = "/v1/search/";
    std::string id = request.path.substr(kPrefix.size());
    constexpr std::string_view kEvents = "/events";
    const bool stream = id.size() > kEvents.size() &&
                        id.compare(id.size() - kEvents.size(), kEvents.size(), kEvents) == 0;
    if (stream) id.resize(id.size() - kEvents.size());
    if (id.empty() || id.find('/') != std::string::npos)
      return error_response(Status::not_found("no route " + request.path));
    Result<jobs::SearchJobInfo> info = svc->search_job(id);
    if (!info.ok()) return error_response(info.status());
    if (!stream) return HttpResponse::json(200, to_json(*info).dump());

    // ndjson over chunked transfer-encoding: one line per progress event,
    // ending once the job is terminal and its lines are drained. The
    // streamer runs on the connection worker; bounded waits inside
    // events_since keep each chunk write (and the worker's watchdog beat)
    // at most 250ms apart even when the search stalls.
    jobs::SearchJobManager* manager = svc->search_jobs();
    HttpResponse streaming;
    streaming.content_type = "application/x-ndjson";
    streaming.streamer = [manager, id](const ChunkWriter& write) {
      std::size_t cursor = 0;
      for (;;) {
        const jobs::SearchJobManager::EventBatch batch =
            manager->events_since(id, cursor, std::chrono::milliseconds(250));
        for (const std::string& line : batch.lines)
          if (!write(line + "\n")) return;  // client gone; stop producing
        cursor += batch.lines.size();
        if (batch.done && batch.lines.empty()) return;
      }
    };
    return streaming;
  });

  server.route_prefix("DELETE", "/v1/search/", [svc](const HttpRequest& request) {
    constexpr std::string_view kPrefix = "/v1/search/";
    const std::string id = request.path.substr(kPrefix.size());
    if (id.empty() || id.find('/') != std::string::npos)
      return error_response(Status::not_found("no route " + request.path));
    Result<jobs::SearchJobInfo> cancelled = svc->cancel_search(id);
    if (!cancelled.ok()) return error_response(cancelled.status());
    return HttpResponse::json(200, to_json(*cancelled).dump());
  });
}

}  // namespace tcm::api
