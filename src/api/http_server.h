// Dependency-free HTTP/1.1 server for the versioned serving surface.
//
// Scope: exactly what a model-serving endpoint on a trusted network needs —
// plain TCP (TLS terminates at the proxy, as with every in-cluster metrics/
// inference port), HTTP/1.1 with keep-alive and Expect: 100-continue,
// exact-path routing plus prefix routes for id-bearing paths
// (/v1/search/{id}), Content-Length bodies in, and either Content-Length or
// chunked transfer-encoding out (streaming responses for the search event
// stream). No chunked *request* bodies, no pipelining beyond sequential
// keep-alive, no compression.
//
// Hardening over the raw socket (all enforced before a handler runs):
//   - header block capped at max_header_bytes  -> 431, connection closed
//   - declared body capped at max_body_bytes   -> 413 + Status body; the
//     oversized payload is never read into memory
//   - truncated bodies (peer closes or stalls past io_timeout mid-body)
//     -> 400 / connection dropped, never a blocked worker
//   - malformed request lines / headers        -> 400 + Status body
//   - unknown path -> 404, known path with wrong method -> 405 (both with
//     a JSON Status body)
//   - a handler that throws is caught and mapped to 500 + Status body: the
//     no-exceptions-escape guarantee of the api boundary holds on the wire
//     layer too.
//
// Threading: one acceptor thread plus a fixed pool of connection workers;
// an open connection occupies its worker until it closes or times out
// (requests on one connection are sequential by HTTP semantics). Handlers
// therefore run concurrently up to num_threads and must be thread-safe —
// the rest.h handlers delegate straight to api::Service, whose contract
// covers that.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/status.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"

namespace tcm::api {

struct HttpRequest {
  std::string method;   // uppercase, e.g. "GET"
  std::string path;     // target without the query string
  std::string query;    // raw query string ("" when absent)
  std::string body;
  std::vector<std::pair<std::string, std::string>> headers;  // as received

  // Case-insensitive header lookup; nullptr when absent.
  const std::string* header(std::string_view name) const;
};

// Writes one chunk of a streaming response; returns false once the client
// is gone (the streamer should stop producing).
using ChunkWriter = std::function<bool(std::string_view)>;

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  // Extra response headers, emitted verbatim after Content-Type/Length.
  // The server itself appends X-Request-Id here (see serve_connection); on
  // the client side HttpClient fills it with everything received.
  std::vector<std::pair<std::string, std::string>> headers;
  // When set, the response goes out with Transfer-Encoding: chunked: the
  // headers are sent, then the streamer runs on the connection worker and
  // every write() becomes one chunk (empty writes are skipped — an empty
  // chunk would terminate the stream). `body` is ignored. The worker's
  // watchdog heartbeat is beaten per chunk, so a long-lived stream does not
  // read as a stalled worker.
  std::function<void(const ChunkWriter&)> streamer;

  // Case-insensitive header lookup; nullptr when absent.
  const std::string* header(std::string_view name) const;

  static HttpResponse json(int status, std::string body) {
    return {status, "application/json", std::move(body), {}, {}};
  }
  static HttpResponse text(int status, std::string body) {
    return {status, "text/plain; version=0.0.4; charset=utf-8", std::move(body), {}, {}};
  }
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

struct HttpServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; read the bound port back via port()
  int num_threads = 8;
  std::size_t max_header_bytes = 16 * 1024;
  std::size_t max_body_bytes = 4 * 1024 * 1024;
  // Per-read deadline; also bounds how long an idle keep-alive connection
  // may hold a worker.
  std::chrono::milliseconds io_timeout{5000};
  int backlog = 128;
  // A request whose handler takes at least this long gets one structured
  // WARN line (method, path, status, ms, request id). 0 disables.
  std::chrono::milliseconds slow_request_threshold{1000};
  // Registry for the wire-layer instruments: tcm_http_request_duration_seconds
  // (handler wall time, all routes), tcm_http_requests_total{route,method,code}
  // and tcm_http_connections_total. Share the service's registry so /metrics
  // renders everything in one pass; when null the server uses a private one.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  // When set, the acceptor and every connection worker register (critical)
  // heartbeats here. Share the service's watchdog so /healthz covers the
  // wire layer too. Workers are idle while parked on the queue or blocked
  // in keep-alive reads; only handler execution counts toward a stall.
  std::shared_ptr<obs::Watchdog> watchdog;
  std::chrono::milliseconds acceptor_stall_after{30000};
  std::chrono::milliseconds worker_stall_after{30000};
};

// Declares the tcm_http_requests_total family; its samples appear per
// (route, method, status class) on first hit, with route="other" for
// requests matching no route (transport-level rejects that never reach
// routing are not counted). The server declares it in its registry;
// api::Service does too, so the family is on /metrics before an HTTP front
// end is bound.
void declare_http_request_family(obs::MetricsRegistry& metrics);

class HttpServer {
 public:
  explicit HttpServer(HttpServerOptions options = {});
  ~HttpServer();  // stop() if still running

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Registers an exact-match route. Call before start(); method is
  // uppercase. Re-registering the same (method, path) replaces the handler.
  void route(std::string method, std::string path, HttpHandler handler);

  // Registers a prefix-match route (e.g. "/v1/search/" matches
  // /v1/search/{anything}). Exact routes win; prefix routes are tried in
  // registration order. The prefix is the path label in the route counters.
  void route_prefix(std::string method, std::string prefix, HttpHandler handler);

  // Binds, listens and spawns the acceptor + worker threads. Fails (never
  // throws) with UNAVAILABLE when the socket cannot be bound.
  Status start();

  // Stops accepting, closes the listener, drains the workers. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  // Port actually bound (resolves port 0); valid after start().
  int port() const { return bound_port_; }
  const HttpServerOptions& options() const { return options_; }

  // tcm_http_connections_total: connections accepted by servers sharing
  // this server's registry.
  std::uint64_t connections_accepted() const { return connections_->value(); }
  std::uint64_t requests_handled() const { return requests_.load(std::memory_order_relaxed); }

 private:
  struct RouteKey {
    std::string method, path;
    bool operator==(const RouteKey&) const = default;
  };
  // Counters for status classes 1xx..5xx of one route slot. Each is looked
  // up in the registry on the first hit of its (route, class) pair — the
  // only time counting takes the registry mutex — and cached here, so the
  // request path is one acquire load plus one relaxed fetch_add.
  using StatusCounters = std::array<std::atomic<obs::Counter*>, 5>;

  void accept_loop();
  void worker_loop(int index);
  void serve_connection(int fd, obs::Watchdog::Handle heartbeat);
  // `route_index` gets the matched route's index, or routes_.size() when no
  // route matched (404/405).
  HttpResponse dispatch(const HttpRequest& request, std::size_t& route_index) const;
  void count_request(std::size_t route_index, int status);

  HttpServerOptions options_;
  std::vector<std::pair<RouteKey, HttpHandler>> routes_;       // exact paths
  std::vector<std::pair<RouteKey, HttpHandler>> prefix_routes_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;  // options_.metrics or private
  obs::Counter* connections_;                      // tcm_http_connections_total
  obs::Histogram* request_duration_;               // tcm_http_request_duration_seconds
  // One slot per exact route, then per prefix route, then the unmatched
  // slot; sized at start(), when the route table freezes.
  std::unique_ptr<StatusCounters[]> status_counters_;

  int listen_fd_ = -1;
  int bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_fds_;
  // Connections currently owned by a worker; stop() shuts them down to
  // interrupt recv() immediately instead of waiting out io_timeout.
  std::vector<int> active_fds_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> next_request_id_{1};  // generated X-Request-Id suffix
};

}  // namespace tcm::api
