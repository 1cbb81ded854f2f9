#include "api/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "api/http_io.h"
#include "api/json.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "support/failpoint.h"
#include "support/log.h"

namespace tcm::api {

namespace {

constexpr const char* kRequestsFamily = "tcm_http_requests_total";
constexpr const char* kRequestsHelp = "HTTP requests handled, by route and status class";

using http_io::iequals;
using http_io::send_all;

std::string_view reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 100: return "Continue";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Status";
  }
}

// Wire-layer error body, same shape as wire.h's error_body but independent
// of it: the transport reports its own failures (431, 405, ...) without
// pulling the model-facing codec layer into the server.
std::string wire_error(int http, std::string_view code, std::string message) {
  Json err = Json::object();
  err.set("code", Json(std::string(code)));
  err.set("http", Json(static_cast<std::int64_t>(http)));
  err.set("message", Json(std::move(message)));
  Json body = Json::object();
  body.set("error", std::move(err));
  return body.dump();
}

bool send_response(int fd, const HttpResponse& response, bool keep_alive) {
  // Chaos site: delay simulates a slow/cut client link; an error action
  // drops the connection (returns false) instead of failing the process.
  try {
    TCM_FAILPOINT("http.slow_write");
  } catch (...) {
    return false;
  }
  std::string head;
  head.reserve(128);
  head += "HTTP/1.1 ";
  head += std::to_string(response.status);
  head += ' ';
  head += reason_phrase(response.status);
  head += "\r\nContent-Type: ";
  head += response.content_type;
  head += "\r\nContent-Length: ";
  head += std::to_string(response.body.size());
  for (const auto& [name, value] : response.headers) {
    head += "\r\n";
    head += name;
    head += ": ";
    head += value;
  }
  head += keep_alive ? "\r\nConnection: keep-alive" : "\r\nConnection: close";
  head += "\r\n\r\n";
  return send_all(fd, head) && send_all(fd, response.body);
}

// Sends a Transfer-Encoding: chunked response: headers, then one chunk per
// streamer write, then the terminating zero chunk. `on_chunk` runs after
// every successful chunk write (watchdog beat). Returns false when the
// client vanished mid-stream.
bool send_streaming_response(int fd, HttpResponse& response, bool keep_alive,
                             const std::function<void()>& on_chunk) {
  std::string head;
  head.reserve(192);
  head += "HTTP/1.1 ";
  head += std::to_string(response.status);
  head += ' ';
  head += reason_phrase(response.status);
  head += "\r\nContent-Type: ";
  head += response.content_type;
  head += "\r\nTransfer-Encoding: chunked";
  for (const auto& [name, value] : response.headers) {
    head += "\r\n";
    head += name;
    head += ": ";
    head += value;
  }
  head += keep_alive ? "\r\nConnection: keep-alive" : "\r\nConnection: close";
  head += "\r\n\r\n";
  if (!send_all(fd, head)) return false;

  bool alive = true;
  const ChunkWriter writer = [&](std::string_view chunk) {
    if (!alive) return false;
    if (chunk.empty()) return true;  // an empty chunk would end the stream
    char size_line[24];
    const int n = std::snprintf(size_line, sizeof size_line, "%zx\r\n", chunk.size());
    std::string frame;
    frame.reserve(static_cast<std::size_t>(n) + chunk.size() + 2);
    frame.append(size_line, static_cast<std::size_t>(n));
    frame.append(chunk);
    frame += "\r\n";
    alive = send_all(fd, frame);
    if (alive && on_chunk) on_chunk();
    return alive;
  };
  response.streamer(writer);
  if (!alive) return false;
  return send_all(fd, "0\r\n\r\n");
}

// Outcome of reading one request off the connection.
enum class ReadResult {
  kOk,
  kIdleClose,  // peer closed (or idled past the deadline) between requests
  kFatal,      // an error response was already sent (or the peer vanished);
               // close the connection
};

}  // namespace

const std::string* HttpRequest::header(std::string_view name) const {
  for (const auto& [key, value] : headers)
    if (iequals(key, name)) return &value;
  return nullptr;
}

const std::string* HttpResponse::header(std::string_view name) const {
  for (const auto& [key, value] : headers)
    if (iequals(key, name)) return &value;
  return nullptr;
}

void declare_http_request_family(obs::MetricsRegistry& metrics) {
  metrics.counter_family(kRequestsFamily, kRequestsHelp);
}

HttpServer::HttpServer(HttpServerOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics ? options_.metrics : std::make_shared<obs::MetricsRegistry>()),
      connections_(&metrics_->counter("tcm_http_connections_total", "HTTP connections accepted")),
      request_duration_(&metrics_->histogram(
          "tcm_http_request_duration_seconds",
          "HTTP request handling wall time (read to response sent) in seconds.", "",
          obs::exponential_buckets(1e-5, 2.0, 22))) {
  declare_http_request_family(*metrics_);
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::route(std::string method, std::string path, HttpHandler handler) {
  RouteKey key{std::move(method), std::move(path)};
  for (auto& [existing, existing_handler] : routes_)
    if (existing == key) {
      existing_handler = std::move(handler);
      return;
    }
  routes_.emplace_back(std::move(key), std::move(handler));
}

void HttpServer::route_prefix(std::string method, std::string prefix, HttpHandler handler) {
  RouteKey key{std::move(method), std::move(prefix)};
  for (auto& [existing, existing_handler] : prefix_routes_)
    if (existing == key) {
      existing_handler = std::move(handler);
      return;
    }
  prefix_routes_.emplace_back(std::move(key), std::move(handler));
}

Status HttpServer::start() {
  if (running_.load(std::memory_order_acquire))
    return Status::failed_precondition("HttpServer already running");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::unavailable("socket(): " + std::string(strerror(errno)));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::invalid_argument("invalid listen host '" + options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::unavailable("bind(" + options_.host + ":" + std::to_string(options_.port) +
                               "): " + err);
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, options_.backlog) != 0) {
    const std::string err = strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::unavailable("listen(): " + err);
  }

  // The route table is frozen now; one counter row per route (exact, then
  // prefix) plus the unmatched slot (404/405), all unresolved (null).
  status_counters_ =
      std::make_unique<StatusCounters[]>(routes_.size() + prefix_routes_.size() + 1);

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { accept_loop(); });
  workers_.reserve(static_cast<std::size_t>(options_.num_threads));
  for (int i = 0; i < options_.num_threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
  return Status();
}

void HttpServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    // Kick workers parked in recv() on idle keep-alive connections: a
    // half-open shutdown makes the pending read return 0 right away.
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  // Connections still queued but never picked up.
  std::lock_guard<std::mutex> lock(queue_mu_);
  for (int fd : pending_fds_) ::close(fd);
  pending_fds_.clear();
  running_.store(false, std::memory_order_release);
}

void HttpServer::accept_loop() {
  obs::Watchdog::Handle heartbeat;
  if (options_.watchdog != nullptr) {
    heartbeat = options_.watchdog->register_thread("http_acceptor",
                                                   options_.acceptor_stall_after,
                                                   /*critical=*/true);
    // Permanently busy: the acceptor's job is the 100ms poll cadence itself,
    // so a missed beat (wedged poll loop) must count as a stall even though
    // no connection is in flight.
    options_.watchdog->set_busy(heartbeat, "accept");
  }
  while (!stopping_.load(std::memory_order_acquire)) {
    if (options_.watchdog != nullptr) options_.watchdog->beat(heartbeat);
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stopping_
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    // Per-read/write deadlines: a stalled or vanished peer can hold a
    // worker for at most io_timeout, not forever.
    timeval tv{};
    const auto usec =
        std::chrono::duration_cast<std::chrono::microseconds>(options_.io_timeout).count();
    tv.tv_sec = static_cast<time_t>(usec / 1000000);
    tv.tv_usec = static_cast<suseconds_t>(usec % 1000000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    connections_->inc();
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      pending_fds_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
  if (options_.watchdog != nullptr) options_.watchdog->unregister(heartbeat);
}

void HttpServer::worker_loop(int index) {
  obs::Watchdog::Handle heartbeat;
  if (options_.watchdog != nullptr)
    heartbeat = options_.watchdog->register_thread("http_worker_" + std::to_string(index),
                                                   options_.worker_stall_after,
                                                   /*critical=*/true);
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !pending_fds_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (pending_fds_.empty()) break;  // stopping
      fd = pending_fds_.front();
      pending_fds_.pop_front();
      active_fds_.push_back(fd);
    }
    serve_connection(fd, heartbeat);
    if (options_.watchdog != nullptr) options_.watchdog->set_idle(heartbeat);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      std::erase(active_fds_, fd);
    }
    ::close(fd);
  }
  if (options_.watchdog != nullptr) options_.watchdog->unregister(heartbeat);
}

namespace {

// Reads and parses one request. On kFatal an error response (when one makes
// sense) has already been written.
ReadResult read_request(int fd, const HttpServerOptions& options, std::string& carry,
                        HttpRequest& out) {
  // --- header block --------------------------------------------------------
  std::size_t header_end;
  while ((header_end = carry.find("\r\n\r\n")) == std::string::npos) {
    if (carry.size() > options.max_header_bytes) {
      send_response(fd,
                    HttpResponse::json(431, wire_error(431, "RESOURCE_EXHAUSTED",
                                                       "header block exceeds " +
                                                           std::to_string(options.max_header_bytes) +
                                                           " bytes")),
                    false);
      return ReadResult::kFatal;
    }
    char buf[8192];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) {
      if (carry.empty()) return ReadResult::kIdleClose;
      send_response(
          fd, HttpResponse::json(400, wire_error(400, "INVALID_ARGUMENT", "truncated request")),
          false);
      return ReadResult::kFatal;
    }
    if (n < 0) {
      if ((errno == EAGAIN || errno == EWOULDBLOCK) && carry.empty())
        return ReadResult::kIdleClose;  // keep-alive idle deadline
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        send_response(fd,
                      HttpResponse::json(
                          408, wire_error(408, "DEADLINE_EXCEEDED", "timed out reading request")),
                      false);
      return ReadResult::kFatal;
    }
    carry.append(buf, static_cast<std::size_t>(n));
  }

  if (header_end > options.max_header_bytes) {
    // The whole block may arrive in one read; the streaming check above
    // only catches blocks that straddle reads.
    send_response(fd,
                  HttpResponse::json(431, wire_error(431, "RESOURCE_EXHAUSTED",
                                                     "header block exceeds " +
                                                         std::to_string(options.max_header_bytes) +
                                                         " bytes")),
                  false);
    return ReadResult::kFatal;
  }
  const std::string head = carry.substr(0, header_end);
  std::string rest = carry.substr(header_end + 4);

  // --- request line --------------------------------------------------------
  const std::size_t line_end = head.find("\r\n");
  const std::string request_line = head.substr(0, line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1 ||
      request_line.compare(sp2 + 1, 7, "HTTP/1.") != 0) {
    send_response(
        fd,
        HttpResponse::json(400, wire_error(400, "INVALID_ARGUMENT",
                                           "malformed request line '" + request_line + "'")),
        false);
    return ReadResult::kFatal;
  }
  out.method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t qmark = target.find('?');
  out.path = target.substr(0, qmark);
  out.query = qmark == std::string::npos ? "" : target.substr(qmark + 1);
  const bool http11 = request_line.compare(sp2 + 1, 8, "HTTP/1.1") == 0;

  // --- headers -------------------------------------------------------------
  out.headers.clear();
  std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string_view line(head.data() + pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      send_response(fd,
                    HttpResponse::json(
                        400, wire_error(400, "INVALID_ARGUMENT", "malformed header line")),
                    false);
      return ReadResult::kFatal;
    }
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t'))
      value.remove_prefix(1);
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t'))
      value.remove_suffix(1);
    out.headers.emplace_back(std::string(line.substr(0, colon)), std::string(value));
  }

  // --- body ----------------------------------------------------------------
  if (const std::string* te = out.header("Transfer-Encoding");
      te != nullptr && !iequals(*te, "identity")) {
    send_response(fd,
                  HttpResponse::json(
                      501, wire_error(501, "UNIMPLEMENTED", "chunked bodies are not supported")),
                  false);
    return ReadResult::kFatal;
  }
  std::size_t content_length = 0;
  if (const std::string* cl = out.header("Content-Length")) {
    std::uint64_t parsed = 0;
    const auto [p, ec] = std::from_chars(cl->data(), cl->data() + cl->size(), parsed);
    if (ec != std::errc() || p != cl->data() + cl->size()) {
      send_response(fd,
                    HttpResponse::json(
                        400, wire_error(400, "INVALID_ARGUMENT", "invalid Content-Length")),
                    false);
      return ReadResult::kFatal;
    }
    content_length = static_cast<std::size_t>(parsed);
  }
  if (content_length > options.max_body_bytes) {
    // Refuse before reading: the oversized payload never enters memory.
    send_response(fd,
                  HttpResponse::json(413, wire_error(413, "RESOURCE_EXHAUSTED",
                                                     "request body of " +
                                                         std::to_string(content_length) +
                                                         " bytes exceeds the limit of " +
                                                         std::to_string(options.max_body_bytes))),
                  false);
    return ReadResult::kFatal;
  }
  if (const std::string* expect = out.header("Expect");
      expect != nullptr && iequals(*expect, "100-continue")) {
    if (!send_all(fd, "HTTP/1.1 100 Continue\r\n\r\n")) return ReadResult::kFatal;
  }
  while (rest.size() < content_length) {
    char buf[16384];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      send_response(fd,
                    HttpResponse::json(
                        400, wire_error(400, "INVALID_ARGUMENT",
                                        "request body truncated (" + std::to_string(rest.size()) +
                                            " of " + std::to_string(content_length) + " bytes)")),
                    false);
      return ReadResult::kFatal;
    }
    rest.append(buf, static_cast<std::size_t>(n));
  }
  out.body = rest.substr(0, content_length);
  carry = rest.substr(content_length);  // pipelined next request, if any

  // HTTP/1.0 defaults to close; 1.1 to keep-alive. Stash the decision in a
  // pseudo-header so serve_connection need not re-derive it.
  const std::string* connection = out.header("Connection");
  const bool keep_alive =
      connection != nullptr ? iequals(*connection, "keep-alive") : http11;
  out.headers.emplace_back(":keep-alive", keep_alive ? "1" : "0");
  return ReadResult::kOk;
}

}  // namespace

void HttpServer::serve_connection(int fd, obs::Watchdog::Handle heartbeat) {
  std::string carry;
  while (!stopping_.load(std::memory_order_acquire)) {
    HttpRequest request;
    // The worker is idle while blocked reading (an idle keep-alive
    // connection legitimately parks here for io_timeout at a time); only
    // handler execution below counts toward a stall.
    if (options_.watchdog != nullptr) options_.watchdog->set_idle(heartbeat);
    const ReadResult read = read_request(fd, options_, carry, request);
    if (read != ReadResult::kOk) return;
    if (options_.watchdog != nullptr) options_.watchdog->set_busy(heartbeat, "handler");
    requests_.fetch_add(1, std::memory_order_relaxed);
    const std::string* ka = request.header(":keep-alive");
    const bool keep_alive = ka != nullptr && *ka == "1";

    // The request id is the client's X-Request-Id when it sent one (so the
    // caller can correlate its own logs with ours), else generated; either
    // way it is echoed on the response and labels the request's trace.
    std::string request_id;
    if (const std::string* rid = request.header("X-Request-Id"); rid != nullptr && !rid->empty()) {
      request_id = *rid;
    } else {
      request_id = "req-" + std::to_string(next_request_id_.fetch_add(1, std::memory_order_relaxed));
    }
    const std::uint64_t trace_id = obs::Tracer::instance().sample_request();
    obs::TraceContext trace_ctx(trace_id);  // handlers inherit via thread-local
    if (trace_id != 0) obs::Tracer::instance().set_label(trace_id, request_id);

    const auto start = std::chrono::steady_clock::now();
    std::size_t route_index = routes_.size() + prefix_routes_.size();
    HttpResponse response;
    {
      obs::ScopedSpan span("http.request", trace_id);
      response = dispatch(request, route_index);
    }
    const double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                               .count();
    request_duration_->observe(elapsed);
    count_request(route_index, response.status);
    if (response.status >= 500) {
      obs::EventLog::instance().emit(
          "http_5xx", "error",
          request.method + " " + request.path + " status=" + std::to_string(response.status) +
              " request_id=" + request_id,
          trace_id);
    }
    if (options_.slow_request_threshold.count() > 0 &&
        elapsed >= std::chrono::duration<double>(options_.slow_request_threshold).count()) {
      log_warn() << "slow request" << kv("method", request.method) << kv("path", request.path)
                 << kv("status", response.status) << kv("ms", elapsed * 1e3)
                 << kv("request_id", request_id) << kv("trace_id", trace_id);
      obs::EventLog::instance().emit(
          "slow_request", "warn",
          request.method + " " + request.path + " ms=" + std::to_string(elapsed * 1e3) +
              " request_id=" + request_id,
          trace_id);
    }
    response.headers.emplace_back("X-Request-Id", std::move(request_id));
    if (response.streamer) {
      const std::function<void()> beat = options_.watchdog != nullptr
                                             ? std::function<void()>([this, heartbeat] {
                                                 options_.watchdog->beat(heartbeat);
                                               })
                                             : std::function<void()>();
      if (!send_streaming_response(fd, response, keep_alive, beat)) return;
    } else {
      if (!send_response(fd, response, keep_alive)) return;
    }
    if (!keep_alive) return;
  }
}

HttpResponse HttpServer::dispatch(const HttpRequest& request, std::size_t& route_index) const {
  bool path_known = false;
  route_index = routes_.size() + prefix_routes_.size();  // unmatched slot
  const auto run = [&](const HttpHandler& handler) {
    try {
      return handler(request);
    } catch (const std::exception& e) {
      log_warn() << "handler " << request.method << " " << request.path << " threw: " << e.what();
      return HttpResponse::json(500, wire_error(500, "INTERNAL", e.what()));
    } catch (...) {
      return HttpResponse::json(500, wire_error(500, "INTERNAL", "unknown handler exception"));
    }
  };
  for (std::size_t r = 0; r < routes_.size(); ++r) {
    const auto& [key, handler] = routes_[r];
    if (key.path != request.path) continue;
    path_known = true;
    if (key.method != request.method) continue;
    route_index = r;
    return run(handler);
  }
  for (std::size_t r = 0; r < prefix_routes_.size(); ++r) {
    const auto& [key, handler] = prefix_routes_[r];
    if (request.path.compare(0, key.path.size(), key.path) != 0) continue;
    path_known = true;
    if (key.method != request.method) continue;
    route_index = routes_.size() + r;
    return run(handler);
  }
  if (path_known)
    return HttpResponse::json(405, wire_error(405, "INVALID_ARGUMENT",
                                              "method " + request.method + " not allowed on " +
                                                  request.path));
  return HttpResponse::json(
      404, wire_error(404, "NOT_FOUND", "no route for " + request.method + " " + request.path));
}

void HttpServer::count_request(std::size_t route_index, int status) {
  const int status_class = status / 100;
  if (status_class < 1 || status_class > 5) return;
  std::atomic<obs::Counter*>& slot =
      status_counters_[route_index][static_cast<std::size_t>(status_class - 1)];
  obs::Counter* counter = slot.load(std::memory_order_acquire);
  if (counter == nullptr) {
    // First hit of this (route, class): get-or-create, so racing workers
    // resolve the same counter and either store is correct.
    const RouteKey unmatched{"other", "other"};
    const RouteKey& key = route_index < routes_.size() ? routes_[route_index].first
                          : route_index < routes_.size() + prefix_routes_.size()
                              ? prefix_routes_[route_index - routes_.size()].first
                              : unmatched;
    counter = &metrics_->counter(kRequestsFamily, kRequestsHelp,
                                 "route=\"" + key.path + "\",method=\"" + key.method +
                                     "\",code=\"" + std::to_string(status_class) + "xx\"");
    slot.store(counter, std::memory_order_release);
  }
  counter->inc();
}

}  // namespace tcm::api
