#ifndef RWDT_SERVE_HTTP_SERVER_H_
#define RWDT_SERVE_HTTP_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace rwdt::serve {

/// One parsed HTTP/1.1 request: method, split target, lower-cased
/// headers, and the (possibly empty) body. This is the single HTTP
/// request representation in the tree — the admin endpoints and the
/// serving front end both consume it.
struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string path;    // "/v1/classify" (query string split off)
  std::string query;   // "lang=sparql" (without the '?'), may be empty
  std::string body;    // Content-Length bytes, already read

  /// Header names are lower-cased at parse time; values keep their case
  /// with surrounding whitespace trimmed.
  std::vector<std::pair<std::string, std::string>> headers;

  /// The value of header `name` (lower-case), or "" when absent.
  std::string_view Header(std::string_view name) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// Extra response headers (e.g. {"Retry-After", "1"}). Content-Type,
  /// Content-Length, and Connection are emitted by the server.
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

/// The value of `key` in a query string ("a=1&b=2"), or `fallback` when
/// absent. No %-decoding — our parameters are plain tokens.
std::string QueryParam(std::string_view query, std::string_view key,
                       std::string_view fallback = "");

/// A small, dependency-free blocking HTTP/1.1 server: one accept thread
/// feeds a bounded connection queue drained by a fixed handler pool.
/// This is the one hand-rolled HTTP stack in the tree — the admin
/// endpoints (AdminServer) and the classification front end
/// (ClassifyServer) are both built on it.
///
/// Supported: GET/POST routing by exact path, request bodies framed by
/// Content-Length (bounded by `max_body_bytes`, 413 beyond), HTTP/1.1
/// keep-alive (opt-out per server; requests beyond
/// `max_requests_per_connection` get `Connection: close`), and
/// per-connection socket timeouts. Chunked transfer encoding is
/// rejected with 501 — no client we serve needs it, and refusing keeps
/// the framing code obviously bounded.
///
/// Overload behavior is never silent: when the pending-connection queue
/// is full, the accept thread writes a minimal 503 with `Retry-After`
/// before closing, so every connection that reaches the kernel gets an
/// HTTP answer. (Higher layers add request-level shedding with 429 on
/// top of this — see serve::ClassifyServer.)
///
/// Lifecycle: construct, register routes with Handle(), Start(), and
/// eventually Stop() (or destroy). Stop is graceful: the listener
/// closes first, then queued and in-flight requests finish before the
/// handler threads join; keep-alive connections are closed after the
/// response in flight. Handlers must stay callable until Stop returns.
class HttpServer {
 public:
  struct Options {
    /// Defaults to loopback: both current users expose process
    /// internals; binding wider is an explicit decision.
    std::string bind_address = "127.0.0.1";
    /// 0 = kernel-assigned ephemeral port (tests); read back via port().
    uint16_t port = 0;
    unsigned handler_threads = 2;
    /// Accepted connections waiting for a handler; beyond this the
    /// accept thread sheds with a 503 + Retry-After response.
    size_t max_pending = 64;
    /// Per-connection socket read/write timeout. Bounds how long a
    /// silent client can pin a handler thread (and therefore how long
    /// Stop() can block).
    uint32_t io_timeout_ms = 5000;
    /// Request head (request line + headers) cap; 431 beyond.
    size_t max_head_bytes = 16 * 1024;
    /// Request body cap; 413 beyond (the oversized body is not read).
    size_t max_body_bytes = 1 << 20;  // 1 MiB
    /// Serve multiple requests per connection (HTTP/1.1 default). The
    /// admin server turns this off to keep its one-shot
    /// "read until EOF" scrape contract.
    bool keep_alive = true;
    /// Keep-alive budget per connection, then `Connection: close`.
    unsigned max_requests_per_connection = 1000;
  };

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(Options options);
  ~HttpServer();  // implies Stop()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers an exact route for `method` + `path` (before Start). A
  /// path with at least one route answers 405 (with `Allow`) for other
  /// methods; unknown paths answer 404.
  void Handle(std::string method, std::string path, Handler handler);

  /// Binds, listens (SO_REUSEADDR), and spawns the accept thread and
  /// handler pool. Fails with kResourceExhausted if the address is
  /// taken.
  Status Start();

  /// Graceful shutdown: stops accepting, drains queued + in-flight
  /// requests, joins all threads. Idempotent; called by the destructor.
  void Stop();

  /// The bound port (resolves Options::port == 0), 0 before Start.
  uint16_t port() const { return port_; }
  bool running() const;

  uint64_t requests_served() const;
  uint64_t connections_accepted() const;
  /// Connections answered 503 at the accept stage (queue full).
  uint64_t connections_shed() const;

  /// Marks quit as requested, releasing WaitForQuit. GET /quitquitquit
  /// (a built-in route) does the same from the wire.
  void RequestQuit();

  /// Blocks until quit is requested, Stop() runs, or `timeout_ms`
  /// elapses. Lets a process keep serving after its workload finishes
  /// with a remote, deterministic way to release it. Returns true if
  /// quit/stop arrived.
  bool WaitForQuit(uint32_t timeout_ms);

 private:
  void AcceptLoop();
  void HandlerLoop();
  void ServeConnection(int fd);
  void ServeConnectionInner(int fd);
  /// Serves one request already framed in `*buf`; returns false when
  /// the connection must close afterwards.
  bool ServeOneRequest(int fd, std::string* buf, size_t head_end,
                       unsigned served_on_connection);
  HttpResponse Dispatch(const HttpRequest& request);

  Options options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;

  // path -> (method -> handler)
  std::map<std::string, std::map<std::string, Handler>> routes_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::condition_variable quit_cv_;
  std::deque<int> pending_;  // accepted fds awaiting a handler
  std::vector<int> active_;  // fds currently inside ServeConnection
  bool started_ = false;
  bool stopping_ = false;
  bool quit_requested_ = false;
  uint64_t requests_served_ = 0;
  uint64_t connections_accepted_ = 0;
  uint64_t connections_shed_ = 0;

  std::thread accept_thread_;
  std::vector<std::thread> handler_threads_;
};

}  // namespace rwdt::serve

#endif  // RWDT_SERVE_HTTP_SERVER_H_
