#include "serve/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>

#include "obs/log.h"

namespace rwdt::serve {
namespace {

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Content Too Large";
    case 422:
      return "Unprocessable Content";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

void SetSocketTimeout(int fd, uint32_t ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string RenderResponse(const HttpResponse& response, bool close) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    ReasonPhrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  for (const auto& [name, value] : response.extra_headers) {
    out += name + ": " + value + "\r\n";
  }
  out += close ? "Connection: close\r\n\r\n" : "Connection: keep-alive\r\n\r\n";
  out += response.body;
  return out;
}

/// Sends a complete minimal response and returns false (the caller's
/// "close this connection" convention).
bool SendErrorAndClose(int fd, int status, std::string_view body,
                       std::vector<std::pair<std::string, std::string>>
                           extra_headers = {}) {
  HttpResponse resp;
  resp.status = status;
  resp.body = body;
  resp.extra_headers = std::move(extra_headers);
  SendAll(fd, RenderResponse(resp, /*close=*/true));
  return false;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses the request head in `head` (request line + header lines, no
/// trailing CRLFCRLF) into `*request`. Returns false on a malformed
/// request line or header.
bool ParseRequestHead(std::string_view head, HttpRequest* request) {
  const size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 = sp1 == std::string_view::npos
                         ? std::string_view::npos
                         : request_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return false;
  request->method = std::string(request_line.substr(0, sp1));
  std::string target(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  const size_t qmark = target.find('?');
  if (qmark != std::string::npos) {
    request->query = target.substr(qmark + 1);
    target.resize(qmark);
  }
  request->path = std::move(target);

  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    request->headers.emplace_back(ToLower(Trim(line.substr(0, colon))),
                                  std::string(Trim(line.substr(colon + 1))));
  }
  return true;
}

}  // namespace

std::string_view HttpRequest::Header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return {};
}

std::string QueryParam(std::string_view query, std::string_view key,
                       std::string_view fallback) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view pair = query.substr(pos, amp - pos);
    pos = amp + 1;
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      if (pair == key) return "";
      continue;
    }
    if (pair.substr(0, eq) == key) return std::string(pair.substr(eq + 1));
  }
  return std::string(fallback);
}

HttpServer::HttpServer(Options options) : options_(std::move(options)) {
  if (options_.handler_threads == 0) options_.handler_threads = 1;
  if (options_.max_pending == 0) options_.max_pending = 1;
  if (options_.max_requests_per_connection == 0) {
    options_.max_requests_per_connection = 1;
  }
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(std::string method, std::string path,
                        Handler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  routes_[std::move(path)][std::move(method)] = std::move(handler);
}

Status HttpServer::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return Status::InvalidArgument("http server already started");
  }

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    close(fd);
    return Status(Code::kResourceExhausted,
                  "cannot bind http server to " + options_.bind_address + ":" +
                      std::to_string(options_.port) + ": " +
                      std::strerror(err));
  }
  if (listen(fd, 64) != 0) {
    const int err = errno;
    close(fd);
    return Status::Internal(std::string("listen(): ") + std::strerror(err));
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  std::lock_guard<std::mutex> lock(mu_);
  listen_fd_ = fd;
  started_ = true;
  stopping_ = false;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  handler_threads_.reserve(options_.handler_threads);
  for (unsigned i = 0; i < options_.handler_threads; ++i) {
    handler_threads_.emplace_back([this] { HandlerLoop(); });
  }
  RWDT_LOG(INFO) << "http server listening on http://"
                 << options_.bind_address << ":" << port_ << " ("
                 << routes_.size() << " routes)";
  return Status::Ok();
}

void HttpServer::Stop() {
  std::thread accept_thread;
  std::vector<std::thread> handler_threads;
  int listen_fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
    listen_fd = listen_fd_;
    listen_fd_ = -1;
    accept_thread = std::move(accept_thread_);
    handler_threads = std::move(handler_threads_);
    handler_threads_.clear();
  }
  // Unblock accept(); handlers keep draining `pending_` until empty.
  if (listen_fd >= 0) {
    shutdown(listen_fd, SHUT_RDWR);
    close(listen_fd);
  }
  // Nudge idle keep-alive connections: shutting down the read side makes
  // their blocking recv return immediately instead of waiting out the
  // io timeout. A request mid-flight still completes — only the wait for
  // the *next* request on the connection is cut short.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int fd : active_) shutdown(fd, SHUT_RD);
  }
  queue_cv_.notify_all();
  quit_cv_.notify_all();
  if (accept_thread.joinable()) accept_thread.join();
  for (std::thread& t : handler_threads) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = false;
  }
  RWDT_LOG(INFO) << "http server on port " << port_ << " stopped after "
                 << requests_served_ << " requests";
}

bool HttpServer::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return started_ && !stopping_;
}

uint64_t HttpServer::requests_served() const {
  std::lock_guard<std::mutex> lock(mu_);
  return requests_served_;
}

uint64_t HttpServer::connections_accepted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connections_accepted_;
}

uint64_t HttpServer::connections_shed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connections_shed_;
}

void HttpServer::RequestQuit() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    quit_requested_ = true;
  }
  quit_cv_.notify_all();
}

bool HttpServer::WaitForQuit(uint32_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  quit_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                    [this] { return quit_requested_ || stopping_; });
  return quit_requested_ || stopping_;
}

void HttpServer::AcceptLoop() {
  for (;;) {
    int listen_fd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      listen_fd = listen_fd_;
    }
    if (listen_fd < 0) return;
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Closed by Stop(), or a transient accept failure while stopping.
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      RWDT_LOG(WARN) << "http accept(): " << std::strerror(errno);
      continue;
    }
    SetSocketTimeout(fd, options_.io_timeout_ms);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!stopping_ && pending_.size() < options_.max_pending) {
        connections_accepted_++;
        pending_.push_back(fd);
        queue_cv_.notify_one();
        continue;
      }
      if (stopping_) {
        close(fd);
        return;
      }
      connections_shed_++;
    }
    // Queue full: shed loudly. The write is small and bounded by the
    // socket timeout, so a hostile peer cannot wedge the accept thread
    // for longer than io_timeout_ms.
    SendErrorAndClose(fd, 503, "connection queue full, retry\n",
                      {{"Retry-After", "1"}});
    close(fd);
  }
}

void HttpServer::HandlerLoop() {
  for (;;) {
    int fd;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
      // Graceful stop: drain every accepted connection before exiting.
      if (pending_.empty()) return;
      fd = pending_.front();
      pending_.pop_front();
    }
    ServeConnection(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_.push_back(fd);
  }
  ServeConnectionInner(fd);
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < active_.size(); ++i) {
    if (active_[i] == fd) {
      active_[i] = active_.back();
      active_.pop_back();
      break;
    }
  }
}

void HttpServer::ServeConnectionInner(int fd) {
  std::string buf;
  char chunk[4096];
  unsigned served = 0;
  for (;;) {
    // Frame the next request head out of `buf`.
    size_t head_end;
    while ((head_end = buf.find("\r\n\r\n")) == std::string::npos) {
      if (buf.size() > options_.max_head_bytes) {
        SendErrorAndClose(fd, 431, "request head too large\n");
        close(fd);
        return;
      }
      const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {  // peer closed between requests, timeout, or error
        close(fd);
        return;
      }
      buf.append(chunk, static_cast<size_t>(n));
    }
    // The in-loop check bounds buffering; this one catches a head that
    // arrived whole in a single read.
    if (head_end > options_.max_head_bytes) {
      SendErrorAndClose(fd, 431, "request head too large\n");
      close(fd);
      return;
    }
    if (!ServeOneRequest(fd, &buf, head_end, served)) {
      close(fd);
      return;
    }
    served++;
    // Close promptly once Stop() begins rather than waiting for the
    // keep-alive peer to send another request.
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        close(fd);
        return;
      }
    }
  }
}

bool HttpServer::ServeOneRequest(int fd, std::string* buf, size_t head_end,
                                 unsigned served_on_connection) {
  HttpRequest request;
  if (!ParseRequestHead(std::string_view(*buf).substr(0, head_end),
                        &request)) {
    return SendErrorAndClose(fd, 400, "malformed request\n");
  }
  if (!request.Header("transfer-encoding").empty()) {
    return SendErrorAndClose(fd, 501, "chunked bodies not supported\n");
  }

  size_t content_length = 0;
  const std::string_view length_header = request.Header("content-length");
  if (!length_header.empty()) {
    char* end = nullptr;
    const std::string value(length_header);
    const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      return SendErrorAndClose(fd, 400, "bad Content-Length\n");
    }
    content_length = static_cast<size_t>(parsed);
  }
  if (content_length > options_.max_body_bytes) {
    // The body is not read — framing after an unread body is void, so
    // the connection must close.
    {
      std::lock_guard<std::mutex> lock(mu_);
      requests_served_++;
    }
    return SendErrorAndClose(
        fd, 413,
        "body exceeds " + std::to_string(options_.max_body_bytes) +
            " bytes\n");
  }

  const size_t frame_end = head_end + 4 + content_length;
  char chunk[4096];
  while (buf->size() < frame_end) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;  // truncated body: nothing to answer
    buf->append(chunk, static_cast<size_t>(n));
  }
  request.body = buf->substr(head_end + 4, content_length);
  buf->erase(0, frame_end);  // keep pipelined bytes for the next request

  const bool client_wants_close =
      ToLower(request.Header("connection")) == "close";
  const bool close_after =
      client_wants_close || !options_.keep_alive ||
      served_on_connection + 1 >= options_.max_requests_per_connection;

  const HttpResponse response = Dispatch(request);
  // Counted before the bytes go out, as the 413 path does: a client that
  // has read its response must already see the request counted.
  {
    std::lock_guard<std::mutex> lock(mu_);
    requests_served_++;
  }
  const bool sent = SendAll(fd, RenderResponse(response, close_after));
  return sent && !close_after;
}

HttpResponse HttpServer::Dispatch(const HttpRequest& request) {
  if (request.method == "GET" && request.path == "/quitquitquit") {
    RequestQuit();
    return {200, "text/plain; charset=utf-8", "bye\n", {}};
  }
  Handler handler;
  std::string allow;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = routes_.find(request.path);
    if (it != routes_.end()) {
      auto mit = it->second.find(request.method);
      if (mit != it->second.end()) {
        handler = mit->second;
      } else {
        for (const auto& [method, unused] : it->second) {
          if (!allow.empty()) allow += ", ";
          allow += method;
        }
      }
    }
  }
  if (handler != nullptr) return handler(request);
  if (!allow.empty()) {
    HttpResponse resp;
    resp.status = 405;
    resp.body = request.method + " not supported on " + request.path + "\n";
    resp.extra_headers.emplace_back("Allow", allow);
    return resp;
  }
  return {404,
          "text/plain; charset=utf-8",
          "no route " + request.path + " — see / for the index\n",
          {}};
}

}  // namespace rwdt::serve
