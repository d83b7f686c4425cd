#include "service/http_exporter.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace rtcc::service {

namespace {

/// Per-request budget for reading the request line. The endpoint has
/// one serving thread, so a client that connects and then stalls holds
/// every other scrape for at most this long instead of forever.
constexpr std::chrono::milliseconds kRequestDeadline{500};

/// Request bytes read per client: any sane "GET <path> HTTP/1.x" line
/// fits; this endpoint serves scrapers, not browsers.
constexpr std::size_t kMaxRequest = 2048;

void close_if(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Full write with EINTR retry; best-effort (the peer may close early).
void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Reads from `client` until the first line ends, the peer closes,
/// kMaxRequest bytes arrive or kRequestDeadline passes, whichever comes
/// first, polling `stop_fd` alongside so stop() never waits on a
/// client. Returns false when stop() fired.
bool read_request(int client, int stop_fd, std::string& out) {
  const auto deadline = std::chrono::steady_clock::now() + kRequestDeadline;
  char buf[kMaxRequest];
  std::size_t len = 0;
  while (len < sizeof buf && std::memchr(buf, '\n', len) == nullptr) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) break;
    pollfd fds[2] = {{client, POLLIN, 0}, {stop_fd, POLLIN, 0}};
    const int rc = ::poll(fds, 2, static_cast<int>(left));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) break;
    if ((fds[1].revents & POLLIN) != 0) return false;
    const ssize_t n = ::read(client, buf + len, sizeof buf - len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    len += static_cast<std::size_t>(n);
  }
  out.assign(buf, len);
  return true;
}

std::string http_response(int status, const char* reason,
                          const std::string& body,
                          const char* content_type) {
  std::string out = "HTTP/1.0 " + std::to_string(status) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

HttpExporter::HttpExporter(const MetricsRegistry& registry,
                           std::function<bool()> healthy)
    : registry_(registry), healthy_(std::move(healthy)) {}

HttpExporter::~HttpExporter() { stop(); }

bool HttpExporter::start(std::uint16_t port, std::string* error) {
  const auto fail = [&](const char* what) {
    if (error != nullptr)
      *error = std::string(what) + ": " + std::strerror(errno);
    close_if(listen_fd_);
    close_if(stop_pipe_[0]);
    close_if(stop_pipe_[1]);
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0)
    return fail("bind");
  if (::listen(listen_fd_, 16) != 0) return fail("listen");

  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return fail("getsockname");
  port_ = ntohs(addr.sin_port);

  if (::pipe(stop_pipe_) != 0) return fail("pipe");

  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve(); });
  return true;
}

void HttpExporter::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  close_if(listen_fd_);
  close_if(stop_pipe_[0]);
  close_if(stop_pipe_[1]);
  port_ = 0;
}

void HttpExporter::serve() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0) return;  // stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    std::string request;
    if (!read_request(client, stop_pipe_[0], request)) {
      ::close(client);
      return;  // stop() woke us mid-request
    }
    if (request.empty()) {
      ::close(client);
      continue;
    }
    std::string path;
    if (request.compare(0, 4, "GET ") == 0) {
      const auto end = request.find(' ', 4);
      if (end != std::string::npos) path = request.substr(4, end - 4);
    }

    std::string response;
    if (path == "/metrics") {
      response = http_response(200, "OK", registry_.render(),
                               "text/plain; version=0.0.4");
    } else if (path == "/healthz") {
      const bool up = !healthy_ || healthy_();
      response = up ? http_response(200, "OK", "ok\n", "text/plain")
                    : http_response(503, "Service Unavailable", "draining\n",
                                    "text/plain");
    } else {
      response = http_response(404, "Not Found", "not found\n", "text/plain");
    }
    write_all(client, response);
    ::close(client);
  }
}

}  // namespace rtcc::service
