#include "service/http_exporter.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

namespace rtcc::service {

namespace {

/// Per-client budget for reading the request line: a client that
/// connects and then stalls holds its slot for at most this long.
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

/// Full write with EINTR retry; best-effort (the peer may close early,
/// and MSG_NOSIGNAL keeps that from raising SIGPIPE).
void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Clients read at once: the listen backlog. Further connections wait
/// in the kernel queue until a slot frees, at most kRequestDeadline.
constexpr std::size_t kMaxClients = 16;

/// An accepted client whose request line is still arriving.
struct PendingClient {
  int fd = -1;
  std::chrono::steady_clock::time_point deadline;
  std::string request;
};

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
  if (::listen(listen_fd_, static_cast<int>(kMaxClients)) != 0)
    return fail("listen");

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
  using Clock = std::chrono::steady_clock;
  std::vector<PendingClient> clients;
  std::vector<pollfd> fds;
  char buf[kMaxRequest];
  while (running_.load(std::memory_order_acquire)) {
    // One poll set: the stop pipe, the listen socket while a client slot
    // is free (poll skips a negative fd), and every pending client.
    fds.clear();
    fds.push_back({stop_pipe_[0], POLLIN, 0});
    fds.push_back(
        {clients.size() < kMaxClients ? listen_fd_ : -1, POLLIN, 0});
    for (const PendingClient& c : clients) fds.push_back({c.fd, POLLIN, 0});
    int timeout_ms = -1;
    if (!clients.empty()) {
      const auto first =
          std::ranges::min_element(clients, {}, &PendingClient::deadline)
              ->deadline;
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          first - Clock::now());
      timeout_ms = static_cast<int>(std::max<std::int64_t>(0, left.count()));
    }
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) break;
    if (rc > 0 && (fds[0].revents & POLLIN) != 0) break;  // stop() woke us

    // Answer each client as soon as its request line ends, the peer
    // closes, kMaxRequest bytes arrive or its deadline passes.
    const auto now = Clock::now();
    for (std::size_t i = 0; i < clients.size(); ++i) {
      PendingClient& c = clients[i];
      bool done = now >= c.deadline;
      if (rc > 0 && fds[2 + i].revents != 0) {
        const std::size_t room = kMaxRequest - c.request.size();
        const ssize_t n = ::read(c.fd, buf, room);
        if (n > 0) c.request.append(buf, static_cast<std::size_t>(n));
        done = done || (n < 0 && errno != EINTR) || n == 0 ||
               c.request.size() == kMaxRequest ||
               c.request.find('\n') != std::string::npos;
      }
      if (!done) continue;
      if (!c.request.empty()) write_all(c.fd, response_for(c.request));
      close_if(c.fd);
    }
    std::erase_if(clients, [](const PendingClient& c) { return c.fd < 0; });

    if (rc > 0 && (fds[1].revents & POLLIN) != 0) {
      const int client = ::accept(listen_fd_, nullptr, nullptr);
      if (client >= 0)
        clients.push_back({client, Clock::now() + kRequestDeadline, {}});
    }
  }
  for (PendingClient& c : clients) close_if(c.fd);
}

std::string HttpExporter::response_for(const std::string& request) const {
  std::string path;
  if (request.compare(0, 4, "GET ") == 0) {
    const auto end = request.find(' ', 4);
    if (end != std::string::npos) path = request.substr(4, end - 4);
  }
  if (path == "/metrics")
    return http_response(200, "OK", registry_.render(),
                         "text/plain; version=0.0.4");
  if (path == "/healthz") {
    const bool up = !healthy_ || healthy_();
    return up ? http_response(200, "OK", "ok\n", "text/plain")
              : http_response(503, "Service Unavailable", "draining\n",
                              "text/plain");
  }
  return http_response(404, "Not Found", "not found\n", "text/plain");
}

}  // namespace rtcc::service
