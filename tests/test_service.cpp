// End-to-end rtccd service tests (service/daemon.hpp): a real daemon
// over a temp watch folder and a unix ingest socket, with the batch
// pipeline over the same bytes as the equivalence oracle. Under test:
//   * watch-dir ingest: the drop file is processed, renamed .done, and
//     the merged final report is byte-identical (modulo the flow
//     diagnostics) to read_pcap + analyze_trace on the same file;
//   * the JSONL verdict stream reconciles with the batch report —
//     exactly-once ordinals, frame conservation, kept-UDP and message
//     totals;
//   * /metrics serves the engine's ingest ledger (equal to the batch
//     ledger) and /healthz flips 200 -> 503 on drain;
//   * SIGTERM through the real handler drains with exit code 0;
//   * socket ingest feeds the same engine (one connection = one pcap);
//   * RTCC_SERVICE_EPOCH knob parses strictly with fallback.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "emul/group_call.hpp"
#include "net/pcap.hpp"
#include "report/json_export.hpp"
#include "report/metrics.hpp"
#include "service/daemon.hpp"

namespace {

namespace emul = rtcc::emul;
namespace net = rtcc::net;
namespace report = rtcc::report;
namespace service = rtcc::service;
namespace fs = std::filesystem;

std::string stripped_json(report::CallAnalysis a) {
  a.flows = {};
  return report::to_json(a);
}

emul::GroupCall fixture_call() {
  emul::GroupCallConfig cfg;
  cfg.participants = 6;
  cfg.call_s = 30.0;
  cfg.media_scale = 0.02;
  return emul::emulate_group_call(cfg);
}

std::string make_temp_dir() {
  std::string tmpl = fs::temp_directory_path() / "rtcc_service_XXXXXX";
  char* dir = ::mkdtemp(tmpl.data());
  return dir == nullptr ? std::string() : std::string(dir);
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 30000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// Blocking HTTP/1.0 GET against the exporter; returns the full
/// response (status line + headers + body), empty on connect failure.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::write(fd, req.data(), req.size());
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

/// Value of an exact series name in a Prometheus exposition body.
std::optional<double> metric_value(const std::string& body,
                                   const std::string& name) {
  const std::string anchor = "\n" + name + " ";
  const auto pos = body.find(anchor);
  if (pos == std::string::npos) return std::nullopt;
  return std::strtod(body.c_str() + pos + anchor.size(), nullptr);
}

// Line-local JSONL field extractors (the writer emits flat objects).
std::optional<double> json_num(const std::string& line,
                               const std::string& key) {
  const auto pos = line.find("\"" + key + "\":");
  if (pos == std::string::npos) return std::nullopt;
  return std::strtod(line.c_str() + pos + key.size() + 3, nullptr);
}

std::optional<std::string> json_str(const std::string& line,
                                    const std::string& key) {
  const std::string anchor = "\"" + key + "\":\"";
  const auto pos = line.find(anchor);
  if (pos == std::string::npos) return std::nullopt;
  const auto end = line.find('"', pos + anchor.size());
  if (end == std::string::npos) return std::nullopt;
  return line.substr(pos + anchor.size(), end - pos - anchor.size());
}

struct JsonlSummary {
  std::uint64_t epoch_lines = 0;
  std::uint64_t frames = 0;  // sum over epoch lines
  std::uint64_t bytes = 0;
  bool saw_final_epoch = false;
  std::map<std::uint64_t, std::string> last_disposition;  // ordinal -> last
  std::map<std::uint64_t, std::string> transport;
  std::map<std::uint64_t, std::uint64_t> messages;  // from kept verdicts
  std::map<std::uint64_t, std::uint64_t> first_emissions;  // amends==false
};

JsonlSummary read_jsonl(const std::string& path) {
  JsonlSummary s;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto type = json_str(line, "type");
    if (!type) continue;
    if (*type == "epoch") {
      ++s.epoch_lines;
      s.frames += static_cast<std::uint64_t>(json_num(line, "frames").value());
      s.bytes += static_cast<std::uint64_t>(json_num(line, "bytes").value());
      if (line.find("\"final\":true") != std::string::npos)
        s.saw_final_epoch = true;
    } else if (*type == "verdict") {
      const auto ordinal =
          static_cast<std::uint64_t>(json_num(line, "ordinal").value());
      s.last_disposition[ordinal] = json_str(line, "disposition").value();
      s.transport[ordinal] = json_str(line, "transport").value();
      if (line.find("\"amends\":false") != std::string::npos)
        ++s.first_emissions[ordinal];
      if (const auto m = json_num(line, "messages"))
        s.messages[ordinal] = static_cast<std::uint64_t>(*m);
      else if (s.last_disposition[ordinal] != "kept")
        s.messages.erase(ordinal);  // amendment overturned the kept verdict
    }
  }
  return s;
}

TEST(Service, WatchDirReconcilesWithBatchServesMetricsAndDrainsOnSigterm) {
  const auto call = fixture_call();
  const std::string dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());
  const std::string pcap = dir + "/capture.pcap";
  std::string err;
  ASSERT_TRUE(net::write_pcap(pcap, call.trace, &err)) << err;

  // Batch oracle over the very same bytes (same capture-layer ledger).
  const auto trace = net::read_pcap(pcap, &err);
  ASSERT_TRUE(trace.has_value()) << err;
  const auto batch =
      report::analyze_trace(*trace, emul::group_filter_config(call));

  service::DaemonOptions opts;
  opts.watch_dir = dir;
  opts.jsonl_path = dir + "/verdicts.jsonl";
  opts.epoch_s = 0.5;  // capture-clock seconds: many epochs over 150 s
  opts.poll_ms = 5;
  opts.fcfg = emul::group_filter_config(call);
  service::Daemon daemon(opts);
  service::Daemon::install_signal_handlers(&daemon);
  ASSERT_TRUE(daemon.start(&err)) << err;
  ASSERT_NE(daemon.metrics_port(), 0);

  std::atomic<int> exit_code{-1};
  std::thread runner([&] { exit_code.store(daemon.run()); });

  ASSERT_TRUE(wait_until([&] {
    return daemon.metrics().get("rtcc_service_files_processed") >= 1.0;
  })) << "daemon never processed the drop file";
  EXPECT_TRUE(fs::exists(pcap + ".done"));
  EXPECT_FALSE(fs::exists(pcap));

  // Live endpoints: /healthz is up, /metrics serves the ingest ledger
  // and it matches the batch pipeline's ledger over the same file.
  EXPECT_NE(http_get(daemon.metrics_port(), "/healthz").find("200 OK"),
            std::string::npos);
  const std::string body = http_get(daemon.metrics_port(), "/metrics");
  const auto expect_metric = [&](const std::string& name, double want) {
    const auto got = metric_value(body, name);
    ASSERT_TRUE(got.has_value()) << name << " missing from /metrics";
    EXPECT_EQ(*got, want) << name;
  };
  expect_metric("rtcc_ingest_frames_seen",
                static_cast<double>(batch.ingest.frames_seen));
  expect_metric("rtcc_ingest_frames_decoded",
                static_cast<double>(batch.ingest.frames_decoded));
  expect_metric("rtcc_ingest_torn_tail",
                static_cast<double>(batch.ingest.torn_tail));
  expect_metric("rtcc_ingest_non_ip", static_cast<double>(batch.ingest.non_ip));
  expect_metric("rtcc_service_files_processed", 1.0);
  expect_metric("rtcc_service_files_failed", 0.0);
  EXPECT_GT(metric_value(body, "rtcc_service_epochs").value_or(0), 1.0);
  EXPECT_GT(metric_value(body, "rtcc_flows_seen").value_or(0), 0.0);

  // SIGTERM through the installed handler: drain, exit 0, 503 while
  // the registry stays queryable in-process after shutdown.
  ASSERT_EQ(std::raise(SIGTERM), 0);
  runner.join();
  EXPECT_EQ(exit_code.load(), 0);

  // The drained engine's merged report is the batch report (flow
  // diagnostics aside).
  ASSERT_TRUE(daemon.final_report().has_value());
  EXPECT_EQ(stripped_json(*daemon.final_report()), stripped_json(batch));

  // JSONL reconciliation: exactly-once ordinals, frame/byte
  // conservation, kept-UDP stream count and message totals all equal
  // the batch report's.
  const auto jsonl = read_jsonl(opts.jsonl_path);
  EXPECT_TRUE(jsonl.saw_final_epoch);
  EXPECT_GT(jsonl.epoch_lines, 1u);
  EXPECT_EQ(jsonl.frames, batch.ingest.frames_seen);
  EXPECT_EQ(jsonl.last_disposition.size(), jsonl.first_emissions.size());
  for (const auto& [ordinal, count] : jsonl.first_emissions)
    EXPECT_EQ(count, 1u) << "ordinal " << ordinal
                         << " emitted amends=false more than once";
  std::size_t kept_udp = 0;
  std::uint64_t messages = 0;
  for (const auto& [ordinal, disposition] : jsonl.last_disposition) {
    if (disposition != "kept") continue;
    if (jsonl.transport.at(ordinal) == "udp") ++kept_udp;
    const auto it = jsonl.messages.find(ordinal);
    if (it != jsonl.messages.end()) messages += it->second;
  }
  EXPECT_EQ(kept_udp, batch.rtc_udp.streams);
  EXPECT_EQ(messages, batch.total_messages());

  // Final compliance series on /metrics match the merged report.
  for (const auto& [proto, stats] : batch.protocols) {
    std::string label = rtcc::proto::to_string(proto);
    for (char& c : label) {
      if (c >= 'A' && c <= 'Z')
        c = static_cast<char>(c - 'A' + 'a');
      else if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')))
        c = '_';
    }
    EXPECT_EQ(daemon.metrics().get("rtcc_compliance_messages{protocol=\"" +
                                   label + "\"}"),
              static_cast<double>(stats.messages))
        << label;
    EXPECT_EQ(daemon.metrics().get("rtcc_compliance_compliant{protocol=\"" +
                                   label + "\"}"),
              static_cast<double>(stats.compliant))
        << label;
  }

  fs::remove_all(dir);
}

TEST(Service, SocketIngestFeedsTheSameEngineAndDrainsClean) {
  const auto call = fixture_call();
  const auto bytes = net::encode_pcap(call.trace);
  const auto trace = net::decode_pcap(rtcc::util::BytesView(bytes));
  ASSERT_TRUE(trace.has_value());
  const auto batch =
      report::analyze_trace(*trace, emul::group_filter_config(call));

  const std::string dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());
  service::DaemonOptions opts;
  opts.socket_path = dir + "/ingest.sock";
  opts.jsonl_path = dir + "/verdicts.jsonl";
  opts.enable_metrics = false;
  opts.epoch_s = 0.0;  // per-capture epochs only
  opts.poll_ms = 5;
  opts.fcfg = emul::group_filter_config(call);
  service::Daemon daemon(opts);
  std::string err;
  ASSERT_TRUE(daemon.start(&err)) << err;

  std::atomic<int> exit_code{-1};
  std::thread runner([&] { exit_code.store(daemon.run()); });

  // One connection = one pcap byte stream.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, opts.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);

  ASSERT_TRUE(wait_until([&] {
    return daemon.metrics().get("rtcc_service_socket_streams") >= 1.0;
  })) << "daemon never ingested the socket stream";

  daemon.request_stop();
  runner.join();
  EXPECT_EQ(exit_code.load(), 0);
  ASSERT_TRUE(daemon.final_report().has_value());
  EXPECT_EQ(stripped_json(*daemon.final_report()), stripped_json(batch));

  // epoch_s = 0: one epoch per capture plus the final pass.
  const auto jsonl = read_jsonl(opts.jsonl_path);
  EXPECT_EQ(jsonl.epoch_lines, 2u);
  EXPECT_TRUE(jsonl.saw_final_epoch);
  EXPECT_EQ(jsonl.frames, batch.ingest.frames_seen);

  fs::remove_all(dir);
}

TEST(Service, OneshotOnEmptyFolderDrainsImmediately) {
  const std::string dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());
  service::DaemonOptions opts;
  opts.watch_dir = dir;
  opts.jsonl_path = dir + "/verdicts.jsonl";
  opts.enable_metrics = false;
  opts.oneshot = true;
  service::Daemon daemon(opts);
  std::string err;
  ASSERT_TRUE(daemon.start(&err)) << err;
  EXPECT_EQ(daemon.run(), 0);
  ASSERT_TRUE(daemon.final_report().has_value());
  EXPECT_EQ(daemon.final_report()->ingest.frames_seen, 0u);
  const auto jsonl = read_jsonl(opts.jsonl_path);
  EXPECT_EQ(jsonl.epoch_lines, 1u);  // the final pass always closes
  EXPECT_TRUE(jsonl.saw_final_epoch);
  fs::remove_all(dir);
}

TEST(Service, ServiceEpochKnobParsesStrictlyWithFallback) {
  ::setenv("RTCC_SERVICE_EPOCH", "2.5", 1);
  EXPECT_EQ(service::service_epoch_from_env(), 2.5);
  ::setenv("RTCC_SERVICE_EPOCH", "0", 1);
  EXPECT_EQ(service::service_epoch_from_env(), 0.0);
  ::setenv("RTCC_SERVICE_EPOCH", "bogus", 1);
  EXPECT_EQ(service::service_epoch_from_env(), 1.0);
  ::setenv("RTCC_SERVICE_EPOCH", "-3", 1);
  EXPECT_EQ(service::service_epoch_from_env(), 1.0);
  ::unsetenv("RTCC_SERVICE_EPOCH");
  EXPECT_EQ(service::service_epoch_from_env(), 1.0);
}

}  // namespace
