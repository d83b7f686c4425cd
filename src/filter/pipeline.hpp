// The paper's two-stage unrelated-traffic filter (§3.2):
//   stage 1 — stream-timespan alignment with the (±2 s expanded) call
//             window;
//   stage 2 — intra-call heuristics: 3-tuple timing, TLS SNI blocklist,
//             local-IP scope, and IANA port-based exclusion.
//
// One implementation serves both front ends. The rules read a
// FlowSummary per flow; `classify` turns a set of summaries into
// dispositions and `tally` books them into Table 1's shape. The batch
// path (`run_pipeline`) summarizes its stream table; the streaming
// engine's FlowRecord *is* a FlowSummary, kept current packet by packet
// through the same SNI probe, and the engine classifies its retained
// records in place at every epoch boundary and at finish().
#pragma once

#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "net/stream_table.hpp"

namespace rtcc::filter {

/// Experiment phase boundaries (§3.1.2): 60 s pre-call, 5 min call,
/// 60 s post-call, all in trace-relative seconds.
struct CallSchedule {
  double capture_start = 0.0;
  double call_start = 60.0;
  double call_end = 360.0;
  double capture_end = 420.0;
  /// §3.2.1: the call window is expanded by this slack on both sides
  /// before the enclosure test.
  double slack = 2.0;

  [[nodiscard]] double window_begin() const { return call_start - slack; }
  [[nodiscard]] double window_end() const { return call_end + slack; }
};

struct FilterConfig {
  CallSchedule schedule;
  /// Known non-RTC domains (suffix match against extracted SNI).
  std::vector<std::string> sni_blocklist;
  /// The monitored devices' own addresses; the endpoint that is not a
  /// device is the "destination side" for the 3-tuple filter, and the
  /// device pair itself is exempt from the local-IP filter (P2P media).
  std::vector<rtcc::net::IpAddr> device_ips;
  /// Transport ports of known non-RTC services (IANA registry, §3.2.2).
  std::set<std::uint16_t> excluded_ports;
};

/// The built-in port list: DNS, DHCP(v4/v6), NTP, NetBIOS, mDNS, SSDP.
[[nodiscard]] std::set<std::uint16_t> default_excluded_ports();

/// Why a stream was removed (kKept == survived into the RTC dataset).
enum class Disposition : std::uint8_t {
  kKept,
  kStage1Timespan,
  kStage2ThreeTuple,
  kStage2Sni,
  kStage2LocalIp,
  kStage2Port,
};

[[nodiscard]] std::string to_string(Disposition d);
[[nodiscard]] inline bool is_stage2(Disposition d) {
  return d == Disposition::kStage2ThreeTuple || d == Disposition::kStage2Sni ||
         d == Disposition::kStage2LocalIp || d == Disposition::kStage2Port;
}

struct StageStats {
  std::size_t streams = 0;
  std::uint64_t packets = 0;
};

/// Filtering outcome in Table 1's shape, split UDP/TCP per stage.
struct FilterReport {
  std::vector<Disposition> dispositions;  // indexed like the classified flows
  StageStats stage1_udp, stage2_udp, stage1_tcp, stage2_tcp;
  StageStats rtc_udp, rtc_tcp;
  /// Indices of surviving UDP streams — the compliance-analysis input.
  std::vector<std::size_t> rtc_udp_streams;
  /// Ingestion diagnostics carried from the stream table so every
  /// downstream compliance number travels with its loss accounting.
  rtcc::net::IngestStats ingest;
};

/// What the §3.2 rules read about one flow (one stream-table stream,
/// or one streaming flow record).
struct FlowSummary {
  rtcc::net::FlowKey key;
  double first_ts = 0.0;  // min packet ts (pcap ts are not monotonic)
  double last_ts = 0.0;   // max packet ts
  std::uint64_t packet_count = 0;
  /// First TLS ClientHello SNI among the flow's first kSniProbeWindow
  /// packets (TCP only); filled by probe_sni.
  std::optional<std::string> sni;
};

/// The ClientHello sits at the front of a TCP stream, so the SNI probe
/// reads only this many leading packets and the filter stays
/// O(flows), not O(packets).
inline constexpr std::size_t kSniProbeWindow = 8;

/// The SNI probe, fed packet by packet in stream order: `index` is the
/// packet's 0-based position in its flow. Probes TCP payloads in the
/// first kSniProbeWindow slots (an empty payload uses its slot up) and
/// keeps the first SNI found. UDP QUIC SNI is out of scope, as in the
/// paper.
void probe_sni(FlowSummary& flow, std::uint64_t index,
               rtcc::util::BytesView payload);

/// Stage 1: true when the flow's span is fully enclosed in the expanded
/// call window. Monotone in the span — once false, no later packet can
/// make it true — so the streaming engine condemns a flow online the
/// moment it fails.
[[nodiscard]] bool enclosed_in_window(const FlowSummary& flow,
                                      const CallSchedule& schedule);

/// Stage 2d: an IANA non-RTC service port on either side. Static on the
/// key, so the streaming engine condemns such a flow at its first
/// packet.
[[nodiscard]] bool port_excluded(const rtcc::net::FlowKey& key,
                                 const FilterConfig& cfg);

/// Stage 2b helper: suffix match honoring label boundaries
/// ("facebook.com" matches "web.facebook.com" but not
/// "notfacebook.com").
[[nodiscard]] bool sni_blocked(const std::string& sni,
                               const std::vector<std::string>& blocklist);

/// The §3.2 rules over a set of flows, read in place (no summary is
/// copied). Precedence: stage 1, then 3-tuple, SNI, local-IP and port —
/// a flow matching several stage-2 rules reports the first. Stage 2's
/// cross-flow evidence comes from `flows` themselves: remote 3-tuples
/// of stage-1-removed flows and IP pairs active before the window. Both
/// witness sets only grow as flows are added, so over a growing set a
/// kept flow can turn removed but a removed one never reopens.
[[nodiscard]] std::vector<Disposition> classify(
    std::span<const FlowSummary* const> flows, const FilterConfig& cfg);

/// Table 1's tally: each flow's stream and packets under its
/// disposition's bucket, split UDP/TCP, and the surviving UDP flows'
/// indices. `ingest` is left for the caller.
[[nodiscard]] FilterReport tally(std::span<const FlowSummary* const> flows,
                                 std::vector<Disposition> dispositions);

/// The batch front end: summarizes the stream table, classifies, tallies.
[[nodiscard]] FilterReport run_pipeline(const rtcc::net::Trace& trace,
                                        const rtcc::net::StreamTable& table,
                                        const FilterConfig& cfg);

/// Frame indices (ascending) of every packet belonging to a kept
/// stream. Because each stage only *removes* streams and the stage-2
/// heuristics draw their evidence (3-tuples, pre-call IP pairs)
/// exclusively from removed streams, re-running the pipeline on just
/// these frames must keep every stream again — the filter is idempotent
/// over its own output. testkit::meta asserts this; note the guarantee
/// is per-frame, so it covers traces without IPv4 fragmentation (a
/// reassembled packet has no single home frame).
[[nodiscard]] std::vector<std::size_t> kept_frame_indices(
    const rtcc::net::StreamTable& table, const FilterReport& report);

}  // namespace rtcc::filter
