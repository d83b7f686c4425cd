// The §3.2 rules: the one classifier both front ends call (see
// pipeline.hpp), with the predicates the streaming engine also applies
// online.
#include <algorithm>

#include "filter/pipeline.hpp"
#include "proto/tls/client_hello.hpp"

namespace rtcc::filter {

using rtcc::net::FlowKey;
using rtcc::net::IpAddr;
using rtcc::net::Transport;

std::set<std::uint16_t> default_excluded_ports() {
  // §3.2.2 names DNS (53), DHCP (67/547) and SSDP (1900); we include
  // the rest of the common non-RTC LAN/service ports from the IANA
  // registry that showed up in our background model.
  return {53, 67, 68, 123, 137, 138, 139, 546, 547, 1900, 5353};
}

std::string to_string(Disposition d) {
  switch (d) {
    case Disposition::kKept:
      return "kept";
    case Disposition::kStage1Timespan:
      return "stage1:timespan";
    case Disposition::kStage2ThreeTuple:
      return "stage2:3-tuple";
    case Disposition::kStage2Sni:
      return "stage2:sni";
    case Disposition::kStage2LocalIp:
      return "stage2:local-ip";
    case Disposition::kStage2Port:
      return "stage2:port";
  }
  return "?";
}

namespace {

bool is_device(const IpAddr& ip, const FilterConfig& cfg) {
  return std::find(cfg.device_ips.begin(), cfg.device_ips.end(), ip) !=
         cfg.device_ips.end();
}

/// A remote endpoint (ip, port, proto) for the 3-tuple timing filter.
struct ThreeTuple {
  IpAddr ip;
  std::uint16_t port = 0;
  Transport transport = Transport::kUdp;
  auto operator<=>(const ThreeTuple&) const = default;
};

template <class T>
void sort_unique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

void probe_sni(FlowSummary& flow, std::uint64_t index,
               rtcc::util::BytesView payload) {
  if (flow.key.transport != Transport::kTcp || flow.sni ||
      index >= kSniProbeWindow || payload.empty())
    return;
  flow.sni = rtcc::proto::tls::extract_sni(payload);
}

bool enclosed_in_window(const FlowSummary& flow,
                        const CallSchedule& schedule) {
  // §3.2.1: streams that begin before the call starts, end after it
  // ends, or span both are unrelated; only streams fully inside the
  // expanded window survive stage 1.
  return flow.first_ts >= schedule.window_begin() &&
         flow.last_ts <= schedule.window_end();
}

bool port_excluded(const FlowKey& key, const FilterConfig& cfg) {
  return cfg.excluded_ports.count(key.a_port) > 0 ||
         cfg.excluded_ports.count(key.b_port) > 0;
}

bool sni_blocked(const std::string& sni,
                 const std::vector<std::string>& blocklist) {
  for (const auto& domain : blocklist) {
    if (sni == domain) return true;
    if (sni.size() > domain.size() &&
        sni.compare(sni.size() - domain.size(), domain.size(), domain) == 0 &&
        sni[sni.size() - domain.size() - 1] == '.') {
      return true;
    }
  }
  return false;
}

std::vector<Disposition> classify(std::span<const FlowSummary* const> flows,
                                  const FilterConfig& cfg) {
  const std::size_t n = flows.size();
  std::vector<Disposition> disp(n, Disposition::kKept);

  // ---- Stage 1: timespan enclosure, and the stage-2 witnesses ----
  // §3.2.2, 3-tuple timing filter: services like APNS keep a fixed
  // remote (ip, port, proto) while rotating source ports, so their
  // in-call streams evade stage 1. Any remote 3-tuple active outside
  // the call window taints matching in-window streams. The local-IP
  // filter's evidence is the IP pairs of streams active before the
  // call window ("pre-call background capture").
  std::vector<ThreeTuple> outside_tuples;
  std::vector<std::pair<IpAddr, IpAddr>> precall_pairs;
  for (std::size_t i = 0; i < n; ++i) {
    const FlowSummary& f = *flows[i];
    if (enclosed_in_window(f, cfg.schedule)) continue;
    disp[i] = Disposition::kStage1Timespan;
    const FlowKey& k = f.key;
    if (!is_device(k.a, cfg))
      outside_tuples.push_back(ThreeTuple{k.a, k.a_port, k.transport});
    if (!is_device(k.b, cfg))
      outside_tuples.push_back(ThreeTuple{k.b, k.b_port, k.transport});
    if (f.first_ts < cfg.schedule.window_begin())
      precall_pairs.emplace_back(k.a, k.b);
  }
  sort_unique(outside_tuples);
  sort_unique(precall_pairs);
  const auto tuple_outside = [&](const IpAddr& ip, std::uint16_t port,
                                 Transport transport) {
    return std::binary_search(outside_tuples.begin(), outside_tuples.end(),
                              ThreeTuple{ip, port, transport});
  };

  // ---- Stage 2: intra-call heuristics, first match wins ----
  for (std::size_t i = 0; i < n; ++i) {
    if (disp[i] != Disposition::kKept) continue;
    const FlowSummary& f = *flows[i];
    const FlowKey& k = f.key;
    const bool a_dev = is_device(k.a, cfg);
    const bool b_dev = is_device(k.b, cfg);
    if ((!a_dev && tuple_outside(k.a, k.a_port, k.transport)) ||
        (!b_dev && tuple_outside(k.b, k.b_port, k.transport))) {
      // 2a — 3-tuple timing: remote endpoint active outside the window.
      disp[i] = Disposition::kStage2ThreeTuple;
    } else if (f.sni && sni_blocked(*f.sni, cfg.sni_blocklist)) {
      // 2b — TLS SNI blocklist (probe_sni fills TCP flows only).
      disp[i] = Disposition::kStage2Sni;
    } else if (((!a_dev && k.a.is_local_scope()) ||
                (!b_dev && k.b.is_local_scope())) &&
               std::binary_search(precall_pairs.begin(), precall_pairs.end(),
                                  std::make_pair(k.a, k.b))) {
      // 2c — local-IP scope: LAN chatter whose IP pair also appeared in
      // the pre-call capture. The monitored devices themselves always
      // sit in private ranges on Wi-Fi, so only a local-scope *remote*
      // endpoint marks LAN management traffic; the device pair itself
      // (P2P media) and device↔server flows are preserved.
      disp[i] = Disposition::kStage2LocalIp;
    } else if (port_excluded(k, cfg)) {
      // 2d — port-based exclusion (IANA non-RTC services).
      disp[i] = Disposition::kStage2Port;
    }
  }
  return disp;
}

FilterReport tally(std::span<const FlowSummary* const> flows,
                   std::vector<Disposition> dispositions) {
  FilterReport report;
  report.dispositions = std::move(dispositions);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowSummary& f = *flows[i];
    const bool udp = f.key.transport == Transport::kUdp;
    const Disposition d = report.dispositions[i];
    StageStats& stats =
        d == Disposition::kStage1Timespan ? (udp ? report.stage1_udp
                                                 : report.stage1_tcp)
        : is_stage2(d) ? (udp ? report.stage2_udp : report.stage2_tcp)
                       : (udp ? report.rtc_udp : report.rtc_tcp);
    ++stats.streams;
    stats.packets += f.packet_count;
    if (d == Disposition::kKept && udp) report.rtc_udp_streams.push_back(i);
  }
  return report;
}

}  // namespace rtcc::filter
