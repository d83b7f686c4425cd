// Group-call emulation (the paper's future work, emul/sfu) through the
// pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "emul/sfu.hpp"
#include "net/headers.hpp"
#include "proto/rtcp/rtcp.hpp"
#include "report/metrics.hpp"
#include "util/bytes.hpp"

namespace rtcc::emul {
namespace {

report::CallAnalysis analyze(const SfuCall& call) {
  return report::analyze_trace(call.trace, sfu_filter_config(call));
}

SfuCall make(int participants, bool churn = true,
             double scale = 0.02) {
  SfuConfig cfg;
  cfg.participants = participants;
  cfg.churn = churn;
  cfg.media_scale = scale;
  cfg.seed = 11;
  return emulate_sfu_call(cfg);
}

TEST(GroupCall, AllTrafficCompliant) {
  const auto call = make(4);
  const auto a = analyze(call);
  ASSERT_GT(a.total_messages(), 100u);
  EXPECT_EQ(a.total_compliant(), a.total_messages());
  // Standard messages only — no proprietary framing in the baseline.
  EXPECT_EQ(a.dgram_prop_header, 0u);
  EXPECT_EQ(a.dgram_fully_prop, 0u);
}

TEST(GroupCall, StreamsScaleWithParticipants) {
  const auto small = analyze(make(3, /*churn=*/false));
  const auto large = analyze(make(6, /*churn=*/false));
  EXPECT_GT(large.rtc_udp.streams, small.rtc_udp.streams);
  EXPECT_GT(large.raw_udp_datagrams, small.raw_udp_datagrams);
}

TEST(GroupCall, SsrcCountMatchesParticipants) {
  const int n = 5;
  const auto call = make(n, /*churn=*/false);
  const auto table = net::group_streams(call.trace);
  const auto fr =
      filter::run_pipeline(call.trace, table, sfu_filter_config(call));
  std::set<std::uint32_t> ssrcs;
  dpi::ScanningDpi engine;
  for (auto si : fr.rtc_udp_streams) {
    const auto& s = table.streams[si];
    std::vector<dpi::StreamDatagram> dgs;
    for (const auto& p : s.packets) {
      dpi::StreamDatagram d;
      d.payload = net::packet_payload(call.trace, p);
      dgs.push_back(d);
    }
    for (const auto& anal : engine.analyze_stream(dgs))
      for (const auto& m : anal.messages)
        if (m.rtp) ssrcs.insert(m.rtp->ssrc);
  }
  // One audio SSRC plus `simulcast_layers` (default 2) video SSRCs per
  // participant.
  EXPECT_EQ(ssrcs.size(), static_cast<std::size_t>(3 * n));
}

// ---- SFU forwarder invariants against SfuTruth ---------------------------

/// One decoded media-plane frame touching the SFU: direction, the
/// device on the other end, and the UDP payload.
struct SfuFrame {
  bool uplink = false;  // device -> SFU
  int peer = -1;        // participant index on the device side
  double ts = 0.0;
  rtcc::util::BytesView payload;
};

int device_index(const SfuCall& call, const net::IpAddr& ip) {
  for (std::size_t i = 0; i < call.devices.size(); ++i)
    if (call.devices[i] == ip) return static_cast<int>(i);
  return -1;
}

/// Decodes every frame that has the SFU on one side (background
/// traffic never does) and hands it to `fn(frame)`.
template <typename Fn>
void for_each_sfu_frame(const SfuCall& call, Fn&& fn) {
  for (const auto& frame : call.trace.frames()) {
    const auto d = net::decode_frame(call.trace.bytes(frame),
                                     net::kLinkEthernet);
    if (!d || d->transport != net::Transport::kUdp) continue;
    SfuFrame out;
    out.ts = frame.ts;
    out.payload = d->payload;
    if (d->dst == call.sfu) {
      out.uplink = true;
      out.peer = device_index(call, d->src);
    } else if (d->src == call.sfu) {
      out.uplink = false;
      out.peer = device_index(call, d->dst);
    } else {
      continue;
    }
    ASSERT_GE(out.peer, 0);
    fn(out);
  }
}

bool is_rtp(rtcc::util::BytesView p) {
  return p.size() >= 12 && (p[0] >> 6) == 2 && !(p[1] >= 200 && p[1] <= 207);
}

bool is_rtcp(rtcc::util::BytesView p) {
  return p.size() >= 8 && (p[0] >> 6) == 2 && p[1] >= 200 && p[1] <= 207;
}

SfuCall make_sfu(int participants, bool churn, int layer_switches,
                 double scale = 0.05, double call_s = 30.0) {
  SfuConfig cfg;
  cfg.participants = participants;
  cfg.simulcast_layers = 2;
  cfg.pre_call_s = 5.0;
  cfg.call_s = call_s;
  cfg.post_call_s = 5.0;
  cfg.media_scale = scale;
  cfg.background = false;  // every frame touches the SFU
  cfg.churn = churn;
  cfg.layer_switches = layer_switches;
  cfg.seed = 23;
  return emulate_sfu_call(cfg);
}

// The forwarder rewrites nothing but addressing: every downlink SSRC
// was uplinked by some participant, and the per-SSRC packet counts
// match the generator's exact forwarding ledger.
TEST(GroupCall, SfuSsrcConservation) {
  const auto call = make_sfu(4, /*churn=*/false, /*layer_switches=*/2);
  std::map<std::uint32_t, std::uint64_t> up, down;
  for_each_sfu_frame(call, [&](const SfuFrame& f) {
    if (!is_rtp(f.payload)) return;
    const std::uint32_t ssrc = util::load_be32(f.payload.data() + 8);
    ++(f.uplink ? up : down)[ssrc];
  });
  EXPECT_EQ(up, call.forwarding.uplink_packets);
  EXPECT_EQ(down, call.forwarding.forwarded_by_ssrc);
  for (const auto& [ssrc, n] : down) {
    EXPECT_TRUE(up.count(ssrc)) << "downlink-only SSRC " << ssrc;
    EXPECT_GT(n, 0u);
  }
}

TEST(GroupCall, SfuPerSubscriberAccounting) {
  const auto call = make_sfu(4, /*churn=*/false, /*layer_switches=*/0);
  std::vector<std::uint64_t> packets(call.devices.size(), 0);
  std::vector<std::uint64_t> bytes(call.devices.size(), 0);
  for_each_sfu_frame(call, [&](const SfuFrame& f) {
    if (f.uplink || !is_rtp(f.payload)) return;
    ++packets[static_cast<std::size_t>(f.peer)];
    bytes[static_cast<std::size_t>(f.peer)] += f.payload.size();
  });
  EXPECT_EQ(packets, call.forwarding.forwarded_packets);
  EXPECT_EQ(bytes, call.forwarding.forwarded_bytes);
  std::uint64_t up_bytes = 0, down_bytes = 0;
  for (const auto& [ssrc, b] : call.forwarding.uplink_bytes) up_bytes += b;
  for (const auto& b : bytes) down_bytes += b;
  // Each uplinked packet is forwarded to at most n-1 subscribers (and
  // video to fewer: a subscriber takes one simulcast rung per source),
  // so the forwarder can never invent bytes beyond the fan-out bound.
  EXPECT_GT(down_bytes, 0u);
  EXPECT_LE(down_bytes,
            up_bytes * static_cast<std::uint64_t>(call.devices.size() - 1));
}

// The leaving participant's BYE is uplinked exactly once and fanned to
// each still-present subscriber exactly once.
TEST(GroupCall, SfuByeExactlyOnce) {
  const auto call = make_sfu(4, /*churn=*/true, /*layer_switches=*/0);
  std::uint64_t up_byes = 0, down_byes = 0;
  for_each_sfu_frame(call, [&](const SfuFrame& f) {
    if (!is_rtcp(f.payload)) return;
    const auto compound = proto::rtcp::parse_compound(f.payload);
    if (!compound) return;
    for (const auto& pkt : compound->packets)
      if (pkt.packet_type == proto::rtcp::kBye)
        ++(f.uplink ? up_byes : down_byes);
  });
  EXPECT_EQ(up_byes, 1u);
  EXPECT_EQ(up_byes, call.forwarding.uplink_byes);
  EXPECT_EQ(down_byes, call.forwarding.forwarded_byes);
  EXPECT_EQ(down_byes, static_cast<std::uint64_t>(call.devices.size() - 1));
}

// Layer switches really move the subscriber between simulcast rungs on
// the wire, at the scheduled time, matching the truth labels.
TEST(GroupCall, SfuLayerSwitchTruth) {
  const auto call =
      make_sfu(4, /*churn=*/false, /*layer_switches=*/2, 0.1, 40.0);
  ASSERT_EQ(call.forwarding.layer_switches.size(), 2u);

  // SSRC -> (source participant, layer) reverse map.
  std::map<std::uint32_t, std::pair<int, int>> video;
  for (std::size_t p = 0; p < call.video_ssrcs.size(); ++p)
    for (std::size_t l = 0; l < call.video_ssrcs[p].size(); ++l)
      video[call.video_ssrcs[p][l]] = {static_cast<int>(p),
                                       static_cast<int>(l)};

  for (const auto& sw : call.forwarding.layer_switches) {
    SCOPED_TRACE(sw.subscriber);
    EXPECT_NE(sw.from_layer, sw.to_layer);
    EXPECT_NE(sw.subscriber, sw.source);
    EXPECT_GT(sw.ts, call.schedule.call_start);
    EXPECT_LT(sw.ts, call.schedule.call_end);

    const std::uint32_t from_ssrc =
        call.video_ssrcs[static_cast<std::size_t>(sw.source)]
                        [static_cast<std::size_t>(sw.from_layer)];
    const std::uint32_t to_ssrc =
        call.video_ssrcs[static_cast<std::size_t>(sw.source)]
                        [static_cast<std::size_t>(sw.to_layer)];
    double last_from = -1.0, first_to = -1.0;
    for_each_sfu_frame(call, [&](const SfuFrame& f) {
      if (f.uplink || f.peer != sw.subscriber || !is_rtp(f.payload)) return;
      const std::uint32_t ssrc = util::load_be32(f.payload.data() + 8);
      if (ssrc == from_ssrc) last_from = std::max(last_from, f.ts);
      if (ssrc == to_ssrc && first_to < 0.0) first_to = f.ts;
    });
    // The old rung stops at the switch (+ the forwarder's fan-out
    // delay); the new rung starts after it and not before.
    ASSERT_GT(last_from, 0.0);
    ASSERT_GT(first_to, 0.0);
    EXPECT_LE(last_from, sw.ts + 0.01);
    EXPECT_GT(first_to, sw.ts);
  }
}

TEST(GroupCall, ChurnProducesByeAndGroupReportBlocks) {
  const int n = 4;
  const auto call = make(n, /*churn=*/true, 0.03);
  const auto table = net::group_streams(call.trace);
  const auto fr =
      filter::run_pipeline(call.trace, table, sfu_filter_config(call));
  bool saw_bye = false;
  std::size_t max_report_blocks = 0;
  dpi::ScanningDpi engine;
  for (auto si : fr.rtc_udp_streams) {
    const auto& s = table.streams[si];
    std::vector<dpi::StreamDatagram> dgs;
    for (const auto& p : s.packets) {
      dpi::StreamDatagram d;
      d.payload = net::packet_payload(call.trace, p);
      dgs.push_back(d);
    }
    for (const auto& anal : engine.analyze_stream(dgs)) {
      for (const auto& m : anal.messages) {
        if (!m.rtcp) continue;
        for (const auto& pkt : m.rtcp->packets) {
          if (pkt.packet_type == proto::rtcp::kBye) saw_bye = true;
          if (pkt.packet_type == proto::rtcp::kReceiverReport)
            max_report_blocks =
                std::max(max_report_blocks, std::size_t{pkt.count});
        }
      }
    }
  }
  EXPECT_TRUE(saw_bye);
  // RR carries one block per remote participant — a group-only shape.
  EXPECT_EQ(max_report_blocks, static_cast<std::size_t>(n - 1));
}

TEST(GroupCall, FilterHandlesManyDevices) {
  const auto call = make(5);
  const auto table = net::group_streams(call.trace);
  const auto fr =
      filter::run_pipeline(call.trace, table, sfu_filter_config(call));
  std::uint64_t rtc_kept = 0, rtc_total = 0, bg_kept = 0;
  for (std::size_t i = 0; i < table.streams.size(); ++i) {
    for (const auto& pkt : table.streams[i].packets) {
      const bool is_rtc = call.truth[pkt.frame_index] == TruthKind::kRtc;
      const bool kept =
          fr.dispositions[i] == filter::Disposition::kKept;
      if (is_rtc) {
        ++rtc_total;
        rtc_kept += kept;
      } else if (kept) {
        ++bg_kept;
      }
    }
  }
  EXPECT_GT(static_cast<double>(rtc_kept) / rtc_total, 0.99);
  EXPECT_EQ(bg_kept, 0u);
}

TEST(GroupCall, MinimumThreeParticipants) {
  SfuConfig cfg;
  cfg.participants = 1;  // clamped up to 3
  cfg.media_scale = 0.01;
  const auto call = emulate_sfu_call(cfg);
  EXPECT_EQ(call.devices.size(), 3u);
}

}  // namespace
}  // namespace rtcc::emul
