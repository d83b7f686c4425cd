// Two-stage filtering pipeline (§3.2): per-stage unit tests, the rule
// precedence over hand-built flow summaries, batch/streaming agreement
// on a flow several rules match, plus a ground-truth precision/recall
// test on a fully emulated call.
#include <gtest/gtest.h>

#include "emul/app_model.hpp"
#include "emul/background.hpp"
#include "filter/pipeline.hpp"
#include "proto/tls/client_hello.hpp"
#include "stream/engine.hpp"

namespace rtcc::filter {
namespace {

using rtcc::net::Frame;
using rtcc::net::FrameSpec;
using rtcc::net::IpAddr;
using rtcc::net::Trace;
using rtcc::net::Transport;
using rtcc::util::Bytes;
using rtcc::util::BytesView;

CallSchedule schedule() {
  CallSchedule s;
  s.capture_start = 0;
  s.call_start = 60;
  s.call_end = 360;
  s.capture_end = 420;
  return s;
}

FlowSummary make_summary(double first, double last) {
  FlowSummary f;
  f.first_ts = first;
  f.last_ts = last;
  return f;
}

TEST(TimespanFilter, EnclosureRules) {
  const auto sched = schedule();
  EXPECT_TRUE(enclosed_in_window(make_summary(61, 359), sched));
  // The ±2 s slack (§3.2.1).
  EXPECT_TRUE(enclosed_in_window(make_summary(58.5, 361.5), sched));
  EXPECT_FALSE(enclosed_in_window(make_summary(30, 200), sched));   // starts before
  EXPECT_FALSE(enclosed_in_window(make_summary(100, 400), sched));  // ends after
  EXPECT_FALSE(enclosed_in_window(make_summary(10, 410), sched));   // spans both
}

TEST(SniFilter, SuffixMatchingRespectsLabels) {
  const std::vector<std::string> blocklist = {"facebook.com",
                                              "oauth2.googleapis.com"};
  EXPECT_TRUE(sni_blocked("facebook.com", blocklist));
  EXPECT_TRUE(sni_blocked("web.facebook.com", blocklist));
  EXPECT_FALSE(sni_blocked("notfacebook.com", blocklist));
  EXPECT_FALSE(sni_blocked("facebook.com.evil.net", blocklist));
  EXPECT_TRUE(sni_blocked("oauth2.googleapis.com", blocklist));
  EXPECT_FALSE(sni_blocked("media.googleapis.com", blocklist));
}

TEST(PortFilter, DefaultListCoversPaperServices) {
  const auto ports = default_excluded_ports();
  for (std::uint16_t p : {53, 67, 547, 1900, 5353})
    EXPECT_TRUE(ports.count(p)) << p;
  EXPECT_FALSE(ports.count(3478));  // STUN must never be excluded
  EXPECT_FALSE(ports.count(443));
}

FlowSummary summary(const char* a, std::uint16_t a_port, const char* b,
                    std::uint16_t b_port, Transport transport, double first,
                    double last, std::optional<std::string> sni = {}) {
  FlowSummary f = make_summary(first, last);
  f.key.a = *IpAddr::parse(a);
  f.key.a_port = a_port;
  f.key.b = *IpAddr::parse(b);
  f.key.b_port = b_port;
  f.key.transport = transport;
  f.packet_count = 2;
  f.sni = std::move(sni);
  return f;
}

TEST(Classify, RulePrecedenceIsStage1ThenTupleSniLocalIpPort) {
  FilterConfig cfg;
  cfg.schedule = schedule();
  cfg.excluded_ports = default_excluded_ports();
  cfg.sni_blocklist = {"blocked.example.com"};
  cfg.device_ips = {*IpAddr::parse("192.168.1.10"),
                    *IpAddr::parse("192.168.1.11")};
  const std::string blocked = "blocked.example.com";
  const auto tcp = Transport::kTcp;
  const auto udp = Transport::kUdp;
  // Every in-window flow below talks to the LAN neighbour .23 on an
  // excluded port unless noted; each drops one more rule than the last.
  const std::vector<FlowSummary> flows = {
      // Pre-call witness: out of the window, so stage 1 removes it even
      // though every stage-2 rule matches too. It seeds the 3-tuple
      // (.23, 53, tcp) and the precall pair (.10, .23).
      summary("192.168.1.10", 6000, "192.168.1.23", 53, tcp, 10, 20, blocked),
      // 3-tuple + SNI + local-IP + port → 3-tuple.
      summary("192.168.1.10", 6100, "192.168.1.23", 53, tcp, 100, 101,
              blocked),
      // SNI + local-IP + port → SNI.
      summary("192.168.1.10", 6101, "192.168.1.23", 67, tcp, 100, 101,
              blocked),
      // Local-IP + port → local-IP.
      summary("192.168.1.10", 6102, "192.168.1.23", 123, udp, 100, 101),
      // Port only (a public resolver, no precall history) → port.
      summary("8.8.8.8", 53, "192.168.1.10", 6103, udp, 100, 101),
      // Nothing matches → kept.
      summary("192.168.1.10", 5000, "203.0.113.1", 3478, udp, 100, 101),
  };
  std::vector<const FlowSummary*> refs;
  for (const auto& f : flows) refs.push_back(&f);
  EXPECT_EQ(classify(refs, cfg),
            (std::vector<Disposition>{
                Disposition::kStage1Timespan, Disposition::kStage2ThreeTuple,
                Disposition::kStage2Sni, Disposition::kStage2LocalIp,
                Disposition::kStage2Port, Disposition::kKept}));

  const auto report = tally(refs, classify(refs, cfg));
  EXPECT_EQ(report.stage1_tcp.streams, 1u);
  EXPECT_EQ(report.stage2_tcp.streams, 2u);
  EXPECT_EQ(report.stage2_udp.streams, 2u);
  EXPECT_EQ(report.stage2_udp.packets, 4u);
  EXPECT_EQ(report.rtc_udp_streams, (std::vector<std::size_t>{5}));
}

TEST(SniProbe, FirstHitInTheLeadingTcpPacketsOnly) {
  const Bytes hello = rtcc::proto::tls::build_client_hello("a.example.com");
  FlowSummary tcp;
  tcp.key.transport = Transport::kTcp;
  probe_sni(tcp, 0, BytesView{});  // an empty payload uses up its slot
  probe_sni(tcp, 1, BytesView{hello});
  ASSERT_TRUE(tcp.sni.has_value());
  EXPECT_EQ(*tcp.sni, "a.example.com");
  // The first SNI found stays.
  probe_sni(tcp, 2,
            BytesView{rtcc::proto::tls::build_client_hello("b.example.com")});
  EXPECT_EQ(*tcp.sni, "a.example.com");

  FlowSummary late;
  late.key.transport = Transport::kTcp;
  probe_sni(late, kSniProbeWindow, BytesView{hello});
  EXPECT_FALSE(late.sni.has_value());

  FlowSummary udp;
  probe_sni(udp, 0, BytesView{hello});
  EXPECT_FALSE(udp.sni.has_value());
}

/// Assembles a trace with one frame per description for pipeline tests.
struct PipelineFixture {
  Trace trace;
  FilterConfig cfg;

  PipelineFixture() {
    cfg.schedule = schedule();
    cfg.excluded_ports = default_excluded_ports();
    cfg.sni_blocklist = {"blocked.example.com"};
    cfg.device_ips = {*IpAddr::parse("192.168.1.10"),
                      *IpAddr::parse("192.168.1.11")};
  }

  void add_udp(double ts, const char* src, std::uint16_t sport,
               const char* dst, std::uint16_t dport,
               const Bytes& payload = Bytes(20, 1)) {
    FrameSpec spec;
    spec.src = *IpAddr::parse(src);
    spec.dst = *IpAddr::parse(dst);
    spec.src_port = sport;
    spec.dst_port = dport;
    trace.add_frame(ts, BytesView{rtcc::net::build_frame(spec, BytesView{payload})});
  }

  void add_tcp(double ts, const char* src, std::uint16_t sport,
               const char* dst, std::uint16_t dport, const Bytes& payload) {
    FrameSpec spec;
    spec.src = *IpAddr::parse(src);
    spec.dst = *IpAddr::parse(dst);
    spec.src_port = sport;
    spec.dst_port = dport;
    spec.transport = Transport::kTcp;
    trace.add_frame(ts, BytesView{rtcc::net::build_frame(spec, BytesView{payload})});
  }

  FilterReport run() {
    auto table = rtcc::net::group_streams(trace);
    return run_pipeline(trace, table, cfg);
  }
};

TEST(Pipeline, KeepsInWindowMediaStream) {
  PipelineFixture f;
  for (double t = 61; t < 359; t += 30)
    f.add_udp(t, "192.168.1.10", 5000, "203.0.113.1", 3478);
  auto report = f.run();
  ASSERT_EQ(report.dispositions.size(), 1u);
  EXPECT_EQ(report.dispositions[0], Disposition::kKept);
  EXPECT_EQ(report.rtc_udp.streams, 1u);
}

TEST(Pipeline, Stage1RemovesOutOfWindowStreams) {
  PipelineFixture f;
  f.add_udp(10, "192.168.1.10", 5001, "203.0.113.2", 8888);  // pre-call
  f.add_udp(100, "192.168.1.10", 5001, "203.0.113.2", 8888);
  auto report = f.run();
  EXPECT_EQ(report.dispositions[0], Disposition::kStage1Timespan);
  EXPECT_EQ(report.stage1_udp.streams, 1u);
  EXPECT_EQ(report.stage1_udp.packets, 2u);
}

TEST(Pipeline, ThreeTupleFilterCatchesRebinds) {
  PipelineFixture f;
  // Persistent service: stream outside the window with remote
  // (17.1.1.1, 5223)...
  f.add_udp(20, "192.168.1.10", 6000, "17.1.1.1", 5223);
  f.add_udp(400, "192.168.1.10", 6000, "17.1.1.1", 5223);
  // ...and a rebound in-window stream (new source port, same remote).
  f.add_udp(100, "192.168.1.10", 6001, "17.1.1.1", 5223);
  f.add_udp(110, "192.168.1.10", 6001, "17.1.1.1", 5223);
  auto report = f.run();
  // Find the in-window stream and assert its disposition.
  bool found = false;
  auto table = rtcc::net::group_streams(f.trace);
  for (std::size_t i = 0; i < table.streams.size(); ++i) {
    if (table.streams[i].first_ts >= 60) {
      EXPECT_EQ(report.dispositions[i], Disposition::kStage2ThreeTuple);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Pipeline, ThreeTupleFilterNeverKeysOnDeviceEndpoint) {
  PipelineFixture f;
  // Device endpoint appears outside the window (its own chatter)...
  f.add_udp(10, "192.168.1.10", 7000, "198.51.100.9", 9999);
  // ...but an in-window stream from the same device port to a NEW
  // remote must be kept (the device side is not a "destination").
  f.add_udp(100, "192.168.1.10", 7000, "198.51.100.77", 4321);
  f.add_udp(200, "192.168.1.10", 7000, "198.51.100.77", 4321);
  auto report = f.run();
  auto table = rtcc::net::group_streams(f.trace);
  for (std::size_t i = 0; i < table.streams.size(); ++i) {
    if (table.streams[i].first_ts >= 60) {
      EXPECT_EQ(report.dispositions[i], Disposition::kKept);
    }
  }
}

TEST(Pipeline, SniFilterRemovesBlockedDomains) {
  PipelineFixture f;
  const Bytes hello =
      rtcc::proto::tls::build_client_hello("blocked.example.com");
  f.add_tcp(100, "192.168.1.10", 6100, "198.51.100.50", 443, hello);
  f.add_tcp(101, "192.168.1.10", 6100, "198.51.100.50", 443, Bytes(30, 2));
  // A non-blocked TLS stream survives.
  const Bytes ok_hello =
      rtcc::proto::tls::build_client_hello("signal.app.example");
  f.add_tcp(100, "192.168.1.10", 6200, "198.51.100.51", 443, ok_hello);

  auto report = f.run();
  auto table = rtcc::net::group_streams(f.trace);
  for (std::size_t i = 0; i < table.streams.size(); ++i) {
    const bool blocked = table.streams[i].key.a_port == 6100 ||
                         table.streams[i].key.b_port == 6100;
    EXPECT_EQ(report.dispositions[i],
              blocked ? Disposition::kStage2Sni : Disposition::kKept);
  }
}

TEST(Pipeline, SniOutranksPortInBatchAndStreamingVerdicts) {
  // An in-window TCP flow to an excluded port (DNS) that opens with a
  // ClientHello for a blocklisted name: both the SNI and the port rule
  // match, and the verdict must name SNI, the first in rule order, on
  // both front ends.
  PipelineFixture f;
  f.add_tcp(100, "192.168.1.10", 6100, "198.51.100.50", 53,
            rtcc::proto::tls::build_client_hello("blocked.example.com"));
  f.add_tcp(101, "192.168.1.10", 6100, "198.51.100.50", 53, Bytes(30, 2));

  const auto report = f.run();
  ASSERT_EQ(report.dispositions.size(), 1u);
  EXPECT_EQ(report.dispositions[0], Disposition::kStage2Sni);

  rtcc::stream::StreamingAnalyzer engine(f.trace.linktype(), f.cfg);
  std::vector<Disposition> final_verdicts;
  engine.set_epoch(0.0, [&](const rtcc::stream::EpochReport& ep) {
    if (!ep.final_pass) return;
    for (const auto& v : ep.verdicts) final_verdicts.push_back(v.disposition);
  });
  for (const auto& frame : f.trace.frames())
    engine.push_frame(f.trace.bytes(frame), frame.ts, frame.orig_len);
  const auto analysis = engine.finish();
  ASSERT_EQ(final_verdicts.size(), 1u);
  EXPECT_EQ(final_verdicts[0], Disposition::kStage2Sni);
  EXPECT_EQ(analysis.stage2_tcp.streams, 1u);
}

TEST(Pipeline, LocalIpFilterNeedsPrecallEvidence) {
  PipelineFixture f;
  // LAN pair active pre-call...
  f.add_udp(10, "192.168.1.10", 7788, "192.168.1.23", 7788);
  // ...and again (different ports) during the call → removed by 2c.
  f.add_udp(100, "192.168.1.10", 7789, "192.168.1.23", 7790);
  // A LAN pair with NO pre-call history is kept (could be P2P media).
  f.add_udp(100, "192.168.1.10", 8100, "192.168.1.42", 8100);
  f.add_udp(200, "192.168.1.10", 8100, "192.168.1.42", 8100);

  auto report = f.run();
  auto table = rtcc::net::group_streams(f.trace);
  for (std::size_t i = 0; i < table.streams.size(); ++i) {
    const auto& s = table.streams[i];
    if (s.first_ts < 60) continue;
    const bool is_neighbor23 =
        s.key.a == *IpAddr::parse("192.168.1.23") ||
        s.key.b == *IpAddr::parse("192.168.1.23");
    EXPECT_EQ(report.dispositions[i], is_neighbor23
                                          ? Disposition::kStage2LocalIp
                                          : Disposition::kKept);
  }
}

TEST(Pipeline, DeviceToDeviceP2pAlwaysSurvivesLocalFilter) {
  PipelineFixture f;
  // P2P media between the two monitored phones, same LAN — even with a
  // pre-call stream between them, media is preserved.
  f.add_udp(10, "192.168.1.10", 9000, "192.168.1.11", 9000);
  f.add_udp(100, "192.168.1.10", 9001, "192.168.1.11", 9002);
  f.add_udp(200, "192.168.1.10", 9001, "192.168.1.11", 9002);
  auto report = f.run();
  auto table = rtcc::net::group_streams(f.trace);
  for (std::size_t i = 0; i < table.streams.size(); ++i) {
    if (table.streams[i].first_ts >= 60) {
      EXPECT_EQ(report.dispositions[i], Disposition::kKept);
    }
  }
}

TEST(Pipeline, PortFilterRemovesKnownServices) {
  PipelineFixture f;
  f.add_udp(100, "192.168.1.10", 5555, "8.8.8.8", 53);     // DNS
  f.add_udp(120, "192.168.1.10", 5353, "224.0.0.251", 5353);  // mDNS
  f.add_udp(140, "192.168.1.10", 6666, "239.255.255.250", 1900);  // SSDP
  auto report = f.run();
  for (auto d : report.dispositions)
    EXPECT_EQ(d, Disposition::kStage2Port);
  EXPECT_EQ(report.stage2_udp.streams, 3u);
}

TEST(Pipeline, GroundTruthOnEmulatedCall) {
  // Full end-to-end check: every background frame must be filtered,
  // (almost) every RTC frame must survive, across all apps/networks.
  for (auto app : rtcc::emul::all_apps()) {
    rtcc::emul::CallConfig cfg;
    cfg.app = app;
    cfg.network = rtcc::emul::NetworkSetup::kWifiP2p;
    cfg.media_scale = 0.01;
    cfg.seed = 99;
    const auto call = rtcc::emul::emulate_call(cfg);
    const auto table = rtcc::net::group_streams(call.trace);
    const auto report =
        run_pipeline(call.trace, table, rtcc::emul::filter_config_for(call));

    std::uint64_t rtc_kept = 0, rtc_total = 0;
    std::uint64_t bg_kept = 0, bg_total = 0;
    for (std::size_t i = 0; i < table.streams.size(); ++i) {
      for (const auto& pkt : table.streams[i].packets) {
        const bool is_rtc =
            call.truth[pkt.frame_index] == rtcc::emul::TruthKind::kRtc;
        const bool kept = report.dispositions[i] == Disposition::kKept;
        if (is_rtc) {
          ++rtc_total;
          rtc_kept += kept;
        } else {
          ++bg_total;
          bg_kept += kept;
        }
      }
    }
    ASSERT_GT(rtc_total, 0u) << to_string(app);
    ASSERT_GT(bg_total, 0u) << to_string(app);
    // Recall: ≥99% of RTC packets survive.
    EXPECT_GT(static_cast<double>(rtc_kept) / rtc_total, 0.99)
        << to_string(app);
    // Precision: no background packet survives in our model.
    EXPECT_EQ(bg_kept, 0u) << to_string(app);
  }
}

TEST(Pipeline, DispositionNames) {
  EXPECT_EQ(to_string(Disposition::kKept), "kept");
  EXPECT_EQ(to_string(Disposition::kStage2Sni), "stage2:sni");
  EXPECT_TRUE(is_stage2(Disposition::kStage2Port));
  EXPECT_FALSE(is_stage2(Disposition::kStage1Timespan));
  EXPECT_FALSE(is_stage2(Disposition::kKept));
}

}  // namespace
}  // namespace rtcc::filter
