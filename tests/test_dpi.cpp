// ScanningDpi (Algorithm 1): candidate extraction at shifted offsets,
// stream-level validation, overlap resolution, proprietary-header and
// fully-proprietary classification, plus the StrictDpi baseline.
#include <gtest/gtest.h>

#include "dpi/scanning_dpi.hpp"
#include "dpi/simd_dispatch.hpp"
#include "dpi/strict_dpi.hpp"
#include "util/rng.hpp"

namespace rtcc::dpi {
namespace {

namespace stun = rtcc::proto::stun;
namespace rtp = rtcc::proto::rtp;
namespace rtcp = rtcc::proto::rtcp;
namespace quic = rtcc::proto::quic;
using rtcc::util::Bytes;
using rtcc::util::BytesView;
using rtcc::util::Rng;

/// Owns datagram buffers and hands out views.
struct StreamFixture {
  std::vector<Bytes> buffers;

  void add(Bytes b, double ts = 0.0) {
    buffers.push_back(std::move(b));
    timestamps.push_back(ts);
  }
  std::vector<double> timestamps;

  [[nodiscard]] std::vector<StreamDatagram> datagrams() const {
    std::vector<StreamDatagram> out;
    for (std::size_t i = 0; i < buffers.size(); ++i) {
      StreamDatagram d;
      d.payload = BytesView{buffers[i]};
      d.ts = timestamps[i];
      out.push_back(d);
    }
    return out;
  }
};

Bytes rtp_packet(Rng& rng, std::uint32_t ssrc, std::uint16_t seq,
                 std::size_t payload = 100) {
  rtp::PacketBuilder b;
  b.payload_type(96).seq(seq).timestamp(seq * 960).ssrc(ssrc);
  b.payload(BytesView{rng.bytes(payload)});
  return b.build();
}

TEST(ScanningDpi, PlainRtpStreamAtOffsetZero) {
  Rng rng(1);
  StreamFixture f;
  for (std::uint16_t i = 0; i < 10; ++i)
    f.add(rtp_packet(rng, 0xAABB, static_cast<std::uint16_t>(100 + i)));
  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  ASSERT_EQ(out.size(), 10u);
  for (const auto& a : out) {
    EXPECT_EQ(a.klass, DatagramClass::kStandard);
    ASSERT_EQ(a.messages.size(), 1u);
    EXPECT_EQ(a.messages[0].kind, MessageKind::kRtp);
    EXPECT_EQ(a.messages[0].rtp->ssrc, 0xAABBu);
  }
}

TEST(ScanningDpi, RtpBehindProprietaryHeaderIsFound) {
  // The Zoom/FaceTime pattern: unknown bytes, then a standard message.
  Rng rng(2);
  StreamFixture f;
  for (std::uint16_t i = 0; i < 10; ++i) {
    Bytes header = {0x60, 0x00, 0x00, 0x20, 0x11, 0x22, 0x33, 0x44};
    Bytes inner = rtp_packet(rng, 0xCCDD, static_cast<std::uint16_t>(i));
    header.insert(header.end(), inner.begin(), inner.end());
    f.add(std::move(header));
  }
  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  for (const auto& a : out) {
    EXPECT_EQ(a.klass, DatagramClass::kProprietaryHeader);
    EXPECT_EQ(a.proprietary_header_len, 8u);
    ASSERT_EQ(a.messages.size(), 1u);
    EXPECT_EQ(a.messages[0].offset, 8u);
  }
}

TEST(ScanningDpi, OffsetLimitBoundsDiscovery) {
  // With k smaller than the header, the embedded message is missed and
  // the datagram classifies fully proprietary (the §4.1.1 tradeoff).
  Rng rng(3);
  StreamFixture f;
  for (std::uint16_t i = 0; i < 6; ++i) {
    Bytes header(40, 0x00);
    Bytes inner = rtp_packet(rng, 0x1234, static_cast<std::uint16_t>(i));
    header.insert(header.end(), inner.begin(), inner.end());
    f.add(std::move(header));
  }
  ScanOptions small;
  small.max_offset = 8;
  auto out_small = ScanningDpi(small).analyze_stream(f.datagrams());
  for (const auto& a : out_small)
    EXPECT_EQ(a.klass, DatagramClass::kFullyProprietary);

  ScanOptions enough;
  enough.max_offset = 200;
  auto out_big = ScanningDpi(enough).analyze_stream(f.datagrams());
  for (const auto& a : out_big)
    EXPECT_EQ(a.klass, DatagramClass::kProprietaryHeader);
}

TEST(ScanningDpi, FullyProprietaryDatagrams) {
  StreamFixture f;
  for (int i = 0; i < 5; ++i) f.add(Bytes(1000, 0x01));  // Zoom filler
  const ScanningDpi dpi;
  for (const auto& a : dpi.analyze_stream(f.datagrams())) {
    EXPECT_EQ(a.klass, DatagramClass::kFullyProprietary);
    EXPECT_TRUE(a.messages.empty());
  }
}

TEST(ScanningDpi, LowSupportRtpRejected) {
  // A single datagram whose bytes happen to parse as RTP must not be
  // reported: SSRC support requires min_ssrc_support appearances.
  Rng rng(4);
  StreamFixture f;
  f.add(rtp_packet(rng, 0x5555, 1));
  f.add(Bytes(200, 0x00));
  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  EXPECT_EQ(out[0].klass, DatagramClass::kFullyProprietary);
}

TEST(ScanningDpi, StunModernAtAnyReasonableOffset) {
  Rng rng(5);
  const Bytes msg = stun::MessageBuilder(stun::kBindingRequest)
                        .random_transaction_id(rng)
                        .build();
  StreamFixture f;
  Bytes shifted;
  shifted.reserve(12 + msg.size());
  shifted.assign(12, 0xEE);
  shifted.insert(shifted.end(), msg.begin(), msg.end());
  f.add(std::move(shifted));
  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  ASSERT_EQ(out[0].messages.size(), 1u);
  EXPECT_EQ(out[0].messages[0].kind, MessageKind::kStun);
  EXPECT_EQ(out[0].messages[0].offset, 12u);
  EXPECT_EQ(out[0].klass, DatagramClass::kProprietaryHeader);
}

TEST(ScanningDpi, ClassicStunNeedsExactFitAndKnownMethod) {
  Rng rng(6);
  // Classic (no cookie) Binding Request, exact datagram fit → found.
  const Bytes classic = stun::MessageBuilder(stun::kBindingRequest)
                            .classic_rfc3489(rng)
                            .random_transaction_id(rng)
                            .build();
  StreamFixture f;
  f.add(classic);
  // Same message with trailing junk → no exact fit → not a candidate.
  Bytes with_junk = classic;
  with_junk.insert(with_junk.end(), 8, 0xAB);
  f.add(std::move(with_junk));

  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  ASSERT_EQ(out[0].messages.size(), 1u);
  EXPECT_EQ(out[0].messages[0].kind, MessageKind::kStun);
  EXPECT_TRUE(out[1].messages.empty());
}

TEST(ScanningDpi, ZoomDoubleRtpIsSplit) {
  // §5.3: two RTP messages in one datagram, same SSRC, first has a
  // 7-byte payload.
  Rng rng(7);
  StreamFixture f;
  // Support packets so the SSRC validates.
  for (std::uint16_t i = 0; i < 8; ++i)
    f.add(rtp_packet(rng, 0xD0D0, static_cast<std::uint16_t>(i)));
  rtp::PacketBuilder first;
  first.payload_type(110).seq(100).timestamp(42).ssrc(0xD0D0);
  first.payload(BytesView{rng.bytes(7)});
  rtp::PacketBuilder second;
  second.payload_type(110).seq(107).timestamp(42).ssrc(0xD0D0);
  second.payload(BytesView{rng.bytes(500)});
  Bytes both = first.build();
  Bytes tail = second.build();
  both.insert(both.end(), tail.begin(), tail.end());
  f.add(std::move(both));

  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  const auto& doubled = out.back();
  ASSERT_EQ(doubled.messages.size(), 2u);
  EXPECT_EQ(doubled.messages[0].rtp->payload_len, 7u);
  EXPECT_EQ(doubled.messages[0].length, 19u);
  EXPECT_EQ(doubled.messages[1].offset, 19u);
  EXPECT_EQ(doubled.messages[1].rtp->payload_len, 500u);
  EXPECT_EQ(doubled.messages[0].rtp->timestamp,
            doubled.messages[1].rtp->timestamp);
}

TEST(ScanningDpi, RtcpCompoundWithTrailerExtracted) {
  rtcp::SenderReport sr;
  sr.sender_ssrc = 99;
  rtcp::Compound c;
  c.packets.push_back(rtcp::make_sender_report(sr));
  Bytes wire = rtcp::encode_compound(c);
  wire.push_back(0x00);
  wire.push_back(0x01);
  wire.push_back(0x80);  // Discord trailer

  StreamFixture f;
  f.add(wire);
  f.add(wire);  // SSRC support ≥ 2
  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  ASSERT_EQ(out[0].messages.size(), 1u);
  EXPECT_EQ(out[0].messages[0].kind, MessageKind::kRtcp);
  EXPECT_EQ(out[0].messages[0].rtcp->trailing.size(), 3u);
}

TEST(ScanningDpi, QuicLongAndShortHeaders) {
  Rng rng(8);
  quic::ConnectionId cid{rng.bytes(8)};
  StreamFixture f;
  f.add(quic::encode_long(quic::LongType::kInitial, quic::kVersion1, cid,
                          cid, BytesView{rng.bytes(200)}));
  f.add(quic::encode_long(quic::LongType::kHandshake, quic::kVersion1, cid,
                          cid, BytesView{rng.bytes(80)}));
  f.add(quic::encode_short(cid, BytesView{rng.bytes(60)}));
  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  ASSERT_EQ(out[0].messages.size(), 1u);
  EXPECT_EQ(out[0].messages[0].type_label(), "long-0");
  EXPECT_EQ(out[1].messages[0].type_label(), "long-2");
  ASSERT_EQ(out[2].messages.size(), 1u);
  EXPECT_EQ(out[2].messages[0].type_label(), "short");
}

TEST(ScanningDpi, ShortHeaderAloneIsNotQuic) {
  // Without a long-header handshake in the stream, 0x4X first bytes
  // must not be claimed as QUIC.
  Rng rng(9);
  StreamFixture f;
  Bytes fake = rng.bytes(80);
  fake[0] = 0x41;
  f.add(std::move(fake));
  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  EXPECT_TRUE(out[0].messages.empty());
}

TEST(ScanningDpi, ChannelDataRequiresRepeatedChannel) {
  StreamFixture f;
  stun::ChannelData cd;
  cd.channel_number = 0x4004;
  cd.data = Bytes(16, 7);
  const Bytes wire = stun::encode_channel_data(cd);
  f.add(wire);
  const ScanningDpi dpi;
  // Single occurrence → rejected (support < 2).
  auto out1 = dpi.analyze_stream(f.datagrams());
  EXPECT_TRUE(out1[0].messages.empty());
  // Repeated occurrences → accepted.
  f.add(wire);
  f.add(wire);
  auto out3 = dpi.analyze_stream(f.datagrams());
  ASSERT_EQ(out3[0].messages.size(), 1u);
  EXPECT_EQ(out3[0].messages[0].kind, MessageKind::kChannelData);
}

TEST(ScanningDpi, ValidationDisabledKeepsCandidates) {
  Rng rng(10);
  StreamFixture f;
  f.add(rtp_packet(rng, 0x7777, 5));  // single → normally rejected
  ScanOptions no_validate;
  no_validate.validate = false;
  auto out = ScanningDpi(no_validate).analyze_stream(f.datagrams());
  EXPECT_FALSE(out[0].messages.empty());
  EXPECT_GE(out[0].candidates, 1u);
}

TEST(ScanningDpi, CandidateCountsReported) {
  Rng rng(11);
  StreamFixture f;
  for (std::uint16_t i = 0; i < 5; ++i)
    f.add(rtp_packet(rng, 0x4242, i, 400));
  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  std::uint64_t candidates = 0, messages = 0;
  for (const auto& a : out) {
    candidates += a.candidates;
    messages += a.messages.size();
  }
  EXPECT_EQ(messages, 5u);
  EXPECT_GT(candidates, messages);  // scan noise exists and is filtered
}

// ---- Large streams ----
//
// The streams above stay far below 2048 RTP pairs, so stream-level
// validation never reaches the radix grouping or the repeat filter in
// front of it. This one has 5002 datagrams of random SRTP-like payload:
// ~10^5 noise pairs with one-off SSRCs, enough that the filter's hashed
// buckets collide. Datagrams 0..4999 carry a genuine stream behind a
// 4-byte proprietary header; the next two carry an SSRC that occurs
// exactly twice, with adjacent sequence numbers, at offset 0; the last
// three carry a weakly supported SSRC (3 packets) behind 40 bytes that
// start with an RTP-shaped header whose SSRC occurs nowhere else.

constexpr std::uint32_t kGenuineSsrc = 0x600DF00D;
constexpr std::uint32_t kTwinSsrc = 0x7A1A5EED;
constexpr std::uint32_t kWeakSsrc = 0x3EE3EE3E;
constexpr std::size_t kLargeGenuine = 5000;
constexpr std::size_t kTwinAt = kLargeGenuine;  // two datagrams

const StreamFixture& large_srtp_stream() {
  static const StreamFixture f = [] {
    Rng rng(17);
    StreamFixture out;
    for (std::size_t i = 0; i < kLargeGenuine; ++i) {
      Bytes d = {0x05, 0x31, static_cast<std::uint8_t>(i >> 8),
                 static_cast<std::uint8_t>(i)};
      const Bytes inner =
          rtp_packet(rng, kGenuineSsrc, static_cast<std::uint16_t>(i),
                     160 + rng.below(800));
      d.insert(d.end(), inner.begin(), inner.end());
      out.add(std::move(d));
    }
    out.add(rtp_packet(rng, kTwinSsrc, 500, 300));
    out.add(rtp_packet(rng, kTwinSsrc, 501, 300));
    for (std::uint16_t j = 0; j < 3; ++j) {
      // An RTP-shaped header with a random one-off SSRC at offset 1.
      Bytes d = {0x05, 0x80, 0x60};
      const Bytes noise = rng.bytes(37);
      d.insert(d.end(), noise.begin(), noise.end());
      const Bytes inner =
          rtp_packet(rng, kWeakSsrc, static_cast<std::uint16_t>(700 + j), 200);
      d.insert(d.end(), inner.begin(), inner.end());
      out.add(std::move(d));
    }
    return out;
  }();
  return f;
}

/// The levels this build can run; each large-stream case runs at all.
std::vector<SimdLevel> runnable_levels() {
  std::vector<SimdLevel> out;
  for (const SimdLevel l : {SimdLevel::kScalar, SimdLevel::kSse2})
    if (simd_level_supported(l)) out.push_back(l);
  return out;
}

bool has_rtp_ssrc(const DatagramAnalysis& a, std::uint32_t ssrc) {
  for (const auto& m : a.messages)
    if (m.kind == MessageKind::kRtp && m.rtp->ssrc == ssrc) return true;
  return false;
}

TEST(ScanningDpi, LargeStreamTwiceSeenSsrcNeedsSupportTwo) {
  const auto dgs = large_srtp_stream().datagrams();
  for (const SimdLevel level : runnable_levels()) {
    SCOPED_TRACE(to_string(level));
    const SimdModeGuard guard(level);
    ScanOptions two;
    two.min_ssrc_support = 2;
    const auto out2 = ScanningDpi(two).analyze_stream(dgs);
    ScanOptions three;
    three.min_ssrc_support = 3;
    const auto out3 = ScanningDpi(three).analyze_stream(dgs);
    for (std::size_t di = kTwinAt; di < kTwinAt + 2; ++di) {
      ASSERT_FALSE(out2[di].messages.empty()) << di;
      EXPECT_EQ(out2[di].messages[0].offset, 0u) << di;
      EXPECT_TRUE(has_rtp_ssrc(out2[di], kTwinSsrc)) << di;
      EXPECT_FALSE(has_rtp_ssrc(out3[di], kTwinSsrc)) << di;
    }
  }
}

TEST(ScanningDpi, LargeStreamGenuineSsrcBehindHeaderInEveryDatagram) {
  const auto dgs = large_srtp_stream().datagrams();
  for (const SimdLevel level : runnable_levels()) {
    SCOPED_TRACE(to_string(level));
    const SimdModeGuard guard(level);
    const auto out = ScanningDpi().analyze_stream(dgs);
    std::size_t found = 0;
    for (std::size_t di = 0; di < kLargeGenuine; ++di) {
      const auto& a = out[di];
      found += a.klass == DatagramClass::kProprietaryHeader &&
               a.proprietary_header_len == 4 && a.messages.size() == 1 &&
               a.messages[0].kind == MessageKind::kRtp &&
               a.messages[0].rtp->ssrc == kGenuineSsrc &&
               a.messages[0].rtp->sequence_number == static_cast<std::uint16_t>(di);
    }
    EXPECT_EQ(found, kLargeGenuine);
  }
}

TEST(ScanningDpi, LargeStreamUnvalidatedCountsArePinned) {
  // With validation off every candidate survives to the overlap
  // dominance rule, which asks for the support of noise SSRCs the
  // repeat filter drops: in the last three datagrams the one-off SSRC
  // at offset 1 (support 1) competes with the weak SSRC (support 3). The
  // constants were recorded before the filter existed; any change in a
  // per-datagram message list moves the digest.
  const auto dgs = large_srtp_stream().datagrams();
  for (const SimdLevel level : runnable_levels()) {
    SCOPED_TRACE(to_string(level));
    const SimdModeGuard guard(level);
    ScanOptions no_validate;
    no_validate.validate = false;
    const auto out = ScanningDpi(no_validate).analyze_stream(dgs);
    std::uint64_t candidates = 0, messages = 0;
    std::uint64_t digest = 14695981039346656037ULL;  // FNV-1a
    const auto mix = [&digest](std::uint64_t v) {
      digest ^= v;
      digest *= 1099511628211ULL;
    };
    for (const auto& a : out) {
      candidates += a.candidates;
      messages += a.messages.size();
      mix(a.messages.size());
      for (const auto& m : a.messages)
        mix(m.offset << 8 | static_cast<std::uint64_t>(m.kind));
    }
    EXPECT_EQ(candidates, 111855u);
    EXPECT_EQ(messages, 5005u);
    EXPECT_EQ(digest, 10847191808898216578ULL);
  }
}

TEST(StrictDpi, OffsetZeroOnly) {
  Rng rng(12);
  StreamFixture f;
  // Static PT 8 (PCMA) at offset 0 → strict finds it.
  rtp::PacketBuilder ok;
  ok.payload_type(8).seq(1).timestamp(2).ssrc(3);
  ok.payload(BytesView{rng.bytes(50)});
  f.add(ok.build());
  // Same message behind 8 junk bytes → strict misses it.
  Bytes shifted(8, 0xAA);
  Bytes inner = ok.build();
  shifted.insert(shifted.end(), inner.begin(), inner.end());
  f.add(std::move(shifted));

  const StrictDpi strict;
  auto out = strict.analyze_stream(f.datagrams());
  EXPECT_EQ(out[0].messages.size(), 1u);
  EXPECT_TRUE(out[1].messages.empty());
  EXPECT_EQ(out[1].klass, DatagramClass::kFullyProprietary);
}

TEST(StrictDpi, DynamicPayloadTypesRejected) {
  // The Peafowl restriction the paper removed (§4.1.1).
  Rng rng(13);
  rtp::PacketBuilder b;
  b.payload_type(96).seq(1).timestamp(2).ssrc(3);
  b.payload(BytesView{rng.bytes(50)});
  StreamFixture f;
  f.add(b.build());

  const StrictDpi strict;
  EXPECT_TRUE(strict.analyze_stream(f.datagrams())[0].messages.empty());

  StrictOptions relaxed;
  relaxed.restrict_rtp_payload_types = false;
  EXPECT_EQ(StrictDpi(relaxed).analyze_stream(f.datagrams())[0]
                .messages.size(),
            1u);
}

TEST(StrictDpi, RequiresMagicCookieForStun) {
  Rng rng(14);
  StreamFixture f;
  f.add(stun::MessageBuilder(stun::kBindingRequest)
            .classic_rfc3489(rng)
            .random_transaction_id(rng)
            .build());
  f.add(stun::MessageBuilder(stun::kBindingRequest)
            .random_transaction_id(rng)
            .build());
  const StrictDpi strict;
  auto out = strict.analyze_stream(f.datagrams());
  EXPECT_TRUE(out[0].messages.empty());     // classic rejected
  EXPECT_EQ(out[1].messages.size(), 1u);    // modern accepted
}

TEST(MessageModel, TypeLabelsAndProtocols) {
  EXPECT_EQ(protocol_of(MessageKind::kStun), proto::Protocol::kStunTurn);
  EXPECT_EQ(protocol_of(MessageKind::kChannelData),
            proto::Protocol::kStunTurn);
  EXPECT_EQ(protocol_of(MessageKind::kRtp), proto::Protocol::kRtp);
  EXPECT_EQ(protocol_of(MessageKind::kRtcp), proto::Protocol::kRtcp);
  EXPECT_EQ(protocol_of(MessageKind::kQuic), proto::Protocol::kQuic);
  EXPECT_EQ(to_string(DatagramClass::kProprietaryHeader),
            "proprietary-header");
}

}  // namespace
}  // namespace rtcc::dpi
