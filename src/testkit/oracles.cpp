#include "testkit/oracles.hpp"

#include <algorithm>
#include <sstream>

#include "compliance/checker.hpp"
#include "dpi/anchor_scan.hpp"
#include "dpi/scanning_dpi.hpp"
#include "dpi/strict_dpi.hpp"
#include "dpi/simd_dispatch.hpp"
#include "net/headers.hpp"
#include "net/pcap.hpp"
#include "proto/demux.hpp"
#include "proto/quic/quic.hpp"
#include "proto/rtcp/rtcp.hpp"
#include "proto/rtp/rtp.hpp"
#include "proto/stun/stun.hpp"
#include "proto/tls/client_hello.hpp"
#include "proto/vendor/vendor_headers.hpp"
#include "report/json_export.hpp"
#include "report/metrics.hpp"
#include "stream/chunk_reader.hpp"
#include "stream/engine.hpp"
#include "stream/stream_mode.hpp"

namespace rtcc::testkit {

namespace {

using rtcc::util::Bytes;
using rtcc::util::BytesView;

/// Exact dyadic timestamps (multiples of 1/64 s) survive the pcap
/// µs quantisation bit-for-bit, so encode→decode→encode comparisons
/// never trip over timestamp rounding.
double ts_for(std::size_t i) { return static_cast<double>(i) * 0.015625; }

std::vector<rtcc::dpi::StreamDatagram> as_stream(
    const std::vector<Bytes>& datagrams, bool alternate_dir) {
  std::vector<rtcc::dpi::StreamDatagram> out;
  out.reserve(datagrams.size());
  for (std::size_t i = 0; i < datagrams.size(); ++i)
    out.push_back({BytesView{datagrams[i]}, ts_for(i),
                   alternate_dir ? static_cast<int>(i & 1) : 0});
  return out;
}

std::optional<std::string> compare_analyses(
    const std::vector<rtcc::dpi::DatagramAnalysis>& a,
    const std::vector<rtcc::dpi::DatagramAnalysis>& b, const char* a_name,
    const char* b_name) {
  std::ostringstream err;
  if (a.size() != b.size()) {
    err << a_name << " produced " << a.size() << " analyses, " << b_name
        << " produced " << b.size();
    return err.str();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    const auto fail = [&](const char* what) {
      err << "datagram " << i << ": " << a_name << " vs " << b_name
          << " disagree on " << what;
      return err.str();
    };
    if (x.klass != y.klass) return fail("class");
    if (x.proprietary_header_len != y.proprietary_header_len)
      return fail("proprietary_header_len");
    if (x.payload_len != y.payload_len) return fail("payload_len");
    if (x.candidates != y.candidates) return fail("candidates");
    if (x.messages.size() != y.messages.size()) return fail("message count");
    for (std::size_t m = 0; m < x.messages.size(); ++m) {
      const auto& mx = x.messages[m];
      const auto& my = y.messages[m];
      if (mx.kind != my.kind) return fail("message kind");
      if (mx.offset != my.offset) return fail("message offset");
      if (mx.length != my.length) return fail("message length");
      if (mx.type_label() != my.type_label()) return fail("message type label");
      if (mx.raw != my.raw) return fail("message raw bytes");
    }
  }
  return std::nullopt;
}

/// Independent scalar re-implementation of the anchor conditions in
/// dpi/anchor_scan.hpp (the tail-loop rules applied at every offset).
/// Deliberately written against the *documented* conditions, not the
/// SIMD code, so it can catch both scalar and vector-path regressions.
void reference_anchor_scan(BytesView payload, const rtcc::dpi::ScanOptions& opts,
                           std::vector<rtcc::dpi::AnchorHit>& out) {
  namespace anchor = rtcc::dpi::anchor;
  namespace stun = rtcc::proto::stun;
  namespace quic = rtcc::proto::quic;
  const std::size_t n = payload.size();
  const std::size_t limit = std::min(opts.max_offset + 1, n);
  const std::uint8_t* p = payload.data();
  for (std::size_t i = 0; i < limit; ++i) {
    const std::uint8_t b0 = p[i];
    const std::size_t rem = n - i;
    std::uint8_t mask = 0;
    switch (b0 >> 6) {
      case 2: {
        const std::uint8_t pt = rem >= 2 ? p[i + 1] : 0;
        const bool rtcp_pt = pt >= 200 && pt <= 207;
        // Full RTP header fit, incl. the extension words when present
        // (independently restated from dpi::rtp_header_fits).
        std::size_t need = 12 + 4 * (b0 & 0x0F);
        bool fits = need <= rem;
        if (fits && (b0 & 0x10) != 0) {
          need += 4;
          fits = need <= rem &&
                 need + 4 * std::size_t{rtcc::util::load_be16(
                                p + i + need - 2)} <=
                     rem;
        }
        if (opts.scan_rtp && !rtcp_pt && fits) mask |= anchor::kRtp;
        else if (opts.scan_rtcp && rtcp_pt && rem >= 8) mask |= anchor::kRtcp;
        break;
      }
      case 0:
        if (opts.scan_stun && rem >= stun::kHeaderSize) {
          const bool modern =
              rtcc::util::load_be32(p + i + 4) == stun::kMagicCookie;
          const bool classic_fit =
              stun::kHeaderSize +
                  std::size_t{rtcc::util::load_be16(p + i + 2)} ==
              rem;
          if (modern || classic_fit) mask |= anchor::kStun;
        }
        break;
      case 1:
        if (opts.scan_stun && b0 <= 0x4F && rem >= 4 &&
            4 + std::size_t{rtcc::util::load_be16(p + i + 2)} <= rem)
          mask |= anchor::kChannelData;
        if (opts.scan_quic && i == 0) mask |= anchor::kQuicShort;
        break;
      default:  // 3
        if (opts.scan_quic && rem >= 5 &&
            rtcc::util::load_be32(p + i + 1) == quic::kVersion1)
          mask |= anchor::kQuicLong;
        break;
    }
    if (mask) out.push_back({static_cast<std::uint32_t>(i), mask});
  }
}

net::FrameSpec oracle_frame_spec() {
  net::FrameSpec spec;
  spec.src = net::IpAddr::v4(10, 0, 0, 1);
  spec.dst = net::IpAddr::v4(10, 0, 0, 2);
  spec.src_port = 40000;
  spec.dst_port = 3478;
  spec.transport = net::Transport::kUdp;
  return spec;
}

/// UDP payload length field is 16-bit; anything bigger cannot be framed.
constexpr std::size_t kMaxFramePayload = 60000;

std::optional<std::string> compare_traces(const net::Trace& a,
                                          const net::Trace& b,
                                          const char* a_name,
                                          const char* b_name) {
  std::ostringstream err;
  if (a.size() != b.size()) {
    err << a_name << " has " << a.size() << " frames, " << b_name << " has "
        << b.size();
    return err.str();
  }
  if (a.total_bytes() != b.total_bytes()) {
    err << a_name << " total_bytes " << a.total_bytes() << " != " << b_name
        << " total_bytes " << b.total_bytes();
    return err.str();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.frames()[i].ts != b.frames()[i].ts) {
      err << "frame " << i << " ts differs between " << a_name << " and "
          << b_name;
      return err.str();
    }
    const BytesView va = a.frame_bytes(i);
    const BytesView vb = b.frame_bytes(i);
    if (va.size() != vb.size() ||
        !std::equal(va.begin(), va.end(), vb.begin())) {
      err << "frame " << i << " bytes differ between " << a_name << " and "
          << b_name;
      return err.str();
    }
  }
  return std::nullopt;
}

std::vector<compliance::CheckedMessage> run_checker(
    const std::vector<rtcc::dpi::StreamDatagram>& stream,
    const std::vector<rtcc::dpi::DatagramAnalysis>& analyses, int passes) {
  compliance::StreamComplianceChecker checker;
  for (std::size_t i = 0; i < analyses.size(); ++i)
    for (const auto& msg : analyses[i].messages)
      checker.observe(msg, stream[i].dir, stream[i].ts);
  checker.finalize();
  std::vector<compliance::CheckedMessage> out;
  for (int pass = 0; pass < passes; ++pass) {
    out.clear();
    for (std::size_t i = 0; i < analyses.size(); ++i)
      for (const auto& msg : analyses[i].messages) {
        auto checked = checker.check(msg, stream[i].dir, stream[i].ts);
        out.insert(out.end(), checked.begin(), checked.end());
      }
  }
  return out;
}

std::optional<std::string> compare_checked(
    const std::vector<compliance::CheckedMessage>& a,
    const std::vector<compliance::CheckedMessage>& b, const char* what) {
  std::ostringstream err;
  if (a.size() != b.size()) {
    err << what << ": " << a.size() << " vs " << b.size()
        << " checked messages";
    return err.str();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    const auto fail = [&](const char* field) {
      err << what << ": checked message " << i << " differs on " << field;
      return err.str();
    };
    if (x.protocol != y.protocol) return fail("protocol");
    if (x.type_label != y.type_label) return fail("type_label");
    if (x.ts != y.ts) return fail("ts");
    if (x.dir != y.dir) return fail("dir");
    if (x.verdict.compliant != y.verdict.compliant) return fail("compliant");
    if (x.verdict.violations.size() != y.verdict.violations.size())
      return fail("violation count");
    for (std::size_t v = 0; v < x.verdict.violations.size(); ++v) {
      if (x.verdict.violations[v].criterion != y.verdict.violations[v].criterion)
        return fail("violation criterion");
      if (x.verdict.violations[v].detail != y.verdict.violations[v].detail)
        return fail("violation detail");
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> parser_sweep(BytesView data) {
  namespace stun = rtcc::proto::stun;
  namespace rtp = rtcc::proto::rtp;
  namespace rtcp = rtcc::proto::rtcp;
  namespace quic = rtcc::proto::quic;
  namespace tls = rtcc::proto::tls;
  namespace vendor = rtcc::proto::vendor;
  std::ostringstream err;

  if (auto r = stun::parse(data)) {
    if (r->consumed > data.size()) return "stun: consumed > input size";
    if (r->consumed != r->message.wire_size())
      return "stun: consumed != wire_size()";
  }
  {
    stun::ParseOptions strict_opts;
    strict_opts.require_magic_cookie = true;
    if (auto r = stun::parse(data, strict_opts)) {
      if (!r->message.has_magic_cookie())
        return "stun: require_magic_cookie accepted a cookieless message";
    }
  }
  if (auto cd = stun::parse_channel_data(data)) {
    if (cd->wire_size() > data.size())
      return "channel_data: wire_size > input size";
    if (cd->data.size() != cd->length)
      return "channel_data: data.size() != declared length";
    if (cd->channel_number < 0x4000 || cd->channel_number > 0x4FFF)
      return "channel_data: channel number outside RFC 8656 range";
  }

  if (auto r = rtp::parse(data)) {
    if (r->consumed > data.size()) return "rtp: consumed > input size";
    if (r->packet.padding_len > data.size())
      return "rtp: padding_len > input size";
    // Re-encoding any accepted packet must be well-defined (crash/UB
    // detection is the sanitizers' job).
    (void)rtp::encode(r->packet);
  }

  if (auto c = rtcp::parse_compound(data)) {
    if (c->parsed_size() > data.size())
      return "rtcp: parsed_size > input size";
    if (c->packets.empty()) return "rtcp: empty compound accepted";
    for (const auto& p : c->packets) {
      if (p.version != 2) return "rtcp: accepted version != 2";
      if (!rtcp::is_rtcp_packet_type(p.packet_type))
        return "rtcp: accepted non-RTCP packet type";
      if (p.body.size() != std::size_t{p.length_words} * 4)
        return "rtcp: body size != declared length";
      // Typed decoders must survive any accepted packet.
      (void)rtcp::decode_sender_report(p);
      (void)rtcp::decode_receiver_report(p);
      (void)rtcp::decode_sdes(p);
      (void)rtcp::decode_bye(p);
      (void)rtcp::decode_app(p);
      (void)rtcp::decode_feedback(p);
      (void)rtcp::decode_xr(p);
    }
  }
  {
    rtcp::ParseOptions exact;
    exact.allow_trailing = false;
    if (auto c = rtcp::parse_compound(data, exact)) {
      if (!c->trailing.empty())
        return "rtcp: allow_trailing=false returned trailing bytes";
      if (c->parsed_size() != data.size())
        return "rtcp: allow_trailing=false accepted a non-exact fit";
    }
  }

  if (auto h = quic::parse(data)) {
    if (h->wire_size() > data.size()) return "quic: wire_size > input size";
    if (!h->long_form && h->wire_size() != data.size())
      return "quic: short header does not span the datagram";
  }
  if (auto v = quic::read_varint(data)) {
    if (v->width != 1 && v->width != 2 && v->width != 4 && v->width != 8)
      return "quic: varint width not in {1,2,4,8}";
    if (v->width > data.size()) return "quic: varint width > input size";
  }

  (void)tls::looks_like_tls_handshake(data);
  (void)tls::extract_sni(data);
  if (!data.empty())
    (void)rtcc::proto::to_string(rtcc::proto::classify_first_byte(data[0]));

  if (auto z = vendor::parse_zoom_header(data)) {
    if (z->header_size != 24 && z->header_size != 28)
      return "zoom: header_size not 24/28";
    if (z->header_size + z->embedded_length != data.size())
      return "zoom: embedded_length does not cover the remainder";
  }
  if (auto f = vendor::parse_facetime_header(data)) {
    if (f->header_size > data.size())
      return "facetime: header_size > input size";
    if (f->header_size < 8 || f->header_size > 19)
      return "facetime: header_size outside 8..19";
  }

  if (auto d = net::decode_frame(data)) {
    const std::uint8_t* lo = data.data();
    const std::uint8_t* hi = data.data() + data.size();
    if (!d->payload.empty() &&
        (d->payload.data() < lo || d->payload.data() + d->payload.size() > hi))
      return "decode_frame: payload view escapes the frame";
  }

  // Fail-soft pcap decode: whatever survives the magic check must keep
  // the capture-layer accounting honest.
  if (auto t = net::decode_pcap(data)) {
    const net::IngestStats& in = t->ingest();
    if (in.frames_seen != t->size())
      return "pcap: ingest.frames_seen != decoded frame count";
    if (in.torn_tail > 1)
      return "pcap: more than one torn-tail event in a single file";
    if (in.bad_usec > in.frames_seen || in.snaplen_clipped > in.frames_seen)
      return "pcap: per-record loss counters exceed frames_seen";
  }
  return std::nullopt;
}

std::optional<std::string> check_anchor_parity(BytesView payload) {
  const rtcc::dpi::ScanOptions opts;
  std::vector<rtcc::dpi::AnchorHit> simd;
  std::vector<rtcc::dpi::AnchorHit> ref;
  rtcc::dpi::scan_anchors(payload, opts, simd);
  reference_anchor_scan(payload, opts, ref);
  if (simd.size() != ref.size()) {
    std::ostringstream err;
    err << "anchor parity: scan_anchors found " << simd.size()
        << " hits, scalar reference found " << ref.size() << " (payload "
        << payload.size() << " bytes)";
    return err.str();
  }
  for (std::size_t i = 0; i < simd.size(); ++i) {
    if (simd[i].offset != ref[i].offset || simd[i].mask != ref[i].mask) {
      std::ostringstream err;
      err << "anchor parity: hit " << i << " differs: scan_anchors offset "
          << simd[i].offset << " mask " << int{simd[i].mask}
          << " vs reference offset " << ref[i].offset << " mask "
          << int{ref[i].mask};
      return err.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_scan_equivalence(
    const std::vector<Bytes>& datagrams) {
  const auto stream = as_stream(datagrams, /*alternate_dir=*/true);
  rtcc::dpi::ScanOptions anchored;
  anchored.use_anchor_prefilter = true;
  rtcc::dpi::ScanOptions naive;
  naive.use_anchor_prefilter = false;
  const auto a = rtcc::dpi::ScanningDpi(anchored).analyze_stream(stream);
  const auto b = rtcc::dpi::ScanningDpi(naive).analyze_stream(stream);
  return compare_analyses(a, b, "anchored", "naive");
}

std::optional<std::string> check_arena_parity(
    const std::vector<Bytes>& payloads) {
  const net::FrameSpec spec = oracle_frame_spec();

  // The two producers a trace's arena has: frames written in place
  // (build_frame_arena, the emulator's path) and frames built into a
  // temporary vector then copied onto the slab tail (add_frame).
  net::Trace in_place;
  net::Trace copied;
  std::size_t kept = 0;
  for (const auto& payload : payloads) {
    if (payload.size() > kMaxFramePayload) continue;
    const double ts = ts_for(kept++);
    in_place.add_frame(
        net::build_frame_arena(in_place.arena(), ts, spec, payload));
    copied.add_frame(ts, net::build_frame(spec, payload));
  }
  if (auto err = compare_traces(in_place, copied, "in-place", "copied"))
    return "arena parity: " + *err;

  const Bytes enc = net::encode_pcap(in_place);
  if (enc != net::encode_pcap(copied))
    return "arena parity: encode_pcap bytes differ between producers";

  // Decode agreement: copying decode vs zero-copy views over the bytes.
  const auto dec_copy = net::decode_pcap(enc);
  const auto dec_view = net::decode_pcap_zero_copy(enc);
  if (!dec_copy || !dec_view)
    return "arena parity: decode_pcap failed on encoder output";
  if (auto err = compare_traces(*dec_copy, *dec_view, "copy-decode",
                                "zero-copy-decode"))
    return "arena parity: " + *err;
  return std::nullopt;
}

std::optional<std::string> check_pcap_roundtrip(
    const std::vector<Bytes>& payloads) {
  const net::FrameSpec spec = oracle_frame_spec();
  net::Trace trace;
  std::size_t kept = 0;
  for (const auto& payload : payloads) {
    if (payload.size() > kMaxFramePayload) continue;
    trace.add_frame(ts_for(kept++), net::build_frame(spec, payload));
  }

  const Bytes e1 = net::encode_pcap(trace);
  std::string error;
  const auto d1 = net::decode_pcap(e1, &error);
  if (!d1) return "pcap roundtrip: decode_pcap rejected encoder output: " + error;
  if (auto err = compare_traces(trace, *d1, "original", "decoded"))
    return "pcap roundtrip: " + *err;
  const Bytes e2 = net::encode_pcap(*d1);
  if (e2 != e1) return "pcap roundtrip: encode(decode(x)) != x";

  // Capture-layer ingest accounting on a clean synthetic file: every
  // record intact, nothing torn, clipped, or clamped.
  const net::IngestStats& in = d1->ingest();
  if (in.frames_seen != d1->size())
    return "pcap roundtrip: ingest.frames_seen != decoded frame count";
  if (in.torn_tail != 0 || in.snaplen_clipped != 0 || in.bad_usec != 0)
    return "pcap roundtrip: loss counters nonzero on a clean capture";
  if (d1->linktype() != trace.linktype())
    return "pcap roundtrip: linktype not preserved";

  const auto dz = net::decode_pcap_zero_copy(e1);
  if (!dz) return "pcap roundtrip: zero-copy decode rejected encoder output";
  if (auto err = compare_traces(*d1, *dz, "decoded", "zero-copy"))
    return "pcap roundtrip: " + *err;
  if (!(dz->ingest() == in))
    return "pcap roundtrip: zero-copy ingest stats differ from copying decode";
  return std::nullopt;
}

std::optional<std::string> check_strict_subset(const SeedStream& stream) {
  switch (stream.family) {
    case SeedFamily::kStun:
    case SeedFamily::kChannelData:
    case SeedFamily::kRtp:
    case SeedFamily::kRtcp:
    case SeedFamily::kQuic:
      break;
    default:
      // Vendor / emulated streams carry no cross-datagram support
      // guarantees, so the subset relation is not a sound oracle there.
      return std::nullopt;
  }
  const auto datagrams = as_stream(stream.datagrams, /*alternate_dir=*/false);
  const auto strict = rtcc::dpi::StrictDpi().analyze_stream(datagrams);
  const auto scan = rtcc::dpi::ScanningDpi().analyze_stream(datagrams);
  std::ostringstream err;
  for (std::size_t i = 0; i < datagrams.size(); ++i) {
    // Seed-stream construction guarantees every datagram satisfies the
    // scanner's stream-level validators.
    if (scan[i].klass != rtcc::dpi::DatagramClass::kStandard) {
      err << "strict subset: " << to_string(stream.family) << " seed datagram "
          << i << " not standard under the scanning DPI ("
          << rtcc::dpi::to_string(scan[i].klass) << ")";
      return err.str();
    }
    if (strict[i].klass != rtcc::dpi::DatagramClass::kStandard) continue;
    if (strict[i].messages.empty() || scan[i].messages.empty()) {
      err << "strict subset: datagram " << i
          << " standard but message list empty";
      return err.str();
    }
    const auto& sm = strict[i].messages.front();
    const auto& cm = scan[i].messages.front();
    if (sm.offset != 0 || cm.offset != 0) {
      err << "strict subset: datagram " << i << " first message not at offset 0";
      return err.str();
    }
    if (sm.kind != cm.kind) {
      err << "strict subset: datagram " << i << " kind mismatch: strict "
          << rtcc::dpi::to_string(sm.kind) << " vs scanning "
          << rtcc::dpi::to_string(cm.kind);
      return err.str();
    }
    if (sm.type_label() != cm.type_label()) {
      err << "strict subset: datagram " << i << " type label mismatch: strict "
          << sm.type_label() << " vs scanning " << cm.type_label();
      return err.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_checker_idempotence(
    const std::vector<Bytes>& datagrams) {
  const auto stream = as_stream(datagrams, /*alternate_dir=*/true);
  const auto analyses = rtcc::dpi::ScanningDpi().analyze_stream(stream);
  const auto first = run_checker(stream, analyses, /*passes=*/1);
  const auto repeated = run_checker(stream, analyses, /*passes=*/2);
  if (auto err = compare_checked(first, repeated,
                                 "checker idempotence (re-check)"))
    return err;
  const auto rebuilt = run_checker(stream, analyses, /*passes=*/1);
  return compare_checked(first, rebuilt, "checker idempotence (re-run)");
}

std::optional<std::string> check_frame_decode(BytesView frame) {
  // Every declared linktype plus one nobody declares (DLT_USER0).
  static constexpr std::uint32_t kLinktypes[] = {
      net::kLinkNull,     net::kLinkEthernet, net::kLinkRaw,
      net::kLinkLinuxSll, net::kLinkSll2,     147};
  std::ostringstream err;
  for (const std::uint32_t lt : kLinktypes) {
    const std::string name = net::linktype_name(lt);
    const auto fail = [&](const char* what) {
      err << "frame decode (" << name << "): " << what;
      return err.str();
    };

    net::IngestStats s1;
    net::IngestStats s2;
    const auto a = net::decode_frame(frame, lt, &s1);
    const auto b = net::decode_frame(frame, lt, &s2);
    if (a.has_value() != b.has_value())
      return fail("decode_frame is non-deterministic");
    if (!(s1 == s2)) return fail("stats differ between identical calls");
    if (a) {
      if (a->src != b->src || a->dst != b->dst ||
          a->src_port != b->src_port || a->dst_port != b->dst_port ||
          a->transport != b->transport || a->is_v6 != b->is_v6 ||
          a->payload.size() != b->payload.size())
        return fail("decoded fields differ between identical calls");
      if (a->reassembled)
        return fail("stateless decode claimed a reassembled payload");
      const std::uint8_t* lo = frame.data();
      const std::uint8_t* hi = frame.data() + frame.size();
      if (!a->payload.empty() &&
          (a->payload.data() < lo ||
           a->payload.data() + a->payload.size() > hi))
        return fail("payload view escapes the frame");
    }

    // Exactly one outcome counter per call, and none of the capture- or
    // reassembly-layer counters from the stateless path.
    const std::uint64_t outcomes = s1.frames_decoded + s1.fragments_seen +
                                   s1.non_ip + s1.undecodable +
                                   s1.clipped_undecodable +
                                   s1.unsupported_linktype;
    if (outcomes != 1) {
      err << "frame decode (" << name << "): " << outcomes
          << " outcome counters booked for one call";
      return err.str();
    }
    if (s1.frames_decoded != (a ? 1u : 0u))
      return fail("frames_decoded disagrees with the returned value");
    if (s1.frames_seen != 0 || s1.torn_tail != 0 || s1.snaplen_clipped != 0 ||
        s1.bad_usec != 0 || s1.fragments_reassembled != 0 ||
        s1.fragments_expired != 0)
      return fail("stateless decode touched capture/reassembly counters");
    if (!net::linktype_supported(lt) && s1.unsupported_linktype != 1)
      return fail("unsupported linktype not counted as such");

    // The stateful decoder must agree on a single frame: one fragment
    // can never complete a datagram (a lone MF=0/offset=0 piece is not
    // a fragment at all), so reassembly cannot change the outcome.
    net::FrameDecoder decoder(lt);
    const auto d = decoder.decode(frame);
    decoder.finish();
    const net::IngestStats& ds = decoder.stats();
    if (d.has_value() != a.has_value())
      return fail("FrameDecoder disagrees with stateless decode_frame");
    if (ds.fragments_reassembled != 0)
      return fail("FrameDecoder reassembled a datagram from one fragment");
    const std::uint64_t booked =
        (ds.frames_decoded - ds.fragments_reassembled) + ds.fragments_seen +
        ds.non_ip + ds.undecodable + ds.clipped_undecodable +
        ds.unsupported_linktype;
    if (booked != 1) {
      err << "frame decode (" << name << "): FrameDecoder booked " << booked
          << " outcomes for one frame";
      return err.str();
    }
    if (ds.fragments_seen != ds.fragments_expired)
      return fail("fragment not expired by finish()");
    if (ds.vlan_stripped != s1.vlan_stripped)
      return fail("vlan_stripped disagrees between decode paths");
  }
  return std::nullopt;
}

std::optional<std::string> run_buffer_oracles(BytesView data) {
  if (auto err = parser_sweep(data)) return "parser_sweep: " + *err;
  if (auto err = check_anchor_parity(data)) return err;
  if (auto err = check_frame_decode(data)) return err;
  return std::nullopt;
}

std::optional<std::string> check_simd_parity(
    const std::vector<Bytes>& datagrams) {
  const auto stream = as_stream(datagrams, /*alternate_dir=*/true);
  const rtcc::dpi::ScanningDpi dpi;
  std::optional<std::vector<rtcc::dpi::DatagramAnalysis>> scalar;
  for (const auto level :
       {rtcc::dpi::SimdLevel::kScalar, rtcc::dpi::SimdLevel::kSse2,
        rtcc::dpi::SimdLevel::kAvx2, rtcc::dpi::SimdLevel::kNeon}) {
    if (!rtcc::dpi::simd_level_supported(level)) continue;
    const rtcc::dpi::SimdModeGuard guard(level);
    auto got = dpi.analyze_stream(stream);
    if (!scalar) {
      scalar = std::move(got);
      continue;
    }
    if (auto err = compare_analyses(*scalar, got, "scalar",
                                    rtcc::dpi::to_string(level).c_str()))
      return "simd parity: " + *err;
  }
  return std::nullopt;
}

namespace {

/// Spreads the datagrams round-robin over several bidirectional flows
/// (distinct port pairs; direction flips each lap) so flow-routed
/// execution modes (the pool, the streaming flow table) see a populated
/// multi-flow working set. Empty when nothing frameable survives.
net::Trace multi_flow_trace(const std::vector<Bytes>& datagrams) {
  constexpr std::size_t kFlows = 8;
  const net::FrameSpec base = oracle_frame_spec();
  net::Trace trace;
  std::size_t kept = 0;
  for (const auto& payload : datagrams) {
    if (payload.size() > kMaxFramePayload) continue;
    const std::size_t flow = kept % kFlows;
    net::FrameSpec spec = base;
    spec.src_port = static_cast<std::uint16_t>(40000 + flow);
    spec.dst_port = static_cast<std::uint16_t>(20000 + flow);
    if ((kept / kFlows) % 2 == 1) {
      std::swap(spec.src, spec.dst);
      std::swap(spec.src_port, spec.dst_port);
    }
    trace.add_frame(ts_for(kept++), net::build_frame(spec, payload));
  }
  return trace;
}

/// A schedule window enclosing every oracle timestamp, no port/SNI
/// exclusions: the filter keeps all flows, so every execution mode's
/// hot path sees every stream.
rtcc::filter::FilterConfig keep_all_filter_config() {
  rtcc::filter::FilterConfig fcfg;
  fcfg.schedule.call_start = 0.0;
  fcfg.schedule.call_end = 1e6;
  fcfg.schedule.capture_end = 1e6 + 60.0;
  return fcfg;
}

/// Report JSON with the knob-dependent "flows" diagnostic dropped — the
/// slice that must be execution-mode-invariant.
std::string mode_invariant_json(rtcc::report::CallAnalysis a) {
  a.flows = {};
  return rtcc::report::to_json(a);
}

/// First difference between a streaming run and the batch reference:
/// the merged report, then each per-stream partial.
std::optional<std::string> diff_from_batch(
    const rtcc::report::CallAnalysis& got,
    const std::vector<rtcc::report::CallAnalysis>& parts,
    const std::string& ref_json,
    const std::vector<rtcc::report::CallAnalysis>& ref_parts) {
  if (mode_invariant_json(got) != ref_json)
    return std::string("merged report differs from batch");
  if (parts.size() != ref_parts.size())
    return std::to_string(parts.size()) +
           " per-stream partials, batch produced " +
           std::to_string(ref_parts.size());
  for (std::size_t si = 0; si < parts.size(); ++si)
    if (mode_invariant_json(parts[si]) != mode_invariant_json(ref_parts[si]))
      return "stream " + std::to_string(si) + " partial differs from batch";
  return std::nullopt;
}

/// Per-flow dispositions the batch filter assigns, indexed like the
/// stream table.
std::vector<rtcc::filter::Disposition> batch_dispositions(
    const net::Trace& trace, const rtcc::filter::FilterConfig& fcfg) {
  return rtcc::filter::run_pipeline(trace, net::group_streams(trace), fcfg)
      .dispositions;
}

/// Installs an epoch sink on `engine` that keeps each ordinal's latest
/// disposition; after finish() (whose final pass settles every flow)
/// `out` holds the final verdicts in ordinal order.
void record_dispositions(rtcc::stream::StreamingAnalyzer& engine,
                         std::vector<rtcc::filter::Disposition>& out) {
  engine.set_epoch(0.0, [&out](const rtcc::stream::EpochReport& ep) {
    for (const auto& v : ep.verdicts) {
      if (v.ordinal >= out.size()) out.resize(v.ordinal + 1);
      out[v.ordinal] = v.disposition;
    }
  });
}

/// analyze_trace_streaming with the final verdicts recorded.
rtcc::report::CallAnalysis stream_with_verdicts(
    const net::Trace& trace, const rtcc::filter::FilterConfig& fcfg,
    const rtcc::report::AnalysisOptions& opts,
    const rtcc::stream::StreamOptions& sopts,
    std::vector<rtcc::filter::Disposition>& dispositions,
    std::vector<rtcc::report::CallAnalysis>* per_stream = nullptr) {
  rtcc::stream::StreamingAnalyzer engine(trace.linktype(), fcfg, opts, sopts);
  engine.capture_stats() = trace.ingest();
  record_dispositions(engine, dispositions);
  for (const auto& frame : trace.frames())
    engine.push_frame(trace.bytes(frame), frame.ts, frame.orig_len);
  return engine.finish(per_stream);
}

/// First flow whose final streaming verdict differs from the batch
/// filter's disposition.
std::optional<std::string> diff_dispositions(
    const std::vector<rtcc::filter::Disposition>& got,
    const std::vector<rtcc::filter::Disposition>& ref) {
  if (got.size() != ref.size())
    return std::to_string(got.size()) + " flow verdicts, batch filtered " +
           std::to_string(ref.size()) + " streams";
  for (std::size_t i = 0; i < got.size(); ++i)
    if (got[i] != ref[i])
      return "flow " + std::to_string(i) + " verdict " +
             rtcc::filter::to_string(got[i]) + ", batch " +
             rtcc::filter::to_string(ref[i]);
  return std::nullopt;
}

}  // namespace

std::optional<std::string> check_pool_parity(
    const std::vector<Bytes>& datagrams) {
  // Below two datagrams there is at most one flow: nothing to fan out.
  if (datagrams.size() < 2) return std::nullopt;

  const net::Trace trace = multi_flow_trace(datagrams);
  if (trace.size() == 0) return std::nullopt;
  const rtcc::filter::FilterConfig fcfg = keep_all_filter_config();

  // Batch reference with the streaming knob pinned off, so the oracle
  // stays the authority when the whole suite runs under RTCC_STREAM=1.
  rtcc::report::AnalysisOptions opts;
  std::vector<rtcc::report::CallAnalysis> ref_parts;
  std::string ref_json;
  {
    const rtcc::stream::StreamModeGuard off(false);
    ref_json = mode_invariant_json(
        rtcc::report::analyze_trace(trace, fcfg, opts, &ref_parts));
  }

  opts.parallel_streams = true;
  std::vector<rtcc::report::CallAnalysis> parts;
  const auto got = rtcc::stream::analyze_trace_streaming(
      trace, fcfg, opts, rtcc::stream::StreamOptions{}, &parts);
  if (auto err = diff_from_batch(got, parts, ref_json, ref_parts))
    return "pool parity: " + *err;
  return std::nullopt;
}

std::optional<std::string> check_stream_parity(
    const std::vector<Bytes>& datagrams) {
  if (datagrams.size() < 2) return std::nullopt;

  const net::Trace trace = multi_flow_trace(datagrams);
  if (trace.size() == 0) return std::nullopt;
  const rtcc::filter::FilterConfig fcfg = keep_all_filter_config();
  const auto& strip = mode_invariant_json;

  rtcc::report::AnalysisOptions opts;
  opts.parallel_streams = false;

  // Batch reference with the knob pinned off, so the oracle stays the
  // authority when the whole suite runs under RTCC_STREAM=1.
  rtcc::report::CallAnalysis ref;
  std::vector<rtcc::report::CallAnalysis> ref_parts;
  std::string ref_json;
  {
    const rtcc::stream::StreamModeGuard off(false);
    ref = rtcc::report::analyze_trace(trace, fcfg, opts, &ref_parts);
    ref_json = strip(ref);
  }
  const auto ref_disp = batch_dispositions(trace, fcfg);

  // 1. In-memory streaming at the default unbounded budgets: no flow
  // can split, so merged report, per-stream partials and every flow's
  // final verdict must be identical to batch.
  {
    std::vector<rtcc::report::CallAnalysis> parts;
    std::vector<rtcc::filter::Disposition> disp;
    const auto got = stream_with_verdicts(
        trace, fcfg, opts, rtcc::stream::StreamOptions{}, disp, &parts);
    if (got.flows.flows_rekeyed != 0)
      return "stream parity: unbounded budgets split a flow";
    if (auto err = diff_from_batch(got, parts, ref_json, ref_parts))
      return "stream parity: unbounded streaming: " + *err;
    if (auto err = diff_dispositions(disp, ref_disp))
      return "stream parity: unbounded streaming: " + *err;
  }

  // 2. Chunked-reader sweep over the encoded capture: the read
  // granularity must be invisible. 1 splits every header byte-by-byte,
  // 7 lands mid record header, 256/4096 straddle payloads.
  {
    const Bytes pcap = net::encode_pcap(trace);
    std::string error;
    const auto decoded = net::decode_pcap(BytesView{pcap}, &error);
    if (!decoded)
      return "stream parity: decode_pcap rejected encoder output: " + error;
    std::string file_ref_json;
    {
      const rtcc::stream::StreamModeGuard off(false);
      file_ref_json = strip(rtcc::report::analyze_trace(*decoded, fcfg, opts));
    }
    const auto file_ref_disp = batch_dispositions(*decoded, fcfg);
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{7}, std::size_t{256},
          std::size_t{4096}}) {
      rtcc::stream::MemoryChunkSource source(BytesView{pcap});
      std::vector<rtcc::filter::Disposition> disp;
      rtcc::stream::StreamingAnalyzer engine(net::kLinkEthernet, fcfg, opts,
                                             rtcc::stream::StreamOptions{});
      record_dispositions(engine, disp);
      if (!rtcc::stream::stream_pcap(source, engine, chunk, &error)) {
        std::ostringstream err;
        err << "stream parity: chunked reader failed at chunk=" << chunk
            << ": " << error;
        return err.str();
      }
      if (strip(engine.finish()) != file_ref_json) {
        std::ostringstream err;
        err << "stream parity: chunk=" << chunk
            << " report differs from the whole-file batch decode";
        return err.str();
      }
      if (auto bad = diff_dispositions(disp, file_ref_disp)) {
        std::ostringstream err;
        err << "stream parity: chunk=" << chunk << ": " << *bad;
        return err.str();
      }
    }
  }

  // 3. Eviction-budget sweep: tight budgets force mid-capture
  // finalization. Without a split the output must still be exact; with
  // splits (an evicted key re-touched) byte-identity is forfeit by
  // design and the conservation identities take over.
  const rtcc::stream::StreamOptions budget_sweep[] = {
      {.max_flows = 1, .idle_timeout_s = 0.0},
      {.max_flows = 3, .idle_timeout_s = 0.25},
  };
  for (const auto& sopts : budget_sweep) {
    std::vector<rtcc::filter::Disposition> disp;
    const auto got = stream_with_verdicts(trace, fcfg, opts, sopts, disp);
    const rtcc::report::FlowStats& fs = got.flows;
    std::ostringstream err;
    if (fs.flows_rekeyed == 0) {
      if (strip(got) != ref_json) {
        err << "stream parity: budgets (flows=" << sopts.max_flows
            << ", idle=" << sopts.idle_timeout_s
            << ") caused no split but changed the report";
        return err.str();
      }
      if (auto bad = diff_dispositions(disp, ref_disp)) {
        err << "stream parity: budgets (flows=" << sopts.max_flows
            << ", idle=" << sopts.idle_timeout_s << "): " << *bad;
        return err.str();
      }
      continue;
    }
    // Every packet and byte still counted exactly once...
    if (got.raw_bytes != ref.raw_bytes ||
        got.raw_udp_datagrams != ref.raw_udp_datagrams ||
        got.raw_tcp_segments != ref.raw_tcp_segments) {
      err << "stream parity: split run lost raw volume (bytes "
          << ref.raw_bytes << " -> " << got.raw_bytes << ", datagrams "
          << ref.raw_udp_datagrams << " -> " << got.raw_udp_datagrams << ")";
      return err.str();
    }
    // ...every packet in exactly one filter bucket...
    const auto stage_packets = [](const rtcc::report::CallAnalysis& a,
                                  bool udp) {
      return udp ? a.stage1_udp.packets + a.stage2_udp.packets +
                       a.rtc_udp.packets
                 : a.stage1_tcp.packets + a.stage2_tcp.packets +
                       a.rtc_tcp.packets;
    };
    if (stage_packets(got, true) != stage_packets(ref, true) ||
        stage_packets(got, false) != stage_packets(ref, false)) {
      err << "stream parity: split run dropped packets from the stage "
             "accounting";
      return err.str();
    }
    // ...and the flow ledger explains exactly where the extra streams
    // came from: records = distinct keys + splits.
    const std::uint64_t got_streams =
        got.raw_udp_streams + got.raw_tcp_streams;
    const std::uint64_t ref_streams =
        ref.raw_udp_streams + ref.raw_tcp_streams;
    if (fs.flows_seen != got_streams ||
        got_streams != ref_streams + fs.flows_rekeyed) {
      err << "stream parity: flow ledger inconsistent (" << got_streams
          << " streams, " << fs.flows_seen << " seen, " << ref_streams
          << " distinct keys + " << fs.flows_rekeyed << " rekeys)";
      return err.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> run_stream_oracles(
    const std::vector<Bytes>& datagrams) {
  if (auto err = check_scan_equivalence(datagrams))
    return "scan equivalence: " + *err;
  if (auto err = check_simd_parity(datagrams)) return err;
  if (auto err = check_arena_parity(datagrams)) return err;
  if (auto err = check_pcap_roundtrip(datagrams)) return err;
  if (auto err = check_checker_idempotence(datagrams)) return err;
  if (auto err = check_pool_parity(datagrams)) return err;
  if (auto err = check_stream_parity(datagrams)) return err;
  return std::nullopt;
}

}  // namespace rtcc::testkit
