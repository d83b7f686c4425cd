#include "testkit/meta.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "emul/perturb.hpp"
#include "emul/scenario.hpp"
#include "net/stream_table.hpp"
#include "stream/stream_mode.hpp"
#include "proto/common.hpp"
#include "report/json_export.hpp"
#include "testkit/driver.hpp"
#include "testkit/seeds.hpp"
#include "util/rng.hpp"

namespace rtcc::testkit::meta {

using rtcc::filter::FilterConfig;
using rtcc::net::IpAddr;
using rtcc::net::Trace;
using rtcc::report::CallAnalysis;
using rtcc::util::Bytes;
using rtcc::util::BytesView;
using rtcc::util::load_be16;
using rtcc::util::store_be16;

namespace {

// Seconds added by the time-shift transform. A power of two: exact as a
// double, exact in both µs and ns pcap sub-second fields.
constexpr double kTimeShiftS = 4096.0;

std::string first_line_diff(const std::string& a, const std::string& b) {
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  std::size_t line = 1;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    if (!ga && !gb) return "identical";
    if (!ga) la.clear();
    if (!gb) lb.clear();
    if (la != lb) {
      auto clip = [](std::string s) {
        if (s.size() > 160) s = s.substr(0, 157) + "...";
        return s;
      };
      std::ostringstream out;
      out << "line " << line << ": base '" << clip(la) << "' vs transformed '"
          << clip(lb) << "'";
      return out.str();
    }
    ++line;
  }
}

TransformResult inapplicable(const FilterConfig& cfg) {
  TransformResult r;
  r.cfg = cfg;
  r.applicable = false;
  return r;
}

Trace empty_like(const Trace& t, std::uint32_t linktype) {
  Trace out;
  out.set_linktype(linktype);
  out.ingest() = t.ingest();
  out.reserve(t.size());
  return out;
}

// ---- L2 re-encapsulation -------------------------------------------------

/// 802.1Q (or 802.1ad QinQ) tag insertion after the Ethernet MACs. Only
/// untagged frames qualify, so `tagged` counts exactly one decoder
/// strip event per frame (vlan_stripped increments once per frame no
/// matter how deep the tag stack is).
TransformResult add_vlan_tags(const Trace& t, const FilterConfig& cfg,
                              bool qinq) {
  if (t.linktype() != rtcc::net::kLinkEthernet) return inapplicable(cfg);
  TransformResult r;
  r.cfg = cfg;
  r.ledger = Ledger::kVlan;
  Trace out = empty_like(t, rtcc::net::kLinkEthernet);
  Bytes buf;
  for (const auto& frame : t.frames()) {
    const BytesView f = t.bytes(frame);
    if (f.size() < 14) return inapplicable(cfg);
    const std::uint16_t et = load_be16(f.data() + 12);
    if (et == 0x8100 || et == 0x88A8 || et == 0x9100) return inapplicable(cfg);
    buf.assign(f.begin(), f.begin() + 12);
    if (qinq) {
      buf.insert(buf.end(), {0x88, 0xA8, 0x00, 0x14});  // S-tag, VID 20
    }
    buf.insert(buf.end(), {0x81, 0x00, 0x00, 0x64});  // C-tag, VID 100
    buf.insert(buf.end(), f.begin() + 12, f.end());
    auto& nf = out.add_frame(frame.ts, buf);
    if (frame.orig_len != 0) nf.orig_len = frame.orig_len + (qinq ? 8u : 4u);
    ++r.tagged;
  }
  r.trace = std::move(out);
  return r;
}

/// Ethernet → Linux cooked capture (SLL v1 or v2). Works on tagged
/// frames too: the cooked protocol field carries whatever ethertype
/// (or TPID) the Ethernet header carried and the decoder's VLAN strip
/// loop runs identically after the cooked header.
TransformResult to_cooked(const Trace& t, const FilterConfig& cfg, bool v2) {
  if (t.linktype() != rtcc::net::kLinkEthernet) return inapplicable(cfg);
  TransformResult r;
  r.cfg = cfg;
  Trace out =
      empty_like(t, v2 ? rtcc::net::kLinkSll2 : rtcc::net::kLinkLinuxSll);
  Bytes buf;
  for (const auto& frame : t.frames()) {
    const BytesView f = t.bytes(frame);
    if (f.size() < 14) return inapplicable(cfg);
    buf.clear();
    if (v2) {
      // SLL2: proto, reserved, ifindex, ARPHRD, pkttype, addr len, addr.
      buf.push_back(f[12]);
      buf.push_back(f[13]);
      buf.insert(buf.end(), {0x00, 0x00, 0x00, 0x00, 0x00, 0x02});
      buf.insert(buf.end(), {0x00, 0x01, 0x00, 0x06});
      buf.insert(buf.end(), f.begin() + 6, f.begin() + 12);  // src MAC
      buf.insert(buf.end(), {0x00, 0x00});
    } else {
      // SLL v1: pkttype, ARPHRD, addr len, addr(8), proto.
      buf.insert(buf.end(), {0x00, 0x00, 0x00, 0x01, 0x00, 0x06});
      buf.insert(buf.end(), f.begin() + 6, f.begin() + 12);
      buf.insert(buf.end(), {0x00, 0x00});
      buf.push_back(f[12]);
      buf.push_back(f[13]);
    }
    buf.insert(buf.end(), f.begin() + 14, f.end());
    auto& nf = out.add_frame(frame.ts, buf);
    if (frame.orig_len != 0)
      nf.orig_len = frame.orig_len + (v2 ? 6u : 2u);
    (void)nf;
  }
  r.trace = std::move(out);
  return r;
}

/// Ethernet → BSD loopback (NULL, 4-byte AF) or raw IP. Requires plain
/// untagged IP frames — the L2 header is dropped entirely.
TransformResult strip_l2(const Trace& t, const FilterConfig& cfg,
                         bool null_link) {
  if (t.linktype() != rtcc::net::kLinkEthernet) return inapplicable(cfg);
  TransformResult r;
  r.cfg = cfg;
  Trace out =
      empty_like(t, null_link ? rtcc::net::kLinkNull : rtcc::net::kLinkRaw);
  Bytes buf;
  for (const auto& frame : t.frames()) {
    const BytesView f = t.bytes(frame);
    if (f.size() < 14) return inapplicable(cfg);
    const std::uint16_t et = load_be16(f.data() + 12);
    if (et != 0x0800 && et != 0x86DD) return inapplicable(cfg);
    buf.clear();
    if (null_link) {
      // AF in the capturing host's byte order; write little-endian the
      // way an x86 BSD would (the decoder accepts either).
      buf.insert(buf.end(),
                 {et == 0x0800 ? std::uint8_t{2} : std::uint8_t{10}, 0, 0, 0});
    }
    buf.insert(buf.end(), f.begin() + 14, f.end());
    auto& nf = out.add_frame(frame.ts, buf);
    if (frame.orig_len != 0 && frame.orig_len >= 14)
      nf.orig_len = frame.orig_len - 14 + (null_link ? 4u : 0u);
  }
  r.trace = std::move(out);
  return r;
}

// ---- pcap capture-artifact rewrites -------------------------------------

TransformResult pcap_roundtrip(const Trace& t, const FilterConfig& cfg,
                               const rtcc::net::PcapEncodeOptions& opts) {
  TransformResult r;
  r.cfg = cfg;
  r.ledger = Ledger::kCapture;
  const Bytes bytes = rtcc::net::encode_pcap_ex(t, opts);
  auto decoded = rtcc::net::decode_pcap(BytesView{bytes});
  // A failed decode is a real finding, not an out-of-domain input:
  // return an empty trace and let the verdict oracle scream.
  if (decoded) r.trace = std::move(*decoded);
  return r;
}

/// Splits the capture into two pcap files and re-ingests both — the
/// "rotated capture" artifact (tcpdump -C). Frame order, timestamps and
/// the linktype survive; the record walk count covers both chunks.
TransformResult pcap_rechunk(const Trace& t, const FilterConfig& cfg) {
  TransformResult r;
  r.cfg = cfg;
  r.ledger = Ledger::kCapture;
  const std::size_t mid = t.size() / 2;
  Trace head = empty_like(t, t.linktype());
  head.ingest() = rtcc::net::IngestStats{};
  Trace tail = empty_like(t, t.linktype());
  tail.ingest() = rtcc::net::IngestStats{};
  for (std::size_t i = 0; i < t.size(); ++i) {
    const auto& f = t.frames()[i];
    auto& nf = (i < mid ? head : tail).add_frame(f.ts, t.bytes(f));
    nf.orig_len = f.orig_len;
  }
  const Bytes enc_head = rtcc::net::encode_pcap(head);
  const Bytes enc_tail = rtcc::net::encode_pcap(tail);
  auto dec_head = rtcc::net::decode_pcap(BytesView{enc_head});
  auto dec_tail = rtcc::net::decode_pcap(BytesView{enc_tail});
  if (!dec_head || !dec_tail) return r;  // empty trace -> verdict oracle
  Trace out = std::move(*dec_head);
  for (const auto& f : dec_tail->frames()) {
    auto& nf = out.add_frame(f.ts, dec_tail->bytes(f));
    nf.orig_len = f.orig_len;
  }
  out.ingest().merge(dec_tail->ingest());
  // Carry the base trace's pre-existing ledger like a single-file
  // round trip would (synthetic bases contribute zeroes).
  out.ingest().merge(t.ingest());
  r.trace = std::move(out);
  return r;
}

// ---- time translation ----------------------------------------------------

TransformResult shift_time(const Trace& t, const FilterConfig& cfg) {
  TransformResult r;
  r.cfg = cfg;
  r.cfg.schedule.capture_start += kTimeShiftS;
  r.cfg.schedule.call_start += kTimeShiftS;
  r.cfg.schedule.call_end += kTimeShiftS;
  r.cfg.schedule.capture_end += kTimeShiftS;
  r.trace = rtcc::emul::translate_time(t, kTimeShiftS);
  return r;
}

// ---- IPv4 fragmentation --------------------------------------------------

/// Splits every large unfragmented IPv4 UDP datagram into two
/// fragments (offsets 8-byte aligned, DF cleared, fresh ident, header
/// checksum recomputed) — the exact inverse of FrameDecoder reassembly.
TransformResult fragment_udp(const Trace& t, const FilterConfig& cfg) {
  if (t.linktype() != rtcc::net::kLinkEthernet) return inapplicable(cfg);
  TransformResult r;
  r.cfg = cfg;
  r.ledger = Ledger::kFragment;
  Trace out = empty_like(t, rtcc::net::kLinkEthernet);
  std::uint16_t ident = 0;
  Bytes buf;
  for (const auto& frame : t.frames()) {
    const BytesView f = t.bytes(frame);
    bool split = false;
    if (f.size() >= 14 + 20 && load_be16(f.data() + 12) == 0x0800) {
      const std::uint8_t* ip = f.data() + 14;
      const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0F) * 4;
      const std::uint16_t total_len = load_be16(ip + 2);
      const std::uint16_t flags_frag = load_be16(ip + 6);
      const bool is_fragment = (flags_frag & 0x3FFF) != 0;
      const std::size_t l4_len =
          total_len >= ihl ? total_len - ihl : 0;
      if ((ip[0] >> 4) == 4 && ihl >= 20 && !is_fragment && ip[9] == 17 &&
          14 + static_cast<std::size_t>(total_len) == f.size() &&
          l4_len >= 24) {
        // First piece: ~half the L4 bytes, rounded up to a fragment
        // boundary; always leaves a non-empty second piece.
        std::size_t first = 8 * ((l4_len / 2 + 7) / 8);
        if (first >= l4_len) first = l4_len - 8;
        ident = static_cast<std::uint16_t>(ident + 1);
        if (ident == 0) ident = 1;
        const std::size_t pieces[2][2] = {{0, first},
                                          {first, l4_len - first}};
        for (const auto& piece : pieces) {
          const std::size_t off = piece[0];
          const std::size_t len = piece[1];
          const bool more = off + len < l4_len;
          buf.assign(f.begin(), f.begin() + 14 + ihl);
          buf.insert(buf.end(), f.begin() + 14 + ihl + off,
                     f.begin() + 14 + ihl + off + len);
          std::uint8_t* nip = buf.data() + 14;
          store_be16(nip + 2, static_cast<std::uint16_t>(ihl + len));
          store_be16(nip + 4, ident);
          store_be16(nip + 6,
                     static_cast<std::uint16_t>((more ? 0x2000 : 0) |
                                                (off / 8)));
          store_be16(nip + 10, 0);
          store_be16(nip + 10, rtcc::net::internet_checksum(
                                   BytesView{nip, ihl}));
          out.add_frame(frame.ts, buf);
          ++r.frag_frames;
        }
        ++r.frag_datagrams;
        split = true;
      }
    }
    if (!split) {
      auto& nf = out.add_frame(frame.ts, f);
      nf.orig_len = frame.orig_len;
    }
  }
  r.trace = std::move(out);
  return r;
}

// ---- address / port renumbering -----------------------------------------

IpAddr renumber_ip(const IpAddr& ip) {
  if (ip.is_v4()) {
    const std::uint32_t v = ip.v4_value();
    if ((v & 0xFF) <= 248) return IpAddr::v4(v + 3);
    return ip;
  }
  auto bytes = ip.v6_bytes();
  if (bytes[15] <= 248) bytes[15] = static_cast<std::uint8_t>(bytes[15] + 3);
  return IpAddr::v6(bytes);
}

std::uint16_t renumber_port(std::uint16_t p) {
  if (p >= 20000 && p <= 65524) return static_cast<std::uint16_t>(p + 11);
  return p;
}

/// Rewrites every frame with consistently renumbered addresses and
/// ports. The map must preserve everything the pipeline keys on:
/// endpoint (ip, port) ordering (canonical flow direction), bare IP
/// ordering (pre-call pair identity), local-scope membership, device
/// identity (cfg.device_ips is mapped alongside) and excluded-port
/// membership — each property is verified against the observed
/// endpoint set and the transform bows out if any would flip.
TransformResult renumber(const Trace& t, const FilterConfig& cfg) {
  if (t.linktype() != rtcc::net::kLinkEthernet) return inapplicable(cfg);
  std::vector<rtcc::net::Decoded> decoded;
  decoded.reserve(t.size());
  std::set<std::pair<IpAddr, std::uint16_t>> endpoints;
  std::set<IpAddr> ips;
  for (const auto& frame : t.frames()) {
    auto d = rtcc::net::decode_frame(t.bytes(frame), t.linktype());
    if (!d) return inapplicable(cfg);  // fragments / non-IP frames
    endpoints.insert({d->src, d->src_port});
    endpoints.insert({d->dst, d->dst_port});
    ips.insert(d->src);
    ips.insert(d->dst);
    decoded.push_back(*d);
  }
  for (const auto& ip : cfg.device_ips) ips.insert(ip);

  // Order preservation: <=> on sorted observed sets must survive the
  // map (std::set iterates in sorted order, so adjacent pairs suffice).
  std::optional<std::pair<IpAddr, std::uint16_t>> prev_ep;
  for (const auto& ep : endpoints) {
    const auto mapped =
        std::make_pair(renumber_ip(ep.first), renumber_port(ep.second));
    if (prev_ep && !(*prev_ep < mapped)) return inapplicable(cfg);
    prev_ep = mapped;
  }
  std::optional<IpAddr> prev_ip;
  for (const auto& ip : ips) {
    const IpAddr mapped = renumber_ip(ip);
    if (mapped.is_local_scope() != ip.is_local_scope())
      return inapplicable(cfg);
    if (prev_ip && !(*prev_ip < mapped)) return inapplicable(cfg);
    prev_ip = mapped;
  }
  for (const auto& ep : endpoints) {
    if (cfg.excluded_ports.count(ep.second) !=
        cfg.excluded_ports.count(renumber_port(ep.second)))
      return inapplicable(cfg);
  }

  TransformResult r;
  r.cfg = cfg;
  for (auto& ip : r.cfg.device_ips) ip = renumber_ip(ip);
  Trace out = empty_like(t, rtcc::net::kLinkEthernet);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const auto& d = decoded[i];
    rtcc::net::FrameSpec spec;
    spec.src = renumber_ip(d.src);
    spec.dst = renumber_ip(d.dst);
    spec.src_port = renumber_port(d.src_port);
    spec.dst_port = renumber_port(d.dst_port);
    spec.transport = d.transport;
    out.add_frame(t.frames()[i].ts, rtcc::net::build_frame(spec, d.payload));
  }
  r.trace = std::move(out);
  return r;
}

}  // namespace

std::string to_string(Ledger l) {
  switch (l) {
    case Ledger::kIdentity: return "identity";
    case Ledger::kCapture: return "capture";
    case Ledger::kVlan: return "vlan";
    case Ledger::kFragment: return "fragment";
    case Ledger::kUnchecked: return "unchecked";
  }
  return "?";
}

const std::vector<Transform>& transform_catalogue() {
  static const std::vector<Transform> kCatalogue = {
      {"vlan",
       [](const Trace& t, const FilterConfig& c) {
         return add_vlan_tags(t, c, false);
       }},
      {"qinq",
       [](const Trace& t, const FilterConfig& c) {
         return add_vlan_tags(t, c, true);
       }},
      {"sll",
       [](const Trace& t, const FilterConfig& c) {
         return to_cooked(t, c, false);
       }},
      {"sll2",
       [](const Trace& t, const FilterConfig& c) {
         return to_cooked(t, c, true);
       }},
      {"null",
       [](const Trace& t, const FilterConfig& c) {
         return strip_l2(t, c, true);
       }},
      {"rawip",
       [](const Trace& t, const FilterConfig& c) {
         return strip_l2(t, c, false);
       }},
      {"pcap-us",
       [](const Trace& t, const FilterConfig& c) {
         return pcap_roundtrip(t, c, {});
       }},
      {"pcap-ns",
       [](const Trace& t, const FilterConfig& c) {
         return pcap_roundtrip(t, c, {.nanosecond = true});
       }},
      {"pcap-swapped",
       [](const Trace& t, const FilterConfig& c) {
         return pcap_roundtrip(t, c, {.swapped = true});
       }},
      {"pcap-rechunk", pcap_rechunk},
      {"time-shift", shift_time},
      {"fragment", fragment_udp},
      {"renumber", renumber},
  };
  return kCatalogue;
}

const Transform* find_transform(const std::string& name) {
  for (const auto& t : transform_catalogue())
    if (t.name == name) return &t;
  return nullptr;
}

const std::vector<std::vector<std::string>>& default_chains() {
  static const std::vector<std::vector<std::string>> kChains = {
      {"time-shift", "vlan", "pcap-ns"},
      {"renumber", "fragment", "qinq"},
      {"fragment", "sll"},
      {"vlan", "sll2", "pcap-swapped"},
      {"renumber", "time-shift", "rawip", "pcap-rechunk"},
      {"pcap-us", "qinq", "pcap-rechunk"},
  };
  return kChains;
}

namespace {

void signature_one(std::ostream& out, const CallAnalysis& a) {
  const auto stage = [&](const char* k, const rtcc::filter::StageStats& s) {
    out << k << "=" << s.streams << "/" << s.packets << ";";
  };
  out << "udp=" << a.raw_udp_streams << "/" << a.raw_udp_datagrams
      << ";tcp=" << a.raw_tcp_streams << "/" << a.raw_tcp_segments << ";";
  stage("s1u", a.stage1_udp);
  stage("s2u", a.stage2_udp);
  stage("s1t", a.stage1_tcp);
  stage("s2t", a.stage2_tcp);
  stage("rtcu", a.rtc_udp);
  stage("rtct", a.rtc_tcp);
  out << "class=" << a.dgram_standard << "/" << a.dgram_prop_header << "/"
      << a.dgram_fully_prop << ";dpi=" << a.dpi_candidates << "/"
      << a.dpi_messages << ";";
  for (const auto& [proto, ps] : a.protocols) {
    out << rtcc::proto::to_string(proto) << "{" << ps.messages << "/"
        << ps.compliant;
    for (const auto& [label, ts] : ps.types) {
      out << ";" << label << "=" << ts.total << "/" << ts.compliant;
      for (const auto& [crit, n] : ts.criterion_failures)
        out << "," << crit << ":" << n;
    }
    out << "}";
  }
}

std::string format_ingest(const rtcc::net::IngestStats& s) {
  std::ostringstream out;
  out << "seen=" << s.frames_seen << " torn=" << s.torn_tail
      << " clipped=" << s.snaplen_clipped << " bad_usec=" << s.bad_usec
      << " decoded=" << s.frames_decoded << " vlan=" << s.vlan_stripped
      << " frag_seen=" << s.fragments_seen
      << " frag_reasm=" << s.fragments_reassembled
      << " frag_exp=" << s.fragments_expired << " non_ip=" << s.non_ip
      << " clip_undec=" << s.clipped_undecodable << " undec=" << s.undecodable
      << " unsupported=" << s.unsupported_linktype;
  return out.str();
}

}  // namespace

std::string compliance_signature(
    const CallAnalysis& merged, const std::vector<CallAnalysis>& per_stream) {
  std::ostringstream out;
  out << "merged:";
  signature_one(out, merged);
  out << "\n";
  for (std::size_t i = 0; i < per_stream.size(); ++i) {
    out << "stream[" << i << "]:";
    signature_one(out, per_stream[i]);
    out << "\n";
  }
  return out.str();
}

AnalyzedCase analyze_case(const Trace& trace, const FilterConfig& cfg,
                          const rtcc::report::AnalysisOptions& opts) {
  AnalyzedCase out;
  std::vector<CallAnalysis> per_stream;
  out.merged = rtcc::report::analyze_trace(trace, cfg, opts, &per_stream);
  out.signature = compliance_signature(out.merged, per_stream);
  return out;
}

std::optional<std::string> check_verdict_invariance(
    const AnalyzedCase& base, const AnalyzedCase& transformed,
    const std::string& transform_name) {
  if (base.signature == transformed.signature) return std::nullopt;
  return "verdicts not invariant under '" + transform_name +
         "': " + first_line_diff(base.signature, transformed.signature);
}

std::optional<std::string> check_ingest_ledger(
    const CallAnalysis& base, const CallAnalysis& transformed,
    const TransformResult& meta, std::uint64_t transformed_frames) {
  if (meta.ledger == Ledger::kUnchecked) return std::nullopt;
  rtcc::net::IngestStats predicted = base.ingest;
  switch (meta.ledger) {
    case Ledger::kIdentity:
      break;
    case Ledger::kCapture:
      predicted.frames_seen += transformed_frames;
      break;
    case Ledger::kVlan:
      predicted.vlan_stripped += meta.tagged;
      break;
    case Ledger::kFragment:
      predicted.fragments_seen += meta.frag_frames;
      predicted.fragments_reassembled += meta.frag_datagrams;
      break;
    case Ledger::kUnchecked:
      break;
  }
  if (transformed.ingest == predicted) return std::nullopt;
  return "ingest ledger not " + to_string(meta.ledger) +
         "-predictable: expected {" + format_ingest(predicted) + "} got {" +
         format_ingest(transformed.ingest) + "}";
}

std::optional<std::string> check_filter_idempotence(const Trace& trace,
                                                    const FilterConfig& cfg) {
  const auto table = rtcc::net::group_streams(trace);
  // The kept-frames guarantee is per-frame; reassembled datagrams have
  // no single home frame, so fragmented inputs are out of scope.
  if (table.ingest.fragments_reassembled > 0 ||
      table.ingest.fragments_seen > 0)
    return std::nullopt;
  const auto rep1 = rtcc::filter::run_pipeline(trace, table, cfg);
  const auto rep2 = rtcc::filter::run_pipeline(trace, table, cfg);
  if (rep1.dispositions != rep2.dispositions)
    return std::string("filter purity violation: two runs on the same table "
                       "produced different dispositions");

  const auto kept = rtcc::filter::kept_frame_indices(table, rep1);
  Trace sub;
  sub.set_linktype(trace.linktype());
  sub.reserve(kept.size());
  for (const std::size_t i : kept) {
    const auto& f = trace.frames()[i];
    auto& nf = sub.add_frame(f.ts, trace.bytes(f));
    nf.orig_len = f.orig_len;
  }
  const auto sub_table = rtcc::net::group_streams(sub);
  const auto sub_rep = rtcc::filter::run_pipeline(sub, sub_table, cfg);
  std::size_t re_removed = 0;
  for (const auto d : sub_rep.dispositions)
    if (d != rtcc::filter::Disposition::kKept) ++re_removed;
  if (re_removed != 0) {
    std::ostringstream out;
    out << "filter not idempotent: re-running on its own kept output "
           "removed "
        << re_removed << " of " << sub_rep.dispositions.size() << " streams";
    return out.str();
  }
  if (sub_rep.rtc_udp.streams != rep1.rtc_udp.streams ||
      sub_rep.rtc_udp.packets != rep1.rtc_udp.packets ||
      sub_rep.rtc_tcp.streams != rep1.rtc_tcp.streams ||
      sub_rep.rtc_tcp.packets != rep1.rtc_tcp.packets) {
    std::ostringstream out;
    out << "filter not idempotent: kept totals moved (udp "
        << rep1.rtc_udp.streams << "/" << rep1.rtc_udp.packets << " -> "
        << sub_rep.rtc_udp.streams << "/" << sub_rep.rtc_udp.packets
        << ", tcp " << rep1.rtc_tcp.streams << "/" << rep1.rtc_tcp.packets
        << " -> " << sub_rep.rtc_tcp.streams << "/"
        << sub_rep.rtc_tcp.packets << ")";
    return out.str();
  }
  return std::nullopt;
}

std::optional<std::string> check_scale_monotonicity(
    const rtcc::emul::CallConfig& cfg, double factor) {
  const auto run = [&](double scale) {
    rtcc::emul::CallConfig c = cfg;
    c.media_scale = scale;
    const auto call = rtcc::emul::emulate_call(c);
    return rtcc::report::analyze_trace(call.trace,
                                       rtcc::emul::filter_config_for(call));
  };
  const CallAnalysis lo = run(cfg.media_scale);
  const CallAnalysis hi = run(cfg.media_scale * factor);
  std::ostringstream out;
  if (hi.rtc_udp.packets < lo.rtc_udp.packets ||
      hi.dpi_messages < lo.dpi_messages ||
      hi.total_messages() < lo.total_messages()) {
    out << "scale x" << factor << " shrank volume: rtc_udp "
        << lo.rtc_udp.packets << " -> " << hi.rtc_udp.packets
        << ", dpi_messages " << lo.dpi_messages << " -> " << hi.dpi_messages
        << ", messages " << lo.total_messages() << " -> "
        << hi.total_messages();
    return out.str();
  }
  for (const auto& [proto, lo_stats] : lo.protocols) {
    const auto it = hi.protocols.find(proto);
    if (it == hi.protocols.end()) {
      // Protocols hovering at the scanning DPI's stream-support minima
      // legitimately flicker with scale (e.g. Zoom emits ~2 RTCP
      // compounds per small call; one fewer and rtcp_ssrc_support
      // rejects the lot). Presence is only an invariant once the
      // protocol comfortably clears those thresholds.
      if (lo_stats.messages < 4) continue;
      out << "scale x" << factor << " lost protocol "
          << rtcc::proto::to_string(proto);
      return out.str();
    }
    // A type's compliance verdict is a property of the app model, not
    // of how many instances were sampled: it must not flip with scale.
    for (const auto& [label, lo_type] : lo_stats.types) {
      const auto tit = it->second.types.find(label);
      if (tit == it->second.types.end()) continue;
      if (lo_type.type_compliant() != tit->second.type_compliant()) {
        out << "scale x" << factor << " flipped "
            << rtcc::proto::to_string(proto) << "/" << label << " from "
            << (lo_type.type_compliant() ? "compliant" : "non-compliant")
            << " to "
            << (tit->second.type_compliant() ? "compliant" : "non-compliant");
        return out.str();
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_stream_invariance(
    const AnalyzedCase& base, const Trace& trace, const FilterConfig& cfg,
    const std::string& case_name) {
  const rtcc::stream::StreamModeGuard stream_on(true);
  const AnalyzedCase streamed = analyze_case(trace, cfg);
  if (base.signature == streamed.signature) return std::nullopt;
  return "streaming verdicts differ from batch on '" + case_name +
         "': " + first_line_diff(base.signature, streamed.signature);
}

std::optional<std::string> check_merge_order_insensitivity(
    const std::vector<CallAnalysis>& parts) {
  if (parts.size() < 2) return std::nullopt;
  const auto merged_json = [&](const std::vector<std::size_t>& order) {
    CallAnalysis acc;
    for (const std::size_t i : order) rtcc::report::merge(acc, parts[i]);
    return rtcc::report::to_json(acc);
  };
  std::vector<std::size_t> fwd(parts.size());
  for (std::size_t i = 0; i < fwd.size(); ++i) fwd[i] = i;
  std::vector<std::size_t> rev(fwd.rbegin(), fwd.rend());
  std::vector<std::size_t> rot(fwd.begin() + 1, fwd.end());
  rot.push_back(0);
  const std::string a = merged_json(fwd);
  if (const std::string b = merged_json(rev); a != b)
    return "merge() is order-sensitive (forward vs reverse): " +
           first_line_diff(a, b);
  if (const std::string b = merged_json(rot); a != b)
    return "merge() is order-sensitive (forward vs rotated): " +
           first_line_diff(a, b);
  return std::nullopt;
}

// ---- corpus plumbing -----------------------------------------------------

FilterConfig corpus_filter_config() {
  FilterConfig cfg;
  cfg.schedule.capture_start = 0.0;
  cfg.schedule.call_start = 10.0;
  cfg.schedule.call_end = 40.0;
  cfg.schedule.capture_end = 50.0;
  cfg.device_ips = {IpAddr::v4(192, 168, 1, 10)};
  cfg.excluded_ports = rtcc::filter::default_excluded_ports();
  return cfg;
}

Trace trace_from_datagrams(const std::vector<Bytes>& datagrams) {
  Trace out;
  const IpAddr device = IpAddr::v4(192, 168, 1, 10);
  const IpAddr remote = IpAddr::v4(203, 0, 113, 7);
  for (std::size_t i = 0; i < datagrams.size(); ++i) {
    rtcc::net::FrameSpec spec;
    const bool out_dir = i % 2 == 0;
    spec.src = out_dir ? device : remote;
    spec.dst = out_dir ? remote : device;
    spec.src_port = out_dir ? 40000 : 3478;
    spec.dst_port = out_dir ? 3478 : 40000;
    // Dyadic timestamps inside the call window: exact as doubles and in
    // both µs and ns pcap sub-second encodings.
    const double ts = 12.0 + static_cast<double>(i) / 64.0;
    out.add_frame(ts, rtcc::net::build_frame(spec, BytesView{datagrams[i]}));
  }
  return out;
}

// ---- driver --------------------------------------------------------------

namespace {

struct MetaCase {
  std::string name;
  Trace trace;
  FilterConfig cfg;
  std::vector<Bytes> datagrams;  // non-empty only for corpus cases
};

std::string chain_name(const std::vector<std::string>& steps) {
  std::string out;
  for (const auto& s : steps) {
    if (!out.empty()) out += "+";
    out += s;
  }
  return out;
}

/// Applies a chain of catalogue transforms; nullopt when any step is
/// out of its domain. The ledger degrades to kUnchecked as soon as a
/// second prediction would have to compose with the first.
std::optional<TransformResult> apply_chain(
    const Trace& base, const FilterConfig& cfg,
    const std::vector<std::string>& steps) {
  Trace cur = rtcc::emul::clone_trace(base);
  FilterConfig ccfg = cfg;
  for (const auto& step : steps) {
    const Transform* t = find_transform(step);
    if (t == nullptr) return std::nullopt;
    TransformResult r = t->apply(cur, ccfg);
    if (!r.applicable) return std::nullopt;
    cur = std::move(r.trace);
    ccfg = std::move(r.cfg);
  }
  TransformResult out;
  out.trace = std::move(cur);
  out.cfg = std::move(ccfg);
  out.ledger = steps.size() == 1 ? out.ledger : Ledger::kUnchecked;
  return out;
}

/// Re-checks one (transform-or-chain, oracle) pair on a rebuilt corpus
/// case — the predicate the greedy minimizer shrinks against.
bool corpus_violates(const std::vector<Bytes>& datagrams,
                     const std::vector<std::string>& steps,
                     const std::string& oracle) {
  if (datagrams.empty()) return false;
  const Trace trace = trace_from_datagrams(datagrams);
  const FilterConfig cfg = corpus_filter_config();
  if (oracle == "filter-idempotence")
    return check_filter_idempotence(trace, cfg).has_value();
  const AnalyzedCase base = analyze_case(trace, cfg);
  if (steps.size() == 1) {
    const Transform* t = find_transform(steps[0]);
    if (t == nullptr) return false;
    TransformResult r = t->apply(trace, cfg);
    if (!r.applicable) return false;
    const AnalyzedCase ta = analyze_case(r.trace, r.cfg);
    if (oracle == "verdict")
      return check_verdict_invariance(base, ta, steps[0]).has_value();
    return check_ingest_ledger(base.merged, ta.merged, r, r.trace.size())
        .has_value();
  }
  auto r = apply_chain(trace, cfg, steps);
  if (!r) return false;
  const AnalyzedCase ta = analyze_case(r->trace, r->cfg);
  return check_verdict_invariance(base, ta, chain_name(steps)).has_value();
}

std::vector<Bytes> minimize_corpus_case(const std::vector<Bytes>& datagrams,
                                        const std::vector<std::string>& steps,
                                        const std::string& oracle) {
  std::vector<Bytes> cur = datagrams;
  bool shrunk = true;
  while (shrunk && cur.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < cur.size(); ++i) {
      std::vector<Bytes> candidate;
      candidate.reserve(cur.size() - 1);
      for (std::size_t k = 0; k < cur.size(); ++k)
        if (k != i) candidate.push_back(cur[k]);
      if (corpus_violates(candidate, steps, oracle)) {
        cur = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return cur;
}

}  // namespace

MetaStats run_meta_driver(const MetaOptions& opts) {
  MetaStats st;
  std::set<std::pair<std::string, std::string>> seen_violations;

  const auto record = [&](const std::string& case_name,
                          const std::string& transform,
                          const std::string& oracle, const std::string& detail,
                          const std::vector<Bytes>& datagrams,
                          const std::vector<std::string>& steps) {
    if (!seen_violations.insert({transform, oracle}).second) return;
    MetaViolation v;
    v.case_name = case_name;
    v.transform = transform;
    v.oracle = oracle;
    v.detail = detail;
    if (!datagrams.empty())
      v.datagrams = minimize_corpus_case(datagrams, steps, oracle);
    st.violations.push_back(std::move(v));
  };

  // ---- build the case list (fixed, deterministic order) -----------------
  std::vector<MetaCase> cases;
  {
    std::vector<rtcc::emul::AppId> apps;
    std::vector<rtcc::emul::NetworkSetup> networks;
    if (opts.full) {
      apps = rtcc::emul::all_apps();
      networks = rtcc::emul::all_networks();
    } else {
      apps = {rtcc::emul::AppId::kZoom, rtcc::emul::AppId::kWhatsApp};
      networks = {rtcc::emul::NetworkSetup::kWifiP2p,
                  rtcc::emul::NetworkSetup::kCellular};
    }
    std::uint64_t cell_seed = opts.seed;
    for (const auto app : apps) {
      for (const auto network : networks) {
        rtcc::emul::CallConfig cfg;
        cfg.app = app;
        cfg.network = network;
        cfg.pre_call_s = opts.pre_call_s;
        cfg.call_s = opts.call_s;
        cfg.post_call_s = opts.post_call_s;
        cfg.media_scale = opts.media_scale;
        cfg.seed = cell_seed++;
        auto call = rtcc::emul::emulate_call(cfg);
        MetaCase c;
        c.name = to_string(app) + "|" + to_string(network);
        c.cfg = rtcc::emul::filter_config_for(call);
        c.trace = std::move(call.trace);
        cases.push_back(std::move(c));
      }
    }

    std::vector<SeedFamily> families;
    if (opts.full) {
      for (const auto f : all_seed_families())
        if (f != SeedFamily::kFrame)  // L2 frames, not UDP payloads
          families.push_back(f);
    } else {
      families = {SeedFamily::kStun, SeedFamily::kRtp, SeedFamily::kRtcp};
    }
    rtcc::util::Rng rng(opts.seed);
    for (const auto family : families) {
      const auto stream = make_seed_stream(family, rng, 8);
      MetaCase c;
      c.name = "corpus:" + to_string(family);
      c.cfg = corpus_filter_config();
      c.trace = trace_from_datagrams(stream.datagrams);
      c.datagrams = stream.datagrams;
      cases.push_back(std::move(c));
    }

    // Scenario catalogue: every entry is born with metamorphic
    // coverage. Tier-1 runs the catalogue's tier-1 slice (one per
    // scenario family); full sweeps run them all.
    const auto& specs = rtcc::emul::scenario_catalogue();
    const std::size_t n_scenarios =
        opts.full ? specs.size()
                  : std::min(rtcc::emul::kTier1Scenarios, specs.size());
    rtcc::emul::ScenarioOptions sopts;
    sopts.media_scale = opts.media_scale;
    sopts.call_s = opts.call_s;
    sopts.pre_call_s = opts.pre_call_s;
    sopts.post_call_s = opts.post_call_s;
    for (std::size_t i = 0; i < n_scenarios; ++i) {
      sopts.seed = opts.seed + 500 + i;
      auto scen = specs[i].build(sopts);
      MetaCase c;
      c.name = "scenario:" + scen.name;
      c.cfg = scen.cfg;
      c.trace = std::move(scen.trace);
      cases.push_back(std::move(c));
    }
  }

  const auto& chains = default_chains();
  const std::size_t n_chains = opts.full ? chains.size() : 2;

  // ---- transforms + oracles ---------------------------------------------
  for (const auto& c : cases) {
    ++st.cases;
    const AnalyzedCase base = analyze_case(c.trace, c.cfg);

    ++st.oracle_checks;
    if (auto err = check_filter_idempotence(c.trace, c.cfg))
      record(c.name, "(none)", "filter-idempotence", *err, c.datagrams, {});

    ++st.oracle_checks;
    if (auto err = check_stream_invariance(base, c.trace, c.cfg, c.name))
      record(c.name, "(none)", "stream", *err, c.datagrams, {});

    for (const auto& t : transform_catalogue()) {
      TransformResult r = t.apply(c.trace, c.cfg);
      if (!r.applicable) {
        ++st.skipped;
        continue;
      }
      ++st.transform_runs;
      const AnalyzedCase ta = analyze_case(r.trace, r.cfg);
      ++st.oracle_checks;
      if (auto err = check_verdict_invariance(base, ta, t.name))
        record(c.name, t.name, "verdict", *err, c.datagrams, {t.name});
      ++st.oracle_checks;
      if (auto err = check_ingest_ledger(base.merged, ta.merged, r,
                                         r.trace.size()))
        record(c.name, t.name, "ledger", *err, c.datagrams, {t.name});
      // The one-pass engine must reproduce the transformed trace's own
      // verdicts too — 13 transforms x the streaming engine.
      ++st.oracle_checks;
      if (auto err = check_stream_invariance(ta, r.trace, r.cfg, t.name))
        record(c.name, t.name, "stream", *err, c.datagrams, {t.name});
    }

    for (std::size_t ci = 0; ci < n_chains; ++ci) {
      auto r = apply_chain(c.trace, c.cfg, chains[ci]);
      if (!r) {
        ++st.skipped;
        continue;
      }
      ++st.chain_runs;
      const std::string name = chain_name(chains[ci]);
      const AnalyzedCase ta = analyze_case(r->trace, r->cfg);
      ++st.oracle_checks;
      if (auto err = check_verdict_invariance(base, ta, name))
        record(c.name, name, "verdict", *err, c.datagrams, chains[ci]);
      ++st.oracle_checks;
      if (auto err = check_stream_invariance(ta, r->trace, r->cfg, name))
        record(c.name, name, "stream", *err, c.datagrams, chains[ci]);
    }
  }

  // ---- emulator scale sweep ---------------------------------------------
  {
    std::vector<rtcc::emul::AppId> sweep_apps;
    if (opts.full)
      sweep_apps = rtcc::emul::all_apps();
    else
      sweep_apps = {rtcc::emul::AppId::kZoom};
    std::uint64_t sweep_seed = opts.seed + 1000;
    for (const auto app : sweep_apps) {
      rtcc::emul::CallConfig cfg;
      cfg.app = app;
      cfg.network = rtcc::emul::NetworkSetup::kWifiP2p;
      cfg.pre_call_s = opts.pre_call_s;
      cfg.call_s = opts.call_s;
      cfg.post_call_s = opts.post_call_s;
      cfg.media_scale = opts.media_scale;
      cfg.seed = sweep_seed++;
      ++st.oracle_checks;
      if (auto err = check_scale_monotonicity(cfg, 2.0))
        record("scale:" + to_string(app), "(scale x2)", "scale-monotonic",
               *err, {}, {});
    }
  }

  // ---- merge order ------------------------------------------------------
  {
    std::vector<CallAnalysis> parts;
    std::uint64_t cell_seed = opts.seed + 2000;
    const int n_parts = opts.full ? 4 : 3;
    for (int i = 0; i < n_parts; ++i) {
      rtcc::emul::CallConfig cfg;
      cfg.app = rtcc::emul::AppId::kDiscord;
      cfg.pre_call_s = opts.pre_call_s;
      cfg.call_s = opts.call_s;
      cfg.post_call_s = opts.post_call_s;
      cfg.media_scale = opts.media_scale;
      cfg.seed = cell_seed++;
      cfg.call_index = i;
      parts.push_back(rtcc::report::analyze_call(rtcc::emul::emulate_call(cfg)));
    }
    ++st.oracle_checks;
    if (auto err = check_merge_order_insensitivity(parts))
      record("merge-order", "(merge)", "merge-order", *err, {}, {});
  }

  // ---- corpus save + report ---------------------------------------------
  if (!opts.corpus_dir.empty()) {
    for (const auto& v : st.violations) {
      if (v.datagrams.empty()) continue;
      FuzzFinding f;
      f.description = "meta " + v.oracle + " under " + v.transform;
      f.mutator = "meta:" + v.transform;
      f.seed_family = v.case_name;
      f.datagrams = v.datagrams;
      (void)save_corpus_file(opts.corpus_dir + "/" + corpus_file_name(f), f);
    }
  }

  std::ostringstream rep;
  rep << "meta-driver mode=" << (opts.full ? "full" : "tier1")
      << " seed=" << opts.seed << "\n";
  rep << "cases=" << st.cases << " transform_runs=" << st.transform_runs
      << " chain_runs=" << st.chain_runs
      << " oracle_checks=" << st.oracle_checks << " skipped=" << st.skipped
      << " violations=" << st.violations.size() << "\n";
  for (const auto& v : st.violations)
    rep << "violation case=" << v.case_name << " transform=" << v.transform
        << " oracle=" << v.oracle << ": " << v.detail << "\n";
  rep << (st.violations.empty() ? "OK" : "FAIL") << "\n";
  st.report = rep.str();
  return st;
}

}  // namespace rtcc::testkit::meta
