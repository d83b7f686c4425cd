#include "dpi/scanning_dpi.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "dpi/anchor_scan.hpp"
#include "proto/stun/stun_registry.hpp"

namespace rtcc::dpi {

using rtcc::util::BytesView;

namespace {

// The emit helpers run once per anchored offset — ~25% of all scanned
// bytes on encrypted payloads — so a real call (argument spills plus
// materialising the optional sniff result) costs more than the sniff
// itself. Force-inline them into both extraction loops.
#if defined(__GNUC__) || defined(__clang__)
#define RTCC_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define RTCC_ALWAYS_INLINE inline
#endif

/// Demux-node unroll width: descriptors emitted per loop iteration. A
/// {2,4} x prefetch sweep showed no significant separation. The
/// constant-trip inner loops below fully unroll.
constexpr std::size_t kDemuxUnroll = 2;

namespace stun = rtcc::proto::stun;
namespace rtp = rtcc::proto::rtp;
namespace rtcp = rtcc::proto::rtcp;
namespace quic = rtcc::proto::quic;

/// Lightweight candidate: just what validation and the cover walk need;
/// the full (allocating) parse happens once per *accepted* candidate.
/// RTP's header pattern matches ~25% of random offsets, so on a relay
/// media stream this array is by far the scan's largest data structure
/// — it is kept to 20 bytes by folding the per-protocol sniff details
/// (STUN txid, RTCP PT, RTP seq) into the support tables at emission
/// time instead of carrying them per candidate.
struct Candidate {
  static constexpr std::uint8_t kValidated = 0x01;
  static constexpr std::uint8_t kQuicLong = 0x02;

  std::uint32_t datagram = 0;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;  // wire extent (RTP: to end of datagram)
  std::uint32_t ssrc = 0;    // RTP / RTCP first-packet SSRC
  std::uint16_t channel = 0;  // ChannelData
  MessageKind kind = MessageKind::kRtp;
  std::uint8_t flags = 0;

  [[nodiscard]] bool validated() const { return flags & kValidated; }
  [[nodiscard]] bool quic_long() const { return flags & kQuicLong; }
};

struct TxidHash {
  std::size_t operator()(const stun::TransactionId& id) const {
    std::uint64_t h = 14695981039346656037ULL;  // FNV-1a
    for (const std::uint8_t b : id) {
      h ^= b;
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Everything the extraction nodes append to: the candidate list plus
/// the stream-level support tables (Algorithm 1's validation inputs).
/// The tables are filled *at emission* — the old separate walk over the
/// candidate array to build them re-read tens of MB per relay stream.
/// The RTP table is the big one — the scan yields one noise candidate
/// per ~25% of offsets with mostly-unique fake SSRCs — and is kept
/// flat: (ssrc, seq) packed into one u64. Validation first drops the
/// pairs whose SSRC occurs once (drop_single_ssrc_pairs: the bulk of
/// the noise, and never valid), then groups the rest by SSRC and walks
/// them group-by-group. A map of per-SSRC vectors here costs an
/// allocation per noise SSRC and dominates validation time. The small
/// tables (STUN txids, channels, RTCP SSRCs) stay hashed.
struct ScanState {
  std::vector<Candidate> candidates;
  std::vector<std::uint64_t> rtp_pairs;  // ssrc << 16 | seq
  std::unordered_map<stun::TransactionId, int, TxidHash> stun_txids;
  std::unordered_map<std::uint16_t, int> channel_support;
  std::unordered_map<std::uint32_t, int> rtcp_ssrc_support;
  int quic_long_support = 0;

  /// Ready the state for a fresh analyze_batch call while keeping the
  /// vectors' capacity and the hash tables' buckets warm.
  void reset() {
    candidates.clear();
    rtp_pairs.clear();
    stun_txids.clear();
    channel_support.clear();
    rtcp_ssrc_support.clear();
    quic_long_support = 0;
  }
};

struct RtpSniff {
  std::size_t header_size = 0;
  std::uint8_t payload_type = 0;
  std::uint16_t seq = 0;
  std::uint32_t ssrc = 0;
};

/// Header-only RTP check: version 2, CSRC/extension fit in the bound.
RTCC_ALWAYS_INLINE std::optional<RtpSniff> sniff_rtp(BytesView d) {
  if (d.size() < 12) return std::nullopt;
  if ((d[0] >> 6) != 2) return std::nullopt;
  const std::size_t cc = d[0] & 0x0F;
  const bool ext = (d[0] & 0x10) != 0;
  std::size_t hdr = 12 + cc * 4;
  if (d.size() < hdr) return std::nullopt;
  if (ext) {
    if (d.size() < hdr + 4) return std::nullopt;
    const std::uint16_t words = rtcc::util::load_be16(d.data() + hdr + 2);
    hdr += 4 + std::size_t{words} * 4;
    if (d.size() < hdr) return std::nullopt;
  }
  if (d[0] & 0x20) {  // padding byte must fit
    const std::uint8_t pad = d[d.size() - 1];
    if (pad == 0 || hdr + pad > d.size()) return std::nullopt;
  }
  RtpSniff s;
  s.header_size = hdr;
  s.payload_type = d[1] & 0x7F;
  s.seq = rtcc::util::load_be16(d.data() + 2);
  s.ssrc = rtcc::util::load_be32(d.data() + 8);
  return s;
}

/// Header-only RTCP compound check.
struct RtcpSniff {
  std::size_t parsed = 0;    // bytes covered by well-formed packets
  std::size_t trailing = 0;  // leftover within the datagram
  std::uint8_t first_pt = 0;
  std::uint32_t first_ssrc = 0;
  std::size_t packets = 0;
};

RTCC_ALWAYS_INLINE std::optional<RtcpSniff> sniff_rtcp(BytesView d, std::size_t max_trailing) {
  if (d.size() < 8) return std::nullopt;
  RtcpSniff s;
  std::size_t pos = 0;
  while (pos + 4 <= d.size()) {
    const std::uint8_t b0 = d[pos];
    if ((b0 >> 6) != 2) break;
    const std::uint8_t pt = d[pos + 1];
    // Restrict to the assigned 200-207 block: the full 192-223 range
    // admits too many false positives when scanning mid-payload.
    if (pt < 200 || pt > 207) break;
    const std::size_t len =
        4 + std::size_t{rtcc::util::load_be16(d.data() + pos + 2)} * 4;
    if (pos + len > d.size()) break;
    if (s.packets == 0) {
      s.first_pt = pt;
      if (len >= 8) s.first_ssrc = rtcc::util::load_be32(d.data() + pos + 4);
    }
    ++s.packets;
    pos += len;
  }
  if (s.packets == 0) return std::nullopt;
  s.parsed = pos;
  s.trailing = d.size() - pos;
  if (s.trailing > max_trailing) return std::nullopt;
  return s;
}

std::uint16_t seq_distance(std::uint16_t a, std::uint16_t b) {
  const std::uint16_t d1 = static_cast<std::uint16_t>(a - b);
  const std::uint16_t d2 = static_cast<std::uint16_t>(b - a);
  return std::min(d1, d2);
}

/// Multiplicative hash of an SSRC onto `log2_bits` bits (<= 32).
inline std::uint32_t ssrc_bucket(std::uint32_t ssrc, unsigned log2_bits) {
  return (ssrc * 0x9E3779B1u) >> (32 - log2_bits);
}

/// Repeat filter ahead of the grouping: drops every packed
/// (ssrc << 16 | seq) pair whose SSRC occurs exactly once in `v`,
/// keeping the survivors in order (stable, in place). On encrypted
/// media nearly every RTP-shaped offset carries a fresh random SSRC, so
/// this removes most of the keys before the radix passes see them. An
/// SSRC seen once has support 1 and can never validate (continuity
/// needs two distinct seqs), and its support is known without a table
/// entry, so nothing downstream changes.
///
/// Two hashed bitsets over the SSRC, "seen" and "seen again": a pair
/// is kept when its bucket saw a second arrival. A repeated SSRC always
/// sets its bucket's second bit, so every pair of it survives; a
/// singleton that shares a bucket with another SSRC survives too and is
/// merely grouped with support 1. The bitsets are sized to ~8 bits per
/// pair, capped at 512 KiB each, and interleaved so one cache line
/// holds both bits of a bucket.
void drop_single_ssrc_pairs(std::vector<std::uint64_t>& v) {
  constexpr unsigned kMaxLog2Bits = 22;  // 4 Mi bits = 512 KiB per set
  unsigned log2_bits = 9;
  while (log2_bits < kMaxLog2Bits &&
         (std::size_t{1} << log2_bits) < 8 * v.size())
    ++log2_bits;
  // [2w] = seen, [2w + 1] = seen again. thread_local like the rest of
  // the DPI scratch: a fresh 1 MiB allocation per call would fault in.
  static thread_local std::vector<std::uint64_t> sets;
  sets.assign(std::size_t{2} << (log2_bits - 6), 0);
  const auto bucket = [log2_bits](std::uint64_t x) {
    return ssrc_bucket(static_cast<std::uint32_t>(x >> 16), log2_bits);
  };
  for (const std::uint64_t x : v) {
    const std::uint32_t h = bucket(x);
    std::uint64_t* w = &sets[2 * (h >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (h & 63);
    w[1] |= w[0] & bit;
    w[0] |= bit;
  }
  std::size_t kept = 0;
  for (const std::uint64_t x : v) {
    const std::uint32_t h = bucket(x);
    v[kept] = x;
    kept += (sets[2 * (h >> 6) + 1] >> (h & 63)) & 1;
  }
  v.resize(kept);
}

/// Groups packed (ssrc << 16 | seq) keys by SSRC, ascending. Even after
/// the repeat filter there are ~10^4-10^5 keys on a relay media stream,
/// so comparison sorting them costs more than the whole validation
/// walk; two 16-bit LSD counting passes over the SSRC field are
/// near-linear instead. Sequence numbers inside a group stay in
/// emission order: the continuity walk sorts the few groups that clear
/// the support gate (real streams) and never reads seq order inside
/// noise groups, so the third radix pass the full 48-bit sort needed is
/// pure waste.
void group_rtp_pairs_by_ssrc(std::vector<std::uint64_t>& v) {
  if (v.size() < 2048) {
    std::sort(v.begin(), v.end());
    return;
  }
  // The scratch is thread_local: a fresh ~1.6 MB allocation per call
  // costs more in page faults than the sort itself on large streams.
  static thread_local std::vector<std::uint64_t> tmp;
  static thread_local std::vector<std::uint32_t> pos;
  tmp.resize(v.size());
  pos.resize(1 << 16);
  for (int pass = 1; pass < 3; ++pass) {
    const int shift = pass * 16;
    std::fill(pos.begin(), pos.end(), 0);
    for (const std::uint64_t x : v) ++pos[(x >> shift) & 0xFFFF];
    std::uint32_t running = 0;
    for (std::uint32_t& c : pos) {
      const std::uint32_t n = c;
      c = running;
      running += n;
    }
    for (const std::uint64_t x : v) tmp[pos[(x >> shift) & 0xFFFF]++] = x;
    v.swap(tmp);
  }
}

// ---- Candidate emission, one helper per protocol ----
//
// Each helper re-checks its full structural conditions, so it emits the
// same candidate whether invoked at every offset (naive oracle) or only
// at anchored offsets (prefilter): the anchors in anchor_scan.cpp are
// necessary conditions of these checks, never a replacement for them.

RTCC_ALWAYS_INLINE void emit_stun(BytesView at, std::uint32_t di, std::uint32_t off,
               ScanState& st) {
  if (at.size() < stun::kHeaderSize || (at[0] & 0xC0) != 0) return;
  const std::uint32_t cookie = rtcc::util::load_be32(at.data() + 4);
  const std::uint16_t dlen = rtcc::util::load_be16(at.data() + 2);
  const bool modern = cookie == stun::kMagicCookie;
  // Classic (RFC 3489) STUN has no cookie; to keep false positives
  // manageable we require a defined method and an exact datagram-tail
  // fit, which real classic stacks satisfy.
  const bool classic_fit =
      !modern &&
      stun::lookup_message_type(rtcc::util::load_be16(at.data())).source !=
          proto::SpecSource::kUndefined &&
      stun::kHeaderSize + std::size_t{dlen} == at.size();
  if (!modern && !classic_fit) return;
  stun::ParseOptions po;
  po.require_magic_cookie = modern;
  if (auto parsed = stun::parse(at, po)) {
    Candidate& c = st.candidates.emplace_back();
    c.kind = MessageKind::kStun;
    c.datagram = di;
    c.offset = off;
    c.length = static_cast<std::uint32_t>(parsed->consumed);
    ++st.stun_txids[parsed->message.transaction_id];
  }
}

RTCC_ALWAYS_INLINE void emit_channel_data(BytesView at, std::uint32_t di, std::uint32_t off,
                       ScanState& st) {
  // TURN ChannelData: first byte 0x40-0x4F.
  if (at.size() < 4 || at[0] < 0x40 || at[0] > 0x4F) return;
  const std::uint16_t clen = rtcc::util::load_be16(at.data() + 2);
  if (4 + std::size_t{clen} > at.size()) return;
  Candidate& c = st.candidates.emplace_back();
  c.kind = MessageKind::kChannelData;
  c.datagram = di;
  c.offset = off;
  // Extent includes trailing padding up to the 4-byte boundary only
  // when it reaches the datagram end (the FaceTime pattern); otherwise
  // exactly 4+len.
  std::size_t extent = 4 + std::size_t{clen};
  const std::size_t padded = (extent + 3) & ~std::size_t{3};
  if (padded == at.size()) extent = padded;
  c.length = static_cast<std::uint32_t>(extent);
  c.channel = rtcc::util::load_be16(at.data());
  ++st.channel_support[c.channel];
}

RTCC_ALWAYS_INLINE void emit_rtcp(BytesView at, std::uint32_t di, std::uint32_t off,
               std::size_t max_trailing, ScanState& st) {
  if (auto s = sniff_rtcp(at, max_trailing)) {
    Candidate& c = st.candidates.emplace_back();
    c.kind = MessageKind::kRtcp;
    c.datagram = di;
    c.offset = off;
    c.length = static_cast<std::uint32_t>(s->parsed + s->trailing);
    c.ssrc = s->first_ssrc;
    ++st.rtcp_ssrc_support[c.ssrc];
  }
}

RTCC_ALWAYS_INLINE void emit_quic(BytesView at, std::uint32_t di, std::uint32_t off,
               ScanState& st) {
  if (at.empty()) return;
  const std::uint8_t b0 = at[0];
  if ((b0 & 0xC0) == 0xC0) {  // long form + fixed bit
    if (auto h = quic::parse(at)) {
      // Only QUIC v1 long headers are scanned for: admitting the
      // all-zero version-negotiation pattern would match zero runs
      // inside opaque payloads.
      if (h->version == quic::kVersion1) {
        Candidate& c = st.candidates.emplace_back();
        c.kind = MessageKind::kQuic;
        c.datagram = di;
        c.offset = off;
        c.length = static_cast<std::uint32_t>(h->wire_size());
        c.flags = Candidate::kQuicLong;
        ++st.quic_long_support;
      }
    }
  } else if ((b0 & 0xC0) == 0x40 && off == 0) {
    // Short header: only meaningful at offset 0 and only if the stream
    // establishes a connection (checked in validation).
    Candidate& c = st.candidates.emplace_back();
    c.kind = MessageKind::kQuic;
    c.datagram = di;
    c.offset = 0;
    c.length = static_cast<std::uint32_t>(at.size());
  }
}

RTCC_ALWAYS_INLINE void emit_rtp(BytesView at, std::uint32_t di, std::uint32_t off,
              ScanState& st) {
  if (auto s = sniff_rtp(at)) {
    // Skip byte patterns that are really RTCP (PT 72-79 with the marker
    // bit corresponds to RTCP types 200-207).
    const std::uint8_t pt_byte = at[1];
    if (pt_byte >= 0xC8 && pt_byte <= 0xCF) return;
    Candidate& c = st.candidates.emplace_back();
    c.kind = MessageKind::kRtp;
    c.datagram = di;
    c.offset = off;
    c.length = static_cast<std::uint32_t>(at.size());
    c.ssrc = s->ssrc;
    st.rtp_pairs.push_back(std::uint64_t{s->ssrc} << 16 | s->seq);
  }
}

/// One anchored offset: run the sniffs the anchor mask selects, in the
/// fixed per-offset protocol order (STUN, ChannelData, RTCP, QUIC, RTP)
/// that the naive oracle loop uses — the candidate list is identical,
/// not merely equal as a set.
RTCC_ALWAYS_INLINE void emit_at(BytesView payload, std::uint32_t di,
                                std::uint32_t off, std::uint8_t mask,
                                const ScanOptions& opts, ScanState& st) {
  const BytesView at = payload.subspan(off);
  if (mask == anchor::kRtp) {  // ~25% of offsets: keep it lean
    emit_rtp(at, di, off, st);
    return;
  }
  if (mask & anchor::kStun) emit_stun(at, di, off, st);
  if (mask & anchor::kChannelData) emit_channel_data(at, di, off, st);
  if (mask & anchor::kRtcp) emit_rtcp(at, di, off, opts.max_rtcp_trailing, st);
  if (mask & (anchor::kQuicLong | anchor::kQuicShort))
    emit_quic(at, di, off, st);
  if (mask & anchor::kRtp) emit_rtp(at, di, off, st);
}

/// Naive oracle extraction for one datagram: every protocol sniff at
/// every offset 0..k.
void extract_naive(BytesView payload, std::uint32_t di,
                   const ScanOptions& opts, ScanState& st) {
  const std::size_t limit = std::min(opts.max_offset + 1, payload.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const BytesView at = payload.subspan(i);
    const auto off = static_cast<std::uint32_t>(i);
    if (opts.scan_stun) {
      emit_stun(at, di, off, st);
      emit_channel_data(at, di, off, st);
    }
    if (opts.scan_rtcp) emit_rtcp(at, di, off, opts.max_rtcp_trailing, st);
    if (opts.scan_quic) emit_quic(at, di, off, st);
    if (opts.scan_rtp) emit_rtp(at, di, off, st);
  }
}

/// Per-chunk scratch for the node graph, reused across chunks (and,
/// being thread_local at the call site, across calls) so the
/// steady-state inner loops are allocation-free.
struct BatchScratch {
  std::vector<std::uint32_t> scannable;   // demux output: packet indices
  std::vector<AnchorMasks> masks;         // prefilter output, whole chunk
  std::vector<std::uint32_t> mask_begin;  // per scannable packet, +1 end
};

}  // namespace

ScanningDpi::ScanningDpi(ScanOptions options) : options_(options) {}

std::vector<DatagramAnalysis> ScanningDpi::analyze_stream(
    const std::vector<StreamDatagram>& datagrams) const {
  rtcc::net::PacketBatch batch;
  batch.reserve(datagrams.size());
  for (const auto& d : datagrams) batch.push(d.payload, d.ts, d.dir);
  return analyze_batch(batch);
}

std::vector<DatagramAnalysis> ScanningDpi::analyze_batch(
    const rtcc::net::PacketBatch& packets, PipelineCounters* counters) const {
  namespace net = rtcc::net;
  const std::size_t n_packets = packets.size();
  // Extraction state is thread_local: the candidate and pair buffers
  // reach a few MB on relay media streams, and re-growing (and
  // re-faulting) them every call costs more than the scan of a small
  // stream. Reset keeps capacity and hash-table buckets warm.
  static thread_local ScanState scan_state;
  ScanState& st = scan_state;
  st.reset();
  if (st.candidates.capacity() < n_packets * 2)
    st.candidates.reserve(n_packets * 2);
  if (st.rtp_pairs.capacity() < n_packets * 2)
    st.rtp_pairs.reserve(n_packets * 2);

  // ---- Step 1: candidate extraction (Algorithm 1, lines 5-13) ----
  constexpr std::size_t bsz = net::kBatchSize;
  if (!options_.use_anchor_prefilter) {
    // Oracle path: every protocol sniff at every offset 0..k.
    for (std::size_t di = 0; di < n_packets; ++di)
      extract_naive(packets.payload(di), static_cast<std::uint32_t>(di),
                    options_, st);
  } else {
    // Node graph: demux → prefilter → scan, one fixed-size vector at a
    // time. Each node runs its loop over the whole chunk before the
    // next starts, so its code, tables and branch history stay hot for
    // bsz packets instead of being evicted every datagram.
    static thread_local BatchScratch batch_scratch;
    BatchScratch& scratch = batch_scratch;
    scratch.scannable.reserve(bsz);
    scratch.mask_begin.reserve(bsz + 1);
    const AnchorBlockFn kernel = anchor_block_fn();
    for (std::size_t base = 0; base < n_packets; base += bsz) {
      const std::size_t end = std::min(n_packets, base + bsz);

      // Demux node: drop empty payloads (nothing to scan), prefetch
      // upcoming payload heads. Unrolled loop: kDemuxUnroll descriptors
      // per iteration keeps the loads' latencies overlapped.
      scratch.scannable.clear();
      std::size_t di = base;
      for (; di + kDemuxUnroll <= end; di += kDemuxUnroll) {
        for (std::size_t u = 0; u < kDemuxUnroll; ++u)
          if (di + u + net::kPrefetchAhead < end)
            net::prefetch(packets.data[di + u + net::kPrefetchAhead]);
        for (std::size_t u = 0; u < kDemuxUnroll; ++u)
          if (packets.len[di + u] != 0)
            scratch.scannable.push_back(static_cast<std::uint32_t>(di + u));
      }
      for (; di < end; ++di)
        if (packets.len[di] != 0)
          scratch.scannable.push_back(static_cast<std::uint32_t>(di));
      if (counters != nullptr) {
        ++counters->demux.vectors;
        counters->demux.packets += end - base;
        counters->demux.suspended += (end - base) - scratch.scannable.size();
      }

      // Prefilter node: the pure SIMD pass. One kernel call per payload
      // writes the per-family hot-lane masks for its whole scan region
      // into the chunk's mask buffer (32 bytes per 64 offsets — far
      // less traffic than an expanded hit list at media-payload hit
      // rates, and L1-resident at the default batch size). At the
      // scalar level there is no kernel and the node is a pass-through;
      // the scan node then runs the per-offset loop itself.
      scratch.masks.clear();
      scratch.mask_begin.clear();
      if (kernel != nullptr) {
        for (std::size_t si = 0; si < scratch.scannable.size(); ++si) {
          if (si + net::kPrefetchAhead < scratch.scannable.size())
            net::prefetch(
                packets.data[scratch.scannable[si + net::kPrefetchAhead]]);
          scratch.mask_begin.push_back(
              static_cast<std::uint32_t>(scratch.masks.size()));
          stage_anchor_masks(packets.payload(scratch.scannable[si]), options_,
                             kernel, scratch.masks);
        }
        scratch.mask_begin.push_back(
            static_cast<std::uint32_t>(scratch.masks.size()));
      }
      if (counters != nullptr) {
        ++counters->prefilter.vectors;
        counters->prefilter.packets += scratch.scannable.size();
        // Suspended = hot lanes staged for the scan node to re-test.
        std::uint64_t lanes = 0;
        for (const AnchorMasks& m : scratch.masks)
          lanes += static_cast<std::uint64_t>(__builtin_popcountll(m.any()));
        counters->prefilter.suspended += lanes;
      }

      // Scan node: walk the staged masks (applying the exact anchor
      // rules the approximate stun lanes still need) and run the full
      // protocol sniffs at each anchored offset.
      const std::size_t before = st.candidates.size();
      for (std::size_t si = 0; si < scratch.scannable.size(); ++si) {
        const std::uint32_t d32 = scratch.scannable[si];
        const BytesView payload = packets.payload(d32);
        const auto emit = [&](std::uint32_t off, std::uint8_t mask) {
          emit_at(payload, d32, off, mask, options_, st);
        };
        for_each_anchor(payload, options_,
                        kernel != nullptr
                            ? scratch.masks.data() + scratch.mask_begin[si]
                            : nullptr,
                        emit);
      }
      if (counters != nullptr) {
        ++counters->scan.vectors;
        counters->scan.packets += scratch.scannable.size();
        counters->scan.suspended += st.candidates.size() - before;
      }
    }
  }

  std::vector<Candidate>& candidates = st.candidates;

  // ---- Step 2: protocol-specific validation (lines 14-19) ----
  // The support tables were built at emission (ScanState); what remains
  // is the stream-level RTP continuity analysis and the per-candidate
  // accept/reject flags.

  // Grouping the packed pairs by SSRC gives the support counts; each
  // qualifying group's sequence numbers are sorted on demand below.
  // SSRCs seen once are filtered out first: their support is 1.
  drop_single_ssrc_pairs(st.rtp_pairs);
  group_rtp_pairs_by_ssrc(st.rtp_pairs);
  std::vector<std::uint64_t>& rtp_pairs = st.rtp_pairs;

  // Per-SSRC support (for overlap dominance) and validated SSRCs
  // (support + sequence-number continuity), ascending, probed with
  // binary search in the loops below. An SSRC missing from rtp_ssrcs
  // was emitted once (the repeat filter dropped it).
  std::vector<std::uint32_t> rtp_ssrcs, rtp_support, valid_rtp_ssrcs;
  rtp_ssrcs.reserve(rtp_pairs.size());
  rtp_support.reserve(rtp_pairs.size());
  for (std::size_t lo = 0; lo < rtp_pairs.size();) {
    const auto ssrc = static_cast<std::uint32_t>(rtp_pairs[lo] >> 16);
    std::size_t hi = lo + 1;
    while (hi < rtp_pairs.size() && (rtp_pairs[hi] >> 16) == ssrc) ++hi;
    const std::size_t support = hi - lo;
    rtp_ssrcs.push_back(ssrc);
    rtp_support.push_back(static_cast<std::uint32_t>(support));
    if (support >= options_.min_ssrc_support) {
      // Equal-SSRC keys order by their low 16 bits, i.e. by seq.
      std::sort(rtp_pairs.begin() + static_cast<std::ptrdiff_t>(lo),
                rtp_pairs.begin() + static_cast<std::ptrdiff_t>(hi));
      // Continuity: a healthy stream's sorted sequence numbers are
      // mostly adjacent; scanning noise produces uniformly random ones.
      // Constant proprietary-header bytes produce the opposite artifact
      // — the same fake (ssrc, seq) repeated verbatim — so genuine
      // streams must also show the sequence number actually advancing.
      std::size_t close = 0, distinct = 1;
      for (std::size_t i = lo + 1; i < hi; ++i) {
        const auto seq = static_cast<std::uint16_t>(rtp_pairs[i]);
        const auto prev = static_cast<std::uint16_t>(rtp_pairs[i - 1]);
        // A zero gap is a duplicate, not adjacency: constant header
        // bytes masquerading as RTP repeat the same few (ssrc, seq)
        // pairs, and duplicates must not count as continuity evidence.
        const std::uint16_t gap = seq_distance(seq, prev);
        if (gap >= 1 && gap <= 16) ++close;
        if (seq != prev) ++distinct;
      }
      const bool advancing = distinct >= std::max<std::size_t>(2, support / 4);
      if (advancing && close * 2 >= support - 1)
        valid_rtp_ssrcs.push_back(ssrc);
    }
    lo = hi;
  }
  // Bitmap gate in front of the binary search: a 1 KiB (L1-resident)
  // hashed set of the valid SSRCs, so the walk rejects a noise RTP
  // candidate with one bit test. A set bit may be a collision, and the
  // search settles it.
  constexpr unsigned kValidLog2Bits = 13;
  std::array<std::uint64_t, (1u << kValidLog2Bits) / 64> valid_bits{};
  for (const std::uint32_t ssrc : valid_rtp_ssrcs) {
    const std::uint32_t h = ssrc_bucket(ssrc, kValidLog2Bits);
    valid_bits[h >> 6] |= std::uint64_t{1} << (h & 63);
  }
  const auto ssrc_valid = [&](std::uint32_t ssrc) {
    const std::uint32_t h = ssrc_bucket(ssrc, kValidLog2Bits);
    return ((valid_bits[h >> 6] >> (h & 63)) & 1) != 0 &&
           std::binary_search(valid_rtp_ssrcs.begin(), valid_rtp_ssrcs.end(),
                              ssrc);
  };

  // Per-candidate accept/reject, applied inside the per-datagram range
  // walk below (fused with the filter: the candidate array exceeds L2
  // on relay-scale batches, so a separate flag pass would stream the
  // whole array through the cache twice).
  const auto validate_candidate = [&](Candidate& c) {
    if (!options_.validate) {
      c.flags |= Candidate::kValidated;
      return;
    }
    switch (c.kind) {
      case MessageKind::kStun:
        // Magic-cookie messages and exact-fit classic messages are
        // structurally sound. Transaction pairing raises confidence but
        // unanswered requests must still be extracted — they are the
        // non-compliance evidence (e.g. FaceTime §5.2.1).
        c.flags |= Candidate::kValidated;
        break;
      case MessageKind::kChannelData: {
        // A genuine ChannelData message extends to the datagram end
        // (optionally via padding), and real TURN channels repeat the
        // same channel number stream-wide; requiring both keeps random
        // byte runs inside media payloads from matching.
        const std::size_t remaining = packets.len[c.datagram] - c.offset;
        if (std::size_t{c.length} == remaining &&
            st.channel_support[c.channel] >= 2)
          c.flags |= Candidate::kValidated;
        break;
      }
      case MessageKind::kRtp:
        if (ssrc_valid(c.ssrc)) c.flags |= Candidate::kValidated;
        break;
      case MessageKind::kRtcp: {
        // Cross-validate against known RTP streams, or require repeated
        // appearances of the same sender SSRC within this stream
        // (covers RTCP-only streams and Discord's SSRC=0 usage).
        const std::size_t remaining = packets.len[c.datagram] - c.offset;
        const bool extent_ok = std::size_t{c.length} == remaining;
        if (extent_ok &&
            (ssrc_valid(c.ssrc) || st.rtcp_ssrc_support[c.ssrc] >= 2))
          c.flags |= Candidate::kValidated;
        break;
      }
      case MessageKind::kQuic:
        // Long headers validate on version+structure; short headers
        // require the stream to have completed a long-header handshake.
        if (c.quic_long() || st.quic_long_support >= 2)
          c.flags |= Candidate::kValidated;
        break;
    }
  };

  // ---- Overlap resolution + full parse of accepted candidates ----
  // Both extraction paths emit candidates in (datagram, offset,
  // kind-rank) order — ascending offsets, and per offset the fixed
  // STUN, ChannelData, RTCP, QUIC, RTP sequence — so the per-datagram
  // groups below are contiguous ranges of `candidates`, already in the
  // order the cover walk needs; no per-datagram sort or bucket vectors.
  std::vector<DatagramAnalysis> out(n_packets);
  std::vector<Candidate*> cands;  // scratch, reused across datagrams
  std::size_t range_begin = 0;

  for (std::size_t di = 0; di < n_packets; ++di) {
    auto& anal = out[di];
    anal.payload_len = packets.len[di];
    std::size_t range_end = range_begin;
    while (range_end < candidates.size() &&
           candidates[range_end].datagram == di)
      ++range_end;
    anal.candidates = range_end - range_begin;
    cands.clear();
    for (std::size_t i = range_begin; i < range_end; ++i) {
      validate_candidate(candidates[i]);
      if (candidates[i].validated()) cands.push_back(&candidates[i]);
    }
    range_begin = range_end;

    // Overlap dominance: misaligned RTP candidates can slip past the
    // SSRC-support gate when their fake SSRC bytes partially coincide
    // with a real stream's (e.g. the off-by-one alignment that blends a
    // timestamp byte with three real SSRC bytes). A candidate whose
    // SSRC has a small fraction of the support of an overlapping RTP
    // candidate is noise and must not shadow the genuine message.
    // Every RTP candidate emitted one pair, so an SSRC the repeat
    // filter dropped has support exactly 1. (With validation on, only
    // valid SSRCs — support >= 2, always in the table — reach here.)
    auto support_of = [&](const Candidate* c) -> std::size_t {
      const auto it =
          std::lower_bound(rtp_ssrcs.begin(), rtp_ssrcs.end(), c->ssrc);
      if (it == rtp_ssrcs.end() || *it != c->ssrc) return 1;
      return rtp_support[static_cast<std::size_t>(it - rtp_ssrcs.begin())];
    };
    for (std::size_t ci = 0; ci < cands.size(); ++ci) {
      Candidate* c = cands[ci];
      if (c->kind != MessageKind::kRtp) continue;
      for (std::size_t cj = 0; cj < cands.size(); ++cj) {
        const Candidate* n = cands[cj];
        if (ci == cj || n->kind != MessageKind::kRtp) continue;
        // Two RTP candidates in one datagram always overlap: each spans
        // the datagram remainder (RTP carries no length field).
        if (support_of(n) > 4 * support_of(c)) {
          c->flags &= static_cast<std::uint8_t>(~Candidate::kValidated);
          break;
        }
      }
    }
    std::erase_if(cands, [](const Candidate* c) { return !c->validated(); });

    std::size_t covered_until = 0;
    for (std::size_t ci = 0; ci < cands.size(); ++ci) {
      Candidate* c = cands[ci];
      if (c->offset < covered_until) continue;  // overlaps accepted msg

      std::size_t extent = c->length;
      if (c->kind == MessageKind::kRtp) {
        // RTP has no length field: by default it spans the datagram
        // remainder, but a later validated RTP candidate with the same
        // SSRC splits it (the Zoom two-RTP-messages-per-datagram
        // pattern, §5.3). Other candidate kinds never truncate RTP —
        // they are overwhelmingly scan noise inside the media payload.
        extent = anal.payload_len - c->offset;
        for (std::size_t cj = ci + 1; cj < cands.size(); ++cj) {
          const Candidate* n = cands[cj];
          if (n->kind == MessageKind::kRtp && n->ssrc == c->ssrc &&
              n->offset > c->offset + 12) {
            extent = n->offset - c->offset;
            break;
          }
        }
      }

      const BytesView view = packets.payload(di).subspan(c->offset, extent);
      ExtractedMessage msg;
      msg.kind = c->kind;
      msg.offset = c->offset;
      msg.length = extent;
      bool ok = false;
      switch (c->kind) {
        case MessageKind::kStun: {
          stun::ParseOptions po;
          po.require_magic_cookie = false;
          if (auto p = stun::parse(view, po)) {
            msg.stun = std::move(p->message);
            msg.raw.assign(view.begin(),
                           view.begin() + static_cast<std::ptrdiff_t>(
                                              p->consumed));
            ok = true;
          }
          break;
        }
        case MessageKind::kChannelData:
          if (auto p = stun::parse_channel_data(view)) {
            msg.channel_data = std::move(*p);
            ok = true;
          }
          break;
        case MessageKind::kRtp:
          // Media bytes are opaque to the compliance layer; record the
          // length but skip copying them (~1 KiB per extracted packet).
          if (auto p = rtp::parse(view, rtp::ParseOptions{false})) {
            msg.rtp = std::move(p->packet);
            ok = true;
          }
          break;
        case MessageKind::kRtcp: {
          rtcp::ParseOptions po;
          po.max_trailing = options_.max_rtcp_trailing;
          if (auto p = rtcp::parse_compound(view, po)) {
            msg.rtcp = std::move(*p);
            ok = true;
          }
          break;
        }
        case MessageKind::kQuic: {
          quic::ParseOptions po;
          if (auto p = quic::parse(view, po)) {
            msg.quic = std::move(*p);
            ok = true;
          }
          break;
        }
      }
      if (!ok) continue;
      covered_until = c->offset + extent;
      anal.messages.push_back(std::move(msg));
    }

    if (anal.messages.empty()) {
      anal.klass = DatagramClass::kFullyProprietary;
    } else if (anal.messages.front().offset > 0) {
      anal.klass = DatagramClass::kProprietaryHeader;
      anal.proprietary_header_len = anal.messages.front().offset;
    } else {
      anal.klass = DatagramClass::kStandard;
    }
  }
  return out;
}

}  // namespace rtcc::dpi
