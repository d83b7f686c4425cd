#include "dpi/simd_dispatch.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "proto/stun/stun.hpp"
#include "util/env_knob.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#if defined(__GNUC__) || defined(__clang__)
#define RTCC_KERNEL_INLINE inline __attribute__((always_inline))
#else
#define RTCC_KERNEL_INLINE inline
#endif

namespace rtcc::dpi {

namespace {

#if defined(__SSE2__)

namespace stun = rtcc::proto::stun;

// ---- Kernel --------------------------------------------------------------
//
// The kernel evaluates, for runs of 64 consecutive offsets, necessary
// conditions of the downstream protocol sniffs, split per family:
//   rtp           top bits 10, PT byte outside the RTCP 200-207 block,
//                 and the full RTP header fit: 12 + 4*CSRC, plus — when
//                 the extension bit is set — the 4-byte extension
//                 header and its 32-bit-word length, <= n - offset (the
//                 extension part is refined per hot lane by
//                 refine_rtp_ext; its length field sits at a
//                 CSRC-dependent offset no vector load can reach)
//   rtcp          top bits 10, PT byte 200-207
//   channel_data  first byte 0x40-0x4F and 4 + be16(len) <= n - offset
//   stun          top bits 00 + (cookie first byte OR tail-fit sum mod
//                 2^16) — approximate: lanes can be false-positive and
//                 are re-tested by the exact scalar rules, never
//                 false-negative
//   quic          top bits 11 + version 00 00 00 01
//
// The length fits matter as much as the byte classes: on encrypted
// payloads most byte-class matches are rejected by the sniffs' first
// length check, and evaluating that rejection here (16-bit saturating
// adds against the offset ramp) keeps those lanes out of the scalar
// emit path entirely. The 16-bit offset math is valid whenever the
// payload fits 16 bits; for larger payloads the fit masks degrade to
// all-ones (filter off, sniffs still reject) by clamping the compare
// bounds to 65535.
//
// One kernel call covers a payload's whole kernel region: the vector
// constants below are materialised once per call, not once per block.

/// Per-step family masks before widening to the 64-bit block masks.
struct StepMasks {
  std::uint64_t rtp, rtcp, stun, channel_data, quic;
};

/// Compare bound for the 16-bit fit checks: saturating-add lane sums
/// are <= 65535, so clamping the bound there turns the filter into a
/// pass-through for payloads too large for 16-bit offset math.
inline std::uint16_t fit_bound(std::size_t v) {
  return static_cast<std::uint16_t>(std::min<std::size_t>(v, 0xFFFF));
}

/// Exact scalar refinement of a block's RTP mask: lanes with the
/// extension bit set must additionally fit the 4-byte extension header
/// plus its 32-bit-word length field — the second half of the RTP
/// anchor's header-fit condition, whose variable-offset length read
/// does not vectorise. On encrypted payloads a random 16-bit word count
/// rarely fits the remainder, so this rejects roughly half the
/// remaining RTP lanes. It runs per *hot* lane (not per offset) and the
/// vector fit already guaranteed 12 + 4*CSRC + 4 <= n - i for ext
/// lanes, so the length field read is in bounds.
RTCC_KERNEL_INLINE std::uint64_t refine_rtp_ext(const std::uint8_t* p,
                                                std::size_t base,
                                                std::size_t n,
                                                std::uint64_t rtp) {
  std::uint64_t bits = rtp;
  while (bits != 0) {
    const unsigned k = static_cast<unsigned>(__builtin_ctzll(bits));
    bits &= bits - 1;
    const std::size_t i = base + k;
    const std::uint8_t b0 = p[i];
    if ((b0 & 0x10) == 0) continue;
    const std::size_t hdr = 12 + 4 * (b0 & 0x0F);
    const std::size_t words =
        (std::size_t{p[i + hdr + 2]} << 8) | p[i + hdr + 3];
    if (hdr + 4 + 4 * words > n - i) rtp &= ~(std::uint64_t{1} << k);
  }
  return rtp;
}

/// Per-call constants, built once and kept in registers across blocks.
struct Sse2Consts {
  __m128i vzero, vtop, v80, vf0, v40, v0f, v10, vf8, vc8, v12, vcookie0, v01;
  __m128i gate_rtp, gate_rtcp, gate_stun, gate_quic;
  __m128i vramp, v8, vtail_target, vn, vn4;
};

RTCC_KERNEL_INLINE Sse2Consts sse2_consts(std::size_t n, unsigned gates) {
  Sse2Consts k;
  k.vzero = _mm_setzero_si128();
  k.vtop = _mm_set1_epi8(static_cast<char>(0xC0));
  k.v80 = _mm_set1_epi8(static_cast<char>(0x80));
  k.vf0 = _mm_set1_epi8(static_cast<char>(0xF0));
  k.v40 = _mm_set1_epi8(0x40);
  k.v0f = _mm_set1_epi8(0x0F);
  k.v10 = _mm_set1_epi8(0x10);
  k.vf8 = _mm_set1_epi8(static_cast<char>(0xF8));
  k.vc8 = _mm_set1_epi8(static_cast<char>(0xC8));
  k.v12 = _mm_set1_epi8(12);
  k.vcookie0 = _mm_set1_epi8(static_cast<char>(stun::kMagicCookie >> 24));
  k.v01 = _mm_set1_epi8(1);
  const __m128i vall = _mm_cmpeq_epi8(k.vzero, k.vzero);
  k.gate_rtp = (gates & gate::kRtp) ? vall : k.vzero;
  k.gate_rtcp = (gates & gate::kRtcp) ? vall : k.vzero;
  k.gate_stun = (gates & gate::kStun) ? vall : k.vzero;
  k.gate_quic = (gates & gate::kQuic) ? vall : k.vzero;
  k.vramp = _mm_set_epi16(7, 6, 5, 4, 3, 2, 1, 0);
  k.v8 = _mm_set1_epi16(8);
  k.vtail_target =
      _mm_set1_epi16(static_cast<short>(n - stun::kHeaderSize));
  k.vn = _mm_set1_epi16(static_cast<short>(fit_bound(n)));
  k.vn4 = _mm_set1_epi16(static_cast<short>(fit_bound(n - 4)));
  return k;
}

/// x <= bound, unsigned 16-bit, SSE2-only (no unsigned compare):
/// saturating x - bound == 0.
RTCC_KERNEL_INLINE __m128i sse2_le_u16(__m128i x, __m128i bound) {
  return _mm_cmpeq_epi16(_mm_subs_epu16(x, bound), _mm_setzero_si128());
}

/// One 16-lane SSE2 step; `at` is the absolute offset of lane 0.
RTCC_KERNEL_INLINE StepMasks sse2_step(const Sse2Consts& k,
                                       const std::uint8_t* p,
                                       std::size_t at) {
  const auto load = [&](std::size_t o) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + o));
  };
  const auto mask = [](__m128i v) {
    return static_cast<std::uint64_t>(
        static_cast<unsigned>(_mm_movemask_epi8(v)));
  };
  const __m128i a = load(at);
  const __m128i b1 = load(at + 1);
  const __m128i b2 = load(at + 2);
  const __m128i b3 = load(at + 3);
  const __m128i b4 = load(at + 4);
  const __m128i top = _mm_and_si128(a, k.vtop);
  // Per-lane absolute offsets as 16-bit lanes, shared by every fit
  // check below. unpacklo/hi and packs operate low-half/high-half, so
  // idx_lo covers lanes 0-7 and idx_hi lanes 8-15.
  const __m128i base = _mm_set1_epi16(static_cast<short>(at));
  const __m128i idx_lo = _mm_add_epi16(base, k.vramp);
  const __m128i idx_hi = _mm_add_epi16(idx_lo, k.v8);
  // be16(p + at + 2) per lane — the STUN/ChannelData length field.
  const __m128i be_lo = _mm_unpacklo_epi8(b3, b2);
  const __m128i be_hi = _mm_unpackhi_epi8(b3, b2);
  StepMasks m;
  {  // RTP/RTCP (version bits 10), split by the PT byte; RTP lanes must
     // also fit the 12 + 4*CSRC (+4 ext) header in the remainder.
    const __m128i cls2 = _mm_cmpeq_epi8(top, k.v80);
    const __m128i rtcp_pt = _mm_cmpeq_epi8(_mm_and_si128(b1, k.vf8), k.vc8);
    // need = 12 + 4*(a & 0x0F) + ((a & 0x10) ? 4 : 0), per byte. The
    // 16-bit shifts cannot bleed across bytes: inputs are masked to
    // <= 0x10 so shifted values stay within their byte.
    const __m128i cc4 = _mm_slli_epi16(_mm_and_si128(a, k.v0f), 2);
    const __m128i ext4 = _mm_srli_epi16(_mm_and_si128(a, k.v10), 2);
    const __m128i need = _mm_add_epi8(k.v12, _mm_add_epi8(cc4, ext4));
    const __m128i fit_lo = sse2_le_u16(
        _mm_adds_epu16(_mm_unpacklo_epi8(need, k.vzero), idx_lo), k.vn);
    const __m128i fit_hi = sse2_le_u16(
        _mm_adds_epu16(_mm_unpackhi_epi8(need, k.vzero), idx_hi), k.vn);
    const __m128i fit = _mm_packs_epi16(fit_lo, fit_hi);
    m.rtp = mask(_mm_and_si128(
        _mm_andnot_si128(rtcp_pt, _mm_and_si128(cls2, fit)), k.gate_rtp));
    m.rtcp =
        mask(_mm_and_si128(_mm_and_si128(cls2, rtcp_pt), k.gate_rtcp));
  }
  {  // ChannelData: first byte 0x40-0x4F and 4 + be16 length fits the
     // remainder (be16 + at <= n - 4, saturating).
    const __m128i chan =
        _mm_cmpeq_epi8(_mm_and_si128(a, k.vf0), k.v40);
    const __m128i cfit_lo = sse2_le_u16(_mm_adds_epu16(be_lo, idx_lo), k.vn4);
    const __m128i cfit_hi = sse2_le_u16(_mm_adds_epu16(be_hi, idx_hi), k.vn4);
    const __m128i cfit = _mm_packs_epi16(cfit_lo, cfit_hi);
    m.channel_data =
        mask(_mm_and_si128(_mm_and_si128(chan, cfit), k.gate_stun));
  }
  {  // STUN: cookie first byte, or classic tail-fit
     // (kHeaderSize + be16(p+at+2) == n - at  <=>  be16 + at == n - 20).
    const __m128i cls0 = _mm_cmpeq_epi8(top, k.vzero);
    const __m128i cookie = _mm_cmpeq_epi8(b4, k.vcookie0);
    const __m128i tf_lo =
        _mm_cmpeq_epi16(_mm_add_epi16(be_lo, idx_lo), k.vtail_target);
    const __m128i tf_hi =
        _mm_cmpeq_epi16(_mm_add_epi16(be_hi, idx_hi), k.vtail_target);
    const __m128i tailfit = _mm_packs_epi16(tf_lo, tf_hi);
    m.stun = mask(_mm_and_si128(
        _mm_and_si128(cls0, _mm_or_si128(cookie, tailfit)), k.gate_stun));
  }
  {  // QUIC v1 long header: form+fixed bits 11, version 00 00 00 01.
    const __m128i cls3 = _mm_cmpeq_epi8(top, k.vtop);
    const __m128i ver = _mm_and_si128(
        _mm_and_si128(_mm_cmpeq_epi8(b1, k.vzero), _mm_cmpeq_epi8(b2, k.vzero)),
        _mm_and_si128(_mm_cmpeq_epi8(b3, k.vzero), _mm_cmpeq_epi8(b4, k.v01)));
    m.quic = mask(_mm_and_si128(_mm_and_si128(cls3, ver), k.gate_quic));
  }
  return m;
}

void anchor_blocks_sse2(const std::uint8_t* p, std::size_t i,
                        std::size_t n_blocks, std::size_t n, unsigned gates,
                        AnchorMasks* masks) {
  const Sse2Consts k = sse2_consts(n, gates);
  for (std::size_t b = 0; b < n_blocks; ++b, i += 64) {
    // Quad loop: four independent 16-lane steps per 64-offset block
    // keep the load/compare chains of adjacent groups in flight.
    const StepMasks m0 = sse2_step(k, p, i);
    const StepMasks m1 = sse2_step(k, p, i + 16);
    const StepMasks m2 = sse2_step(k, p, i + 32);
    const StepMasks m3 = sse2_step(k, p, i + 48);
    const std::uint64_t rtp =
        m0.rtp | (m1.rtp << 16) | (m2.rtp << 32) | (m3.rtp << 48);
    masks[b].rtp = rtp != 0 ? refine_rtp_ext(p, i, n, rtp) : 0;
    masks[b].rtcp =
        m0.rtcp | (m1.rtcp << 16) | (m2.rtcp << 32) | (m3.rtcp << 48);
    masks[b].stun =
        m0.stun | (m1.stun << 16) | (m2.stun << 32) | (m3.stun << 48);
    masks[b].channel_data = m0.channel_data | (m1.channel_data << 16) |
                            (m2.channel_data << 32) | (m3.channel_data << 48);
    masks[b].quic =
        m0.quic | (m1.quic << 16) | (m2.quic << 32) | (m3.quic << 48);
  }
}

#endif  // __SSE2__

// ---- Selection -----------------------------------------------------------

std::atomic<SimdLevel>& level_flag() {
  static std::atomic<SimdLevel> level{[] {
    if (const char* env = std::getenv("RTCC_SIMD")) {
      const auto parsed = parse_simd_level(env);
      if (parsed && simd_level_supported(*parsed)) return *parsed;
      if (std::string_view{env} != "auto")
        rtcc::util::warn_bad_knob(
            "RTCC_SIMD", env,
            parsed ? "level not supported by this build"
                   : "want scalar/sse2/auto");
    }
    return detected_simd_level();
  }()};
  return level;
}

}  // namespace

std::string to_string(SimdLevel level) {
  return level == SimdLevel::kSse2 ? "sse2" : "scalar";
}

std::optional<SimdLevel> parse_simd_level(std::string_view s) {
  std::string lower(s.size(), '\0');
  for (std::size_t i = 0; i < s.size(); ++i)
    lower[i] = static_cast<char>(
        s[i] >= 'A' && s[i] <= 'Z' ? s[i] - 'A' + 'a' : s[i]);
  if (lower == "scalar") return SimdLevel::kScalar;
  if (lower == "sse2") return SimdLevel::kSse2;
  return std::nullopt;
}

bool simd_level_supported(SimdLevel level) {
  return level == SimdLevel::kScalar || level == detected_simd_level();
}

SimdLevel simd_level() {
  return level_flag().load(std::memory_order_relaxed);
}

SimdLevel set_simd_level(SimdLevel level) {
  const SimdLevel applied =
      simd_level_supported(level) ? level : detected_simd_level();
  level_flag().store(applied, std::memory_order_relaxed);
  return applied;
}

AnchorBlockFn anchor_block_fn([[maybe_unused]] SimdLevel level) {
#if defined(__SSE2__)
  if (level == SimdLevel::kSse2) return &anchor_blocks_sse2;
#endif
  return nullptr;
}

AnchorBlockFn anchor_block_fn() { return anchor_block_fn(simd_level()); }

}  // namespace rtcc::dpi
