// The SSE2 vector kernel for the anchor prefilter and its level switch.
//
//   * the *kernel* contract is a pure hot-lane mask: given a payload
//     pointer and a 64-offset block, return a bit per offset whose
//     cheap anchor conditions *may* hold (a necessary condition, never
//     a replacement — flagged offsets are re-tested by the exact scalar
//     rules, so both levels yield byte-identical anchors);
//   * levels: scalar (no kernel; the plain per-offset loop) and SSE2
//     (4 x 16-lane quad loop), compiled wherever the target guarantees
//     SSE2 (every x86-64 build). Other targets run the scalar loop;
//   * selection: SSE2 when compiled in, overridable by the `RTCC_SIMD`
//     env knob (scalar|sse2|auto) and at runtime by set_simd_level /
//     SimdModeGuard (tests, benches, oracles).
//
// Wider-vector kernels were measured and deleted: their end-to-end edge
// over SSE2 did not resolve (EXPERIMENTS.md "Anchor kernel levels").
// The testkit's SIMD-parity oracle runs the full DPI under both levels
// and asserts identical compliance signatures;
// tests/test_simd_dispatch.cpp pins the selection logic itself.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rtcc::dpi {

enum class SimdLevel : std::uint8_t { kScalar = 0, kSse2 };

[[nodiscard]] std::string to_string(SimdLevel level);
/// "scalar" / "sse2" (case-insensitive). nullopt for anything else,
/// including "auto".
[[nodiscard]] std::optional<SimdLevel> parse_simd_level(std::string_view s);

/// Best level this build runs: SSE2 where the target guarantees it,
/// scalar elsewhere. A compile-time fact, no CPU probe.
[[nodiscard]] constexpr SimdLevel detected_simd_level() {
#if defined(__SSE2__)
  return SimdLevel::kSse2;
#else
  return SimdLevel::kScalar;
#endif
}
[[nodiscard]] bool simd_level_supported(SimdLevel level);

/// Current level. Initialised once from RTCC_SIMD (unset / "auto" /
/// unparseable / unsupported -> detected_simd_level()).
[[nodiscard]] SimdLevel simd_level();

/// Runtime override. Requests for unsupported levels fall back to
/// detected_simd_level(); returns the level actually applied.
SimdLevel set_simd_level(SimdLevel level);

/// RAII level flip used by tests, oracles and A/B benchmarks.
class SimdModeGuard {
 public:
  explicit SimdModeGuard(SimdLevel level) : prev_(simd_level()) {
    set_simd_level(level);
  }
  ~SimdModeGuard() { set_simd_level(prev_); }
  SimdModeGuard(const SimdModeGuard&) = delete;
  SimdModeGuard& operator=(const SimdModeGuard&) = delete;

 private:
  SimdLevel prev_;
};

namespace gate {
constexpr unsigned kRtp = 0x1;
constexpr unsigned kStun = 0x2;  // covers ChannelData
constexpr unsigned kQuic = 0x4;
constexpr unsigned kRtcp = 0x8;
}  // namespace gate

/// Hot-lane masks for one 64-offset block, split per protocol family.
/// The families key off the first byte's top two bits (RTP and RTCP,
/// which share class 10, are further split by the PT byte), so at most
/// one mask has any given bit set — the walker classifies each hot
/// offset without re-reading payload bytes. The kernel additionally
/// folds the cheap *length* preconditions of the downstream sniffs into
/// the masks — RTP's header fit (12 + 4*CSRC + extension) and
/// ChannelData's 4 + length tail bound — which rejects the bulk of the
/// would-be emits on encrypted payloads before any scalar code runs.
/// `rtp`, `rtcp`, `channel_data` and `quic` lanes are necessary
/// conditions matching the scalar anchor tests at every lane; `stun` is
/// approximate (cookie narrowed to its first byte, classic tail-fit sum
/// mod 2^16) and flagged lanes must be re-tested with the exact scalar
/// rules.
struct AnchorMasks {
  std::uint64_t rtp = 0;
  std::uint64_t rtcp = 0;
  std::uint64_t stun = 0;
  std::uint64_t channel_data = 0;
  std::uint64_t quic = 0;

  [[nodiscard]] std::uint64_t any() const {
    return rtp | rtcp | stun | channel_data | quic;
  }
};

/// Per-family hot-lane masks for `n_blocks` consecutive 64-offset
/// blocks starting at offset `i` of `p`: masks[b].family bit k refers
/// to offset i + 64*b + k. Families the caller's `gates` exclude come
/// back all-zero. One call covers a whole region so the kernel hoists
/// its vector constants out of the block loop — per-block indirect
/// calls were measurably slower than the old fully-inlined scan.
/// Precondition (caller-enforced): i + 64*n_blocks <= fast_end, where
/// fast_end guarantees at least stun::kHeaderSize (20) readable bytes
/// past every offset — the kernel loads up to 67 bytes past the last
/// block's base.
using AnchorBlockFn = void (*)(const std::uint8_t* p, std::size_t i,
                               std::size_t n_blocks, std::size_t n,
                               unsigned gates, AnchorMasks* masks);

/// Kernel for `level`; nullptr for kScalar (callers run the plain loop)
/// and for levels this build cannot execute.
[[nodiscard]] AnchorBlockFn anchor_block_fn(SimdLevel level);
/// Kernel for the current simd_level().
[[nodiscard]] AnchorBlockFn anchor_block_fn();

}  // namespace rtcc::dpi
