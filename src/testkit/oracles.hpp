// Differential and invariant oracles for the fuzz driver.
//
// Each oracle returns std::nullopt when the invariant holds and a
// human-readable violation description otherwise; memory errors are the
// sanitizers' jurisdiction (the driver runs under ASan+UBSan in CI).
//
// The oracle list (DESIGN.md "testkit"):
//   1. parser_sweep          — every parser survives arbitrary bytes and
//                              keeps its structural invariants.
//   2. check_anchor_parity   — SIMD anchor scan vs an independent scalar
//                              reference re-implementation.
//   3. check_scan_equivalence— anchored ScanningDpi vs the naive
//                              all-offsets oracle, byte-identical.
//   4. check_arena_parity    — in-place vs copied arena frames build and
//                              serialize identically; copying and
//                              zero-copy pcap decode agree.
//   5. check_pcap_roundtrip  — encode→decode→encode is a fixed point.
//   6. check_strict_subset   — on clean seed streams, every datagram the
//                              strict DPI accepts is classified standard
//                              with the same message by the scanner.
//   7. check_checker_idempotence — the compliance checker is a pure
//                              function of the stream: re-running it
//                              (and re-calling check()) changes nothing.
//   8. check_frame_decode    — decode_frame under every linktype is
//                              deterministic, keeps payload views inside
//                              the frame, and books every attempt into
//                              exactly one IngestStats outcome counter.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "testkit/seeds.hpp"
#include "util/bytes.hpp"

namespace rtcc::testkit {

/// Feeds `data` to every wire parser (proto/*, net, vendor) and checks
/// cheap structural invariants on whatever parses. Crash/UB detection
/// is delegated to the sanitizers.
[[nodiscard]] std::optional<std::string> parser_sweep(
    rtcc::util::BytesView data);

[[nodiscard]] std::optional<std::string> check_anchor_parity(
    rtcc::util::BytesView payload);

[[nodiscard]] std::optional<std::string> check_scan_equivalence(
    const std::vector<rtcc::util::Bytes>& datagrams);

[[nodiscard]] std::optional<std::string> check_arena_parity(
    const std::vector<rtcc::util::Bytes>& payloads);

[[nodiscard]] std::optional<std::string> check_pcap_roundtrip(
    const std::vector<rtcc::util::Bytes>& payloads);

[[nodiscard]] std::optional<std::string> check_strict_subset(
    const SeedStream& stream);

[[nodiscard]] std::optional<std::string> check_checker_idempotence(
    const std::vector<rtcc::util::Bytes>& datagrams);

/// Runs decode_frame over `frame` under every declared linktype plus an
/// undeclared one, twice each, checking determinism, payload bounds,
/// and the IngestStats accounting identity (each attempt lands in
/// exactly one outcome counter). Also drives a stateful FrameDecoder
/// over the frame and re-checks the identity after finish().
[[nodiscard]] std::optional<std::string> check_frame_decode(
    rtcc::util::BytesView frame);

/// Every *supported* SIMD level against the scalar path: identical
/// compliance signatures datagram-for-datagram. Unsupported levels are
/// skipped (never a failure) so the oracle is portable.
[[nodiscard]] std::optional<std::string> check_simd_parity(
    const std::vector<rtcc::util::Bytes>& datagrams);

/// The streaming engine finalizing its flows on the shared thread pool
/// vs the batch path: the datagrams are spread across several
/// bidirectional flows and analyzed by analyze_trace_streaming with
/// parallel_streams on; the merged report and every per-stream partial
/// must be byte-identical (after dropping the knob-dependent "flows"
/// diagnostic). check_stream_parity covers the serial loop.
[[nodiscard]] std::optional<std::string> check_pool_parity(
    const std::vector<rtcc::util::Bytes>& datagrams);

/// Streaming analyze_trace vs the batch path: the same multi-flow trace
/// analyzed (a) one-pass in memory at unbounded budgets, (b) through the
/// chunked pcap reader at read granularities {1, 7, 256, 4096}, and
/// (c) under tight flow-table budgets that force mid-capture eviction.
/// (a) and (b) must be byte-identical to batch (after dropping the
/// knob-dependent "flows" diagnostic); (c) must be
/// byte-identical when no flow was split and must satisfy the volume /
/// stage-bucket / flow-ledger conservation identities when one was.
/// Every unsplit run must also give each flow the final verdict
/// (FlowVerdict::disposition) filter::run_pipeline gives its stream.
/// The live equivalence oracle behind RTCC_STREAM (DESIGN.md §6c).
[[nodiscard]] std::optional<std::string> check_stream_parity(
    const std::vector<rtcc::util::Bytes>& datagrams);

/// Every oracle that accepts arbitrary (possibly mutated) single
/// buffers, in a fixed order. Used by the driver and corpus replay.
[[nodiscard]] std::optional<std::string> run_buffer_oracles(
    rtcc::util::BytesView data);

/// Every oracle that accepts arbitrary (possibly mutated) datagram
/// streams, in a fixed order.
[[nodiscard]] std::optional<std::string> run_stream_oracles(
    const std::vector<rtcc::util::Bytes>& datagrams);

}  // namespace rtcc::testkit
