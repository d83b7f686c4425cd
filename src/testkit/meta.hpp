// Metamorphic conformance layer (DESIGN.md §5e).
//
// A semantics-preserving transform rewrites a capture at the byte /
// encapsulation / capture-artifact level without changing what the
// monitored endpoints said on the wire: re-encapsulating Ethernet as
// 802.1Q, QinQ, Linux cooked (SLL/SLL2), BSD loopback or raw IP;
// re-emitting the trace through the pcap writer in any of its header
// dialects (µs/ns magic, either byte order) or as two concatenated
// chunks; translating all timestamps (together with the CallSchedule);
// fragmenting large IPv4 UDP datagrams (the inverse of FrameDecoder
// reassembly); and renumbering addresses/ports consistently across the
// call. Since none of these change payload bytes, relative timing or
// datagram order, the whole analysis pipeline — stream grouping,
// two-stage filter, scanning DPI, five-criterion compliance checker —
// must produce the *same verdicts*, and every invariant oracle here
// asserts some slice of that:
//
//   * verdict invariance — compliance_signature() (everything in a
//     CallAnalysis that is a pure function of payload bytes + relative
//     timing, per RTC stream and merged) is byte-identical,
//   * ingest-ledger predictability — IngestStats may change, but only
//     exactly as the transform predicts (Ledger + counts),
//   * filter idempotence / purity — re-running the pipeline on only the
//     kept frames keeps everything again, and re-running it on the same
//     input reproduces the same dispositions,
//   * emulator scale monotonicity — scaling media rates moves volumes
//     up without moving per-type compliance verdicts,
//   * merge order insensitivity — merge() over per-call analyses is
//     order-independent (the property run_experiment's fixed merge
//     order relies on),
//   * streaming/batch equivalence — the one-pass streaming engine
//     (RTCC_STREAM) reproduces the batch compliance signature on every
//     base case and every transformed trace.
//
// run_meta_driver() pushes the golden 6×3 matrix and the fuzz seed
// corpus through every single transform and through composed chains,
// dedups violations per (transform, oracle), greedily minimizes
// corpus-case reproducers, and emits a deterministic text report (the
// double-run determinism check compares two of these byte-for-byte).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "emul/app_model.hpp"
#include "report/metrics.hpp"

namespace rtcc::testkit::meta {

/// How a transform's IngestStats ledger relates to its input's.
enum class Ledger : std::uint8_t {
  kIdentity,   // ledger must be field-for-field identical
  kCapture,    // + a clean pcap record walk: frames_seen += trace size
  kVlan,       // + vlan_stripped += `tagged` (one per tagged frame)
  kFragment,   // + fragments_seen/_reassembled += frag counts
  kUnchecked,  // composed chains: verdict oracle only
};

[[nodiscard]] std::string to_string(Ledger l);

struct TransformResult {
  rtcc::net::Trace trace;
  rtcc::filter::FilterConfig cfg;  // adjusted when the transform must
                                   // (time-shift moves the schedule,
                                   // renumber maps device_ips)
  Ledger ledger = Ledger::kIdentity;
  std::uint64_t tagged = 0;          // kVlan: frames that gained tags
  std::uint64_t frag_frames = 0;     // kFragment: fragment frames emitted
  std::uint64_t frag_datagrams = 0;  // kFragment: datagrams split
  /// False when the input's shape is out of the transform's domain
  /// (non-Ethernet linktype, non-IP frames, an address map that would
  /// reorder endpoints...). The driver skips, never fails, these.
  bool applicable = true;
};

using TransformFn = std::function<TransformResult(
    const rtcc::net::Trace&, const rtcc::filter::FilterConfig&)>;

struct Transform {
  std::string name;
  TransformFn apply;
};

/// The transform catalogue, fixed order: vlan, qinq, sll, sll2, null,
/// rawip, pcap-us, pcap-ns, pcap-swapped, pcap-rechunk, time-shift,
/// fragment, renumber.
[[nodiscard]] const std::vector<Transform>& transform_catalogue();
[[nodiscard]] const Transform* find_transform(const std::string& name);

/// Composed chains exercised by the driver (each step's output feeds
/// the next; a chain is skipped if any step reports inapplicable).
[[nodiscard]] const std::vector<std::vector<std::string>>& default_chains();

/// Serializes the transform-invariant slice of an analysis: everything
/// except raw_bytes (frame-byte-level, changes with encapsulation) and
/// ingest (covered by the ledger oracle instead). Includes each
/// surviving RTC stream's partial analysis, so a verdict that moved
/// between streams cannot cancel out in the aggregate.
[[nodiscard]] std::string compliance_signature(
    const rtcc::report::CallAnalysis& merged,
    const std::vector<rtcc::report::CallAnalysis>& per_stream);

struct AnalyzedCase {
  rtcc::report::CallAnalysis merged;
  std::string signature;
};

/// analyze_trace + compliance_signature in one call.
[[nodiscard]] AnalyzedCase analyze_case(
    const rtcc::net::Trace& trace, const rtcc::filter::FilterConfig& cfg,
    const rtcc::report::AnalysisOptions& opts = {});

// ---- Invariant oracles (nullopt = holds) --------------------------------

/// (a) Classification + all five compliance criteria bit-identical.
[[nodiscard]] std::optional<std::string> check_verdict_invariance(
    const AnalyzedCase& base, const AnalyzedCase& transformed,
    const std::string& transform_name);

/// (b) IngestStats changed exactly as the transform predicted.
[[nodiscard]] std::optional<std::string> check_ingest_ledger(
    const rtcc::report::CallAnalysis& base,
    const rtcc::report::CallAnalysis& transformed,
    const TransformResult& meta, std::uint64_t transformed_frames);

/// (c) Filter idempotence + purity: the pipeline keeps its own kept
/// output wholesale, and reproduces identical dispositions when re-run
/// on the same input. Sound on traces without IPv4 fragments (a
/// reassembled datagram has no single home frame), so the driver runs
/// it on base cases only.
[[nodiscard]] std::optional<std::string> check_filter_idempotence(
    const rtcc::net::Trace& trace, const rtcc::filter::FilterConfig& cfg);

/// (d) Emulator scale sweep: multiplying media_scale by `factor` > 1
/// must not shrink any volume (RTC datagrams, DPI messages), must keep
/// the observed protocol set identical, and must keep per-type
/// compliance verdicts (compliant vs not) stable for types observed on
/// both sides.
[[nodiscard]] std::optional<std::string> check_scale_monotonicity(
    const rtcc::emul::CallConfig& cfg, double factor);

/// (e) merge() is order-insensitive: forward, reverse and a rotated
/// order over per-call analyses serialize identically.
[[nodiscard]] std::optional<std::string> check_merge_order_insensitivity(
    const std::vector<rtcc::report::CallAnalysis>& parts);

/// (f) Streaming/batch equivalence on the same input: re-analyzes the
/// trace with RTCC_STREAM forced on and requires the compliance
/// signature to match `base` (normally the batch analysis — the driver
/// pins streaming off; under an ambient RTCC_STREAM=1 run this
/// degenerates to streaming double-run determinism, still an
/// invariant). Runs against the base cases *and* every transformed
/// trace, so the one-pass engine is held to the batch verdicts across
/// the whole transform catalogue.
[[nodiscard]] std::optional<std::string> check_stream_invariance(
    const AnalyzedCase& base, const rtcc::net::Trace& trace,
    const rtcc::filter::FilterConfig& cfg, const std::string& case_name);

// ---- Driver --------------------------------------------------------------

struct MetaOptions {
  std::uint64_t seed = 2026;
  /// false: a 4-cell matrix slice, single transforms, 2 chains — the
  /// tier-1 budget. true: the full 6×3 golden matrix, every transform,
  /// every chain, plus the corpus sweep and the scale sweep on every
  /// app (the `slow` ctest tier).
  bool full = false;
  double media_scale = 0.01;
  double call_s = 45.0;
  double pre_call_s = 5.0;
  double post_call_s = 5.0;
  /// When non-empty, minimized corpus-case violations are saved here
  /// as .hex files (same format as the fuzz corpus).
  std::string corpus_dir;
};

struct MetaViolation {
  std::string case_name;
  std::string transform;  // single name or "a+b+c" chain
  std::string oracle;
  std::string detail;
  /// Minimized reproducer for corpus-backed cases (empty for matrix
  /// cells, which reproduce from the cell seed).
  std::vector<rtcc::util::Bytes> datagrams;
};

struct MetaStats {
  std::uint64_t cases = 0;
  std::uint64_t transform_runs = 0;
  std::uint64_t chain_runs = 0;
  std::uint64_t oracle_checks = 0;
  std::uint64_t skipped = 0;  // inapplicable transform/case pairs
  std::vector<MetaViolation> violations;
  /// Deterministic text summary (counts + one line per violation); two
  /// runs with equal options must produce equal reports byte-for-byte.
  std::string report;
};

[[nodiscard]] MetaStats run_meta_driver(const MetaOptions& opts);

// ---- Corpus-case plumbing (exposed for tests) ---------------------------

/// Wraps UDP payloads as an in-window Ethernet capture: one synthetic
/// bidirectional flow, dyadic timestamps (exact in both µs and ns pcap
/// encodings) inside the call window of corpus_filter_config().
[[nodiscard]] rtcc::net::Trace trace_from_datagrams(
    const std::vector<rtcc::util::Bytes>& datagrams);
[[nodiscard]] rtcc::filter::FilterConfig corpus_filter_config();

}  // namespace rtcc::testkit::meta
