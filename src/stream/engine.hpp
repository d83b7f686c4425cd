// One-pass streaming analysis engine (DESIGN.md §6c).
//
// Inverts the batch data flow: instead of materializing a whole Trace,
// grouping it, filtering it, then analyzing each surviving stream, the
// engine consumes frames one at a time and keeps memory proportional
// to the *active* flow set. Three pieces make the inversion exact:
//
//   * windowed online keep/drop — a flow is condemned the moment the
//     evidence is final regardless of what else arrives: any packet
//     timestamped outside the expanded call window (stage 1 enclosure
//     can no longer hold) or a statically excluded port (stage 2d),
//     tested with the filter's own predicates. Condemned flows drop
//     their payload buffers immediately; only the record's
//     filter::FlowSummary is retained. Every other disposition (3-tuple
//     timing, SNI, local-IP + precall) needs cross-flow evidence that
//     is only complete at end of capture, so epoch boundaries and
//     finish() pass the retained records to filter::classify — the one
//     classifier the batch pipeline also runs — and finish() books
//     them through the shared filter::tally.
//
//   * per-flow incremental state machine — surviving UDP flows buffer
//     payload copies until the flow is finalized (eviction or drain),
//     then run the exact batch per-stream core
//     (report::detail::analyze_stream_batch): the DPI's stream-level
//     validation and cover walk, and the two-phase compliance checker,
//     are whole-stream stateful, so the flow is the unit of
//     incrementality and byte-identity with batch holds by
//     construction. A flow retired mid-capture is analyzed inline on
//     the pushing thread; the flows still live at finish() are
//     independent tasks on the shared work-stealing pool
//     (util/thread_pool.hpp), exactly as analyze_trace dispatches its
//     streams, or a plain loop when parallel_streams is off. TCP flows
//     never buffer payloads; every TCP flow, condemned or not, feeds
//     filter::probe_sni online, the same probe the batch pipeline runs
//     over its stream table.
//
//   * bounded flow table (stream/flow_table.hpp) — idle/LRU eviction
//     finalizes and emits per-stream results before end of capture,
//     bounding peak live bytes. With the default unbounded budgets no
//     flow is ever split and merged output is byte-identical to batch
//     at every knob combination ("flows" diagnostics aside); bounded
//     budgets trade exactness for memory, accounted in flows_rekeyed.
//
// Feed it from the chunked pcap reader (stream/chunk_reader.hpp) or
// push frames of an in-memory Trace (analyze_trace_streaming — the
// RTCC_STREAM=1 body of report::analyze_trace).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "dpi/scanning_dpi.hpp"
#include "filter/pipeline.hpp"
#include "net/headers.hpp"
#include "report/metrics.hpp"
#include "stream/flow_table.hpp"
#include "stream/stream_mode.hpp"

namespace rtcc::stream {

/// One flow's keep/remove verdict as known at an epoch boundary.
///
/// Epochs control *emission cadence*, not flow retirement: a verdict is
/// first emitted (amends = false) once its flow has retired — its
/// packet span and metadata are frozen — with the disposition the
/// cross-flow evidence supports *so far*. Later evidence can only
/// tighten a verdict (the stage-2 witness sets grow monotonically, so
/// kept can flip to removed but never back); such a revision is emitted
/// as an amendment (amends = true) for the same ordinal. The final
/// epoch (finish()) emits first-time verdicts for every remaining flow
/// and amendments for any earlier verdict the complete evidence
/// overturned, all marked final_pass.
///
/// Conservation identities a sink can check: every ordinal is emitted
/// exactly once with amends = false across the whole run, and the sum
/// of EpochReport::frames equals the total frames pushed.
struct FlowVerdict {
  std::uint64_t ordinal = 0;  // stream-table order, stable across epochs
  rtcc::net::FlowKey key;
  double first_ts = 0.0;
  double last_ts = 0.0;
  std::uint64_t packets = 0;
  rtcc::filter::Disposition disposition = rtcc::filter::Disposition::kKept;
  bool final_pass = false;  // emitted by finish(): evidence is complete
  bool amends = false;      // revises this ordinal's earlier verdict
  /// Per-stream compliance analysis for kept UDP flows; null for
  /// removed/TCP flows. Valid only for the duration of the sink call.
  const rtcc::report::CallAnalysis* partial = nullptr;
};

/// Everything emitted at one epoch boundary.
struct EpochReport {
  std::uint64_t epoch = 0;    // 0-based epoch ordinal
  double clock_end = 0.0;     // high-water capture clock at emission
  std::uint64_t frames = 0;   // frames pushed during this window
  std::uint64_t bytes = 0;    // wire bytes pushed during this window
  bool final_pass = false;    // this is the finish() epoch
  rtcc::report::FlowStats flows;  // cumulative flow-ledger snapshot
  std::vector<FlowVerdict> verdicts;
};

using EpochSink = std::function<void(const EpochReport&)>;

class StreamingAnalyzer {
 public:
  StreamingAnalyzer(std::uint32_t linktype,
                    const rtcc::filter::FilterConfig& fcfg,
                    const rtcc::report::AnalysisOptions& opts = {},
                    const StreamOptions& sopts = stream_options_from_env());
  ~StreamingAnalyzer();
  StreamingAnalyzer(const StreamingAnalyzer&) = delete;
  StreamingAnalyzer& operator=(const StreamingAnalyzer&) = delete;

  /// The chunked reader learns the linktype from the pcap global
  /// header; must be called before the capture's first frame. A
  /// same-linktype call is a no-op (the service daemon streams many
  /// drop-files through one engine — decoder stats and reassembly
  /// state persist across them); a linktype switch folds the old
  /// decoder's stats into the ledger before replacing it.
  void set_linktype(std::uint32_t linktype);
  [[nodiscard]] std::uint32_t linktype() const { return linktype_; }

  /// Capture-layer ingestion counters (frames_seen, torn_tail, ...),
  /// filled by whoever walks the capture records — the chunked reader,
  /// or a copy of Trace::ingest() for in-memory traces. Decode-layer
  /// counters come from the engine's own FrameDecoder.
  [[nodiscard]] rtcc::net::IngestStats& capture_stats() { return capture_; }

  /// Consumes one captured frame (wire bytes + timestamp). `orig_len`
  /// is the pcap record's original on-the-wire length (0 = same as
  /// `wire`); larger than wire.size() marks the frame snaplen-clipped.
  /// The bytes need only stay valid for the duration of the call.
  void push_frame(rtcc::util::BytesView wire, double ts,
                  std::uint32_t orig_len = 0);

  /// Ends the capture: drains the flow table, classifies every stream
  /// with the batch pipeline's classifier, finalizes kept flows, and
  /// returns the merged analysis (byte-identical to the batch path
  /// when no flow was split; `flows` carries the streaming diagnostics
  /// either way). When `per_stream` is non-null it receives the kept
  /// per-stream partials in stream-table order, matching
  /// analyze_trace's out-param. Call at most once.
  [[nodiscard]] rtcc::report::CallAnalysis finish(
      std::vector<rtcc::report::CallAnalysis>* per_stream = nullptr);

  /// Windowed finalization for long-running (service) use. When
  /// `epoch_s` is positive and finite, an epoch closes whenever the
  /// high-water capture clock advances `epoch_s` past the epoch's
  /// opening clock: `sink` receives an EpochReport with provisional
  /// verdicts for newly-retired flows and amendments for earlier
  /// verdicts the grown evidence overturned (see FlowVerdict).
  /// `epoch_s` <= 0 or infinity disables automatic boundaries; the
  /// sink then only fires on explicit finish_epoch() calls and at
  /// finish(). Epochs never retire flows — retirement stays with the
  /// idle/LRU budgets — so analysis output is invariant under epoch
  /// length by construction.
  void set_epoch(double epoch_s, EpochSink sink);

  /// Closes the current epoch now (service drain timers, SIGTERM).
  /// No-op without a sink.
  void finish_epoch();

  /// Bytes currently buffered by the engine: live flow payloads plus
  /// the reader's declared buffer. The running peak lands in
  /// FlowStats::live_peak_bytes.
  [[nodiscard]] std::uint64_t live_bytes() const;

  /// The feeding reader declares its own buffer footprint so the peak
  /// accounts every live byte of the streaming path, not just flows.
  void note_external_live(std::uint64_t bytes);

  [[nodiscard]] const rtcc::report::FlowStats& flow_stats() const {
    return table_.stats();
  }

  /// Currently-live (not yet retired) flows — the service gauge, as
  /// opposed to flow_stats().flows_live which is the running peak.
  [[nodiscard]] std::size_t live_flow_count() const {
    return table_.live_count();
  }

  /// Capture + decode ledger combined, readable mid-run (the /metrics
  /// ingest totals). finish() reports the same totals in the merged
  /// analysis' `ingest`.
  [[nodiscard]] rtcc::net::IngestStats ingest_totals() const;

 private:
  void on_evict(FlowRecord& rec, EvictReason reason);
  void condemn(FlowRecord& rec);
  void release_payload(FlowRecord& rec);
  /// Gives `rec` the empty partial its analysis fills, counted as
  /// finalized.
  void start_analysis(FlowRecord& rec);
  void update_peak();
  /// Emits one epoch through the sink and resets the window counters.
  /// Dispositions are `precomputed` or else classified from the records
  /// under the evidence accumulated so far; at finish() (all flows
  /// retired) they are the batch pipeline's disposition vector.
  void emit_epoch(bool final_pass,
                  const std::vector<rtcc::filter::Disposition>* precomputed);

  rtcc::filter::FilterConfig fcfg_;
  rtcc::report::AnalysisOptions opts_;
  StreamOptions sopts_;
  FlowTable table_;
  std::uint32_t linktype_ = rtcc::net::kLinkEthernet;
  rtcc::net::FrameDecoder decoder_;
  rtcc::dpi::ScanningDpi dpi_;
  rtcc::net::IngestStats capture_;
  std::uint64_t raw_bytes_ = 0;
  double clock_ = 0.0;  // max frame ts seen (pcap ts are not monotonic)
  std::uint64_t live_flow_bytes_ = 0;
  std::uint64_t external_live_ = 0;
  bool finished_ = false;

  // ---- Epoch/window state (set_epoch) ----
  double epoch_s_ = 0.0;  // <= 0 or inf: no automatic boundaries
  EpochSink sink_;
  std::uint64_t epoch_index_ = 0;
  bool epoch_open_ = false;     // anchor valid (first frame seen)
  double epoch_anchor_ = 0.0;   // high-water clock when the epoch opened
  std::uint64_t epoch_frames_ = 0;
  std::uint64_t epoch_bytes_ = 0;
  struct EmitState {
    bool emitted = false;
    rtcc::filter::Disposition disposition = rtcc::filter::Disposition::kKept;
  };
  std::vector<EmitState> emitted_;  // indexed by record ordinal
};

/// The RTCC_STREAM=1 body of report::analyze_trace: pushes every frame
/// of an in-memory trace through a StreamingAnalyzer. Exposed directly
/// so oracles and tests can sweep StreamOptions budgets.
[[nodiscard]] rtcc::report::CallAnalysis analyze_trace_streaming(
    const rtcc::net::Trace& trace, const rtcc::filter::FilterConfig& fcfg,
    const rtcc::report::AnalysisOptions& opts = {},
    const StreamOptions& sopts = stream_options_from_env(),
    std::vector<rtcc::report::CallAnalysis>* per_stream = nullptr);

}  // namespace rtcc::stream
