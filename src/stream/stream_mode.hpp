// RTCC_STREAM: the process-wide switch between the whole-trace batch
// analysis (default) and the one-pass streaming engine
// (stream/engine.hpp).
//
// =0 (the default) keeps the batch path alive as the live equivalence
// oracle, =1 routes analyze_trace through the streaming engine. Both
// paths must produce byte-identical merged reports (after stripping the
// knob-dependent "flows" diagnostic block, the same convention as
// "nodes") — testkit's check_stream_parity oracle and the
// metamorphic driver enforce this at every knob combination.
#pragma once

#include <cstddef>

namespace rtcc::stream {

/// True when analyze_trace should run the one-pass streaming engine.
/// Initialised once from RTCC_STREAM (unset / "0" -> false).
[[nodiscard]] bool stream_enabled();
void set_stream_enabled(bool enabled);

/// RAII mode flip used by equivalence tests and A/B benchmarks.
class StreamModeGuard {
 public:
  explicit StreamModeGuard(bool enabled) : prev_(stream_enabled()) {
    set_stream_enabled(enabled);
  }
  ~StreamModeGuard() { set_stream_enabled(prev_); }
  StreamModeGuard(const StreamModeGuard&) = delete;
  StreamModeGuard& operator=(const StreamModeGuard&) = delete;

 private:
  bool prev_;
};

/// Streaming-engine budgets. The defaults are deliberately unbounded:
/// with no mid-capture eviction a flow is never split, which is what
/// makes streaming output byte-identical to batch at every knob
/// combination (DESIGN.md §6c). Bounding either budget trades that
/// exactness for bounded memory — evicted-then-revived flows become
/// two stream results, accounted by FlowStats::flows_rekeyed.
struct StreamOptions {
  /// Max concurrently-live flows; 0 = unbounded. When exceeded the
  /// least-recently-touched flow is finalized and retired.
  std::size_t max_flows = 0;
  /// Idle expiry: a flow untouched for this many trace-clock seconds is
  /// finalized and retired; 0 = never.
  double idle_timeout_s = 0.0;
  /// Chunked pcap reader granularity (bytes per source read).
  std::size_t chunk_bytes = std::size_t{1} << 22;
};

/// StreamOptions with RTCC_STREAM_FLOWS / RTCC_STREAM_IDLE /
/// RTCC_STREAM_CHUNK env overrides applied (unset / unparseable keeps
/// the default).
[[nodiscard]] StreamOptions stream_options_from_env();

}  // namespace rtcc::stream
