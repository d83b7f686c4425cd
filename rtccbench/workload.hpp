// Interfaces shared by the benchmark's workloads and its main program.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "report/metrics.hpp"
#include "tracer.hpp"

namespace rtccbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool tiny = false;    // smoke-test sizes
  std::string workdir;  // working files (inside the checkout)
  int cold_index = 0;   // which cold child this process is
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's result: checked operations and metrics. Notes are printed
/// ahead of the result line (sample counts, per-rung detail).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
};

/// What a fresh child process reports about its cold first pass.
struct ColdResult {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t digest = 0;  // output signature, checked by the parent
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from the seed and computes the reference
  /// outputs (serial, unsharded, batch path). Untimed.
  virtual void setup() = 0;
  /// Runs in a fresh child process after the parent's setup(): times
  /// the cold first pass and reads the process's peak RSS.
  virtual ColdResult cold() = 0;
  /// Signature digest a correct cold pass with Options::cold_index
  /// `index` reports (after setup()).
  [[nodiscard]] virtual std::uint64_t cold_reference(int index) const = 0;
  /// Steady passes for Options::seconds: the end-to-end metrics other
  /// than setup_s and peak_rss_mb, each pass output-checked.
  virtual Outcome measure() = 0;
  /// The traced run: per-layer metrics, spans recorded into `tracer`.
  virtual Outcome traced(Tracer& tracer) = 0;
};

std::unique_ptr<Workload> make_corpus(const Options& opts);
std::unique_ptr<Workload> make_capture(const Options& opts);
std::unique_ptr<Workload> make_service(const Options& opts);

/// Per-layer figures of one traced run; every workload reports the
/// full set (a layer it does not exercise reads 0).
struct LayerReport {
  std::map<std::string, double> self_s;  // median self time per span name
  double frames = 0, loss_events = 0;
  double streams_in = 0, streams_kept = 0;
  double datagrams = 0, candidates = 0, messages = 0, staged = 0;
  double checked = 0;
  double flows_seen = 0, evictions = 0, live_peak_mb = 0;
  double verdicts = 0, amendments = 0;
  double p50_ms = 0, p99_ms = 0, max_rate_fps = 0;  // service ladder
  double gen_late_ms = 0;
  double cpu_overhead = 0, speedup = 0;
  double trace_overhead = 0, span_coverage = 0;
};

/// Adds the counts a merged analysis carries (streams, DPI, compliance).
void count_analysis(LayerReport& rep, const rtcc::report::CallAnalysis& a);

/// The per-layer metrics in their fixed order.
std::vector<Metric> layer_metrics(const LayerReport& rep);

/// Median over passes of each span name's self time, and the smallest
/// share of a pass's root span ("bench.pass") covered by other spans.
void summarize_spans(const Tracer& tracer, int passes, LayerReport& rep);

/// Serial, layer-by-layer replay of report::analyze_trace through the
/// layers' public functions, one span per layer call. Returns the
/// merged analysis; `per_stream` receives the per-stream partials.
rtcc::report::CallAnalysis replay_analysis(
    const rtcc::net::Trace& trace, const rtcc::filter::FilterConfig& fcfg,
    Tracer& tracer, std::vector<rtcc::report::CallAnalysis>* per_stream);

/// Analysis options of every timed pass and of the reference outputs:
/// serial and unsharded, one thread, every other knob at its default.
/// The defaults size the shard workers and parallel stream analysis
/// from the machine's core count, and on shared hosts whose core count
/// and load differ between runs that made runs of the same code differ
/// up to 3x. The default configuration still runs in the traced run
/// (report.cpu_overhead, report.speedup) and is output-checked there.
rtcc::report::AnalysisOptions measured_options();

/// compliance_signature reduced to a 64-bit digest (FNV-1a).
std::uint64_t digest(const std::string& s);

}  // namespace rtccbench
