// stream/engine.hpp finish(): the flows still live at end of capture
// are independent tasks on the shared thread pool (parallel_streams
// on) or a plain loop (off). The contract under test: merged reports
// and per-stream partials from analyze_trace_streaming are
// byte-identical to the batch path either way (the "flows" JSON
// diagnostic being the intentional difference), the full report
// (diagnostics included) does not depend on the dispatch, and runs are
// deterministic. The ShardedAnalyzeTrace suite name is historical: it
// once covered hash-routed shard workers the engine no longer has.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "emul/group_call.hpp"
#include "report/json_export.hpp"
#include "report/metrics.hpp"
#include "stream/engine.hpp"
#include "stream/stream_mode.hpp"

namespace {

namespace emul = rtcc::emul;
namespace report = rtcc::report;

/// Report JSON with the knob-dependent "flows" diagnostic dropped —
/// everything that must be execution-mode-invariant.
std::string stripped_json(report::CallAnalysis a) {
  a.flows = {};
  return report::to_json(a);
}

/// The streaming engine at unbounded budgets (no flow can split, so it
/// must reproduce the batch report exactly).
report::CallAnalysis streamed(const rtcc::net::Trace& trace,
                              const rtcc::filter::FilterConfig& fcfg,
                              const report::AnalysisOptions& opts,
                              std::vector<report::CallAnalysis>* parts =
                                  nullptr) {
  return rtcc::stream::analyze_trace_streaming(
      trace, fcfg, opts, rtcc::stream::StreamOptions{}, parts);
}

report::AnalysisOptions with_parallel(bool parallel) {
  report::AnalysisOptions opts;
  opts.parallel_streams = parallel;
  return opts;
}

/// A 6-participant SFU conference: enough distinct RTC UDP flows
/// (uplinks + per-participant fanout) that finish() has many flows to
/// fan out. Two-party calls top out at ~4 streams.
emul::GroupCall many_stream_call() {
  emul::GroupCallConfig cfg;
  cfg.participants = 6;
  cfg.call_s = 30.0;
  cfg.media_scale = 0.02;
  return emul::emulate_group_call(cfg);
}

TEST(ShardedAnalyzeTrace, ParityAcrossShardCounts) {
  const auto call = many_stream_call();
  const auto fcfg = emul::group_filter_config(call);

  // The batch path is the reference.
  std::vector<report::CallAnalysis> ref_parts;
  report::CallAnalysis ref;
  {
    const rtcc::stream::StreamModeGuard batch(false);
    ref = report::analyze_trace(call.trace, fcfg, {}, &ref_parts);
  }
  const auto ref_json = stripped_json(ref);
  ASSERT_GT(ref_parts.size(), 1u) << "call produced too few RTC streams";

  for (const bool parallel : {false, true}) {
    std::vector<report::CallAnalysis> parts;
    const auto got = streamed(call.trace, fcfg, with_parallel(parallel),
                              &parts);
    EXPECT_EQ(stripped_json(got), ref_json) << "parallel=" << parallel;
    ASSERT_EQ(parts.size(), ref_parts.size());
    for (std::size_t si = 0; si < parts.size(); ++si)
      EXPECT_EQ(stripped_json(parts[si]), stripped_json(ref_parts[si]))
          << "stream " << si << " parallel=" << parallel;
  }
}

TEST(ShardedAnalyzeTrace, DoubleRunDeterminism) {
  const auto call = many_stream_call();
  const auto fcfg = emul::group_filter_config(call);
  const auto opts = with_parallel(true);
  const auto a = streamed(call.trace, fcfg, opts);
  const auto b = streamed(call.trace, fcfg, opts);
  EXPECT_EQ(report::to_json(a), report::to_json(b));
}

TEST(ShardedAnalyzeTrace, RespectsGlobalKnobAndParallelOff) {
  const auto call = many_stream_call();
  const auto fcfg = emul::group_filter_config(call);
  // Default options (RTCC_PARALLEL), the pool and the serial loop give
  // the same full report: even the "flows" ledger (finalized flows,
  // live peak) cannot see how finish() dispatched its flows.
  const auto json = report::to_json(streamed(call.trace, fcfg, {}));
  EXPECT_EQ(report::to_json(streamed(call.trace, fcfg, with_parallel(true))),
            json);
  EXPECT_EQ(report::to_json(streamed(call.trace, fcfg, with_parallel(false))),
            json);
}

TEST(ShardedAnalyzeTrace, EmptyTraceIsHarmless) {
  const rtcc::net::Trace trace;
  for (const bool parallel : {false, true}) {
    const auto got = streamed(trace, {}, with_parallel(parallel));
    EXPECT_EQ(got.raw_udp_streams, 0u) << "parallel=" << parallel;
    EXPECT_EQ(got.flows.flows_seen, 0u) << "parallel=" << parallel;
  }
}

}  // namespace
