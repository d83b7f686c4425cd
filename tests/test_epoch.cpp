// stream/engine.hpp epoch/window finalization: the long-running-service
// seam. Epochs control emission cadence, never flow retirement, so the
// merged analysis must be invariant under epoch length — the acceptance
// sweep {100ms, 1s, 10s, inf} must reconcile with the batch report
// exactly, at unbounded and tight budgets, with finish() on the serial
// loop and on the thread pool, and at unbounded budgets every flow's
// final verdict must equal the batch filter's disposition for its
// stream.
// Under test as well: the conservation identities a verdict-stream
// consumer relies on (every ordinal exactly once with amends = false,
// epoch frame/byte sums equal the pushed totals), the one-way
// monotonicity of amendments (kept can tighten to removed, removed
// never reopens), that an attached partial is really analyzed, and
// that the verdict stream, epoch by epoch, does not depend on how
// finish() dispatched its flows.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "emul/app_model.hpp"
#include "emul/sfu.hpp"
#include "filter/pipeline.hpp"
#include "report/json_export.hpp"
#include "report/metrics.hpp"
#include "stream/engine.hpp"
#include "stream/stream_mode.hpp"

namespace {

namespace emul = rtcc::emul;
namespace net = rtcc::net;
namespace report = rtcc::report;
namespace stream = rtcc::stream;
using rtcc::filter::Disposition;

std::string stripped_json(report::CallAnalysis a) {
  a.flows = {};
  return report::to_json(a);
}

emul::SfuCall fixture_call() {
  emul::SfuConfig cfg;
  cfg.participants = 6;
  cfg.call_s = 30.0;
  cfg.media_scale = 0.02;
  return emul::emulate_sfu_call(cfg);
}

/// Sink-side log; FlowVerdict::partial is only valid during the sink
/// call, so everything needed later is copied out here.
struct VerdictLog {
  std::uint64_t ordinal;
  Disposition disposition;
  bool amends;
  bool final_pass;
  bool has_partial;
  std::uint64_t partial_packets;  // decode-node packets, when attached

  bool operator==(const VerdictLog&) const = default;
};
struct EpochLog {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  bool final_pass = false;
  std::vector<VerdictLog> verdicts;

  bool operator==(const EpochLog&) const = default;
};

report::CallAnalysis run_with_epochs(const net::Trace& trace,
                                     const rtcc::filter::FilterConfig& fcfg,
                                     const report::AnalysisOptions& opts,
                                     const stream::StreamOptions& sopts,
                                     double epoch_s,
                                     std::vector<EpochLog>& log) {
  stream::StreamingAnalyzer engine(trace.linktype(), fcfg, opts, sopts);
  engine.capture_stats() = trace.ingest();
  engine.set_epoch(epoch_s, [&log](const stream::EpochReport& ep) {
    EpochLog e;
    e.frames = ep.frames;
    e.bytes = ep.bytes;
    e.final_pass = ep.final_pass;
    for (const auto& v : ep.verdicts)
      e.verdicts.push_back({v.ordinal, v.disposition, v.amends, v.final_pass,
                            v.partial != nullptr,
                            v.partial != nullptr
                                ? v.partial->nodes.decode.packets
                                : 0});
    log.push_back(std::move(e));
  });
  for (const auto& frame : trace.frames())
    engine.push_frame(trace.bytes(frame), frame.ts, frame.orig_len);
  return engine.finish();
}

/// Replays the log into final per-ordinal state + checks the stream's
/// local invariants. With `batch` (runs where no flow split, so
/// ordinals are stream-table indices) every ordinal's final disposition
/// must also equal run_pipeline's for that stream.
std::map<std::uint64_t, Disposition> reconcile(
    const std::vector<EpochLog>& log, std::uint64_t expect_frames,
    std::uint64_t expect_bytes,
    const std::vector<Disposition>* batch = nullptr) {
  std::uint64_t frames = 0, bytes = 0;
  std::map<std::uint64_t, Disposition> state;
  for (const auto& ep : log) {
    frames += ep.frames;
    bytes += ep.bytes;
    for (const auto& v : ep.verdicts) {
      const auto it = state.find(v.ordinal);
      if (!v.amends) {
        EXPECT_EQ(it, state.end())
            << "ordinal " << v.ordinal << " emitted twice without amends";
        state.emplace(v.ordinal, v.disposition);
      } else {
        EXPECT_NE(it, state.end())
            << "amendment for never-emitted ordinal " << v.ordinal;
        if (it == state.end()) continue;
        EXPECT_NE(it->second, v.disposition) << "no-op amendment";
        // Evidence grows monotonically: a removed verdict never reopens.
        EXPECT_FALSE(it->second != Disposition::kKept &&
                     v.disposition == Disposition::kKept)
            << "ordinal " << v.ordinal << " flipped removed -> kept";
        it->second = v.disposition;
      }
      if (v.has_partial) {
        EXPECT_EQ(v.disposition, Disposition::kKept);
        EXPECT_GT(v.partial_packets, 0u)
            << "attached partial not actually analyzed";
      }
    }
  }
  // Frame/byte conservation: every pushed frame in exactly one epoch.
  EXPECT_EQ(frames, expect_frames);
  EXPECT_EQ(bytes, expect_bytes);
  EXPECT_TRUE(log.empty() || log.back().final_pass);
  if (batch != nullptr) {
    EXPECT_EQ(state.size(), batch->size());
    for (const auto& [ord, d] : state) {
      if (ord >= batch->size()) continue;
      EXPECT_EQ(d, (*batch)[ord]) << "ordinal " << ord << ": streaming "
                                  << rtcc::filter::to_string(d) << ", batch "
                                  << rtcc::filter::to_string((*batch)[ord]);
    }
  }
  return state;
}

TEST(Epoch, SweepReconcilesWithBatchAtEveryLengthBudgetAndShardCount) {
  const auto call = fixture_call();
  const auto fcfg = emul::sfu_filter_config(call);
  const stream::StreamModeGuard batch_ref(false);
  const auto batch_disp =
      rtcc::filter::run_pipeline(call.trace, net::group_streams(call.trace),
                                 fcfg)
          .dispositions;

  std::uint64_t wire_bytes = 0;
  for (const auto& frame : call.trace.frames())
    wire_bytes += call.trace.bytes(frame).size();

  const double inf = std::numeric_limits<double>::infinity();
  const stream::StreamOptions unbounded{};
  const stream::StreamOptions tight{.max_flows = 8, .idle_timeout_s = 0.5};

  // The serial run's per-epoch logs, keyed by (budget, epoch length):
  // the pooled run must emit the very same verdict stream.
  std::map<std::pair<const stream::StreamOptions*, double>,
           std::vector<EpochLog>>
      serial_logs;
  for (const bool parallel : {false, true}) {
    report::AnalysisOptions opts;
    opts.parallel_streams = parallel;
    const auto ref = stripped_json(report::analyze_trace(call.trace, fcfg, opts));
    for (const auto* sopts : {&unbounded, &tight}) {
      // Tight budgets split flows; merged output then satisfies
      // conservation rather than byte-identity (pinned elsewhere), so
      // the batch-equality check runs on the unbounded sweep only. The
      // epoch-length *invariance* check runs on both: epoch cadence
      // must never change the merged report.
      std::string epoch_invariant_ref;
      for (const double epoch_s : {0.1, 1.0, 10.0, inf}) {
        std::vector<EpochLog> log;
        const auto got =
            run_with_epochs(call.trace, fcfg, opts, *sopts, epoch_s, log);
        const auto json = stripped_json(got);
        if (epoch_invariant_ref.empty()) epoch_invariant_ref = json;
        EXPECT_EQ(json, epoch_invariant_ref)
            << "merged report varies with epoch_s=" << epoch_s;
        if (sopts == &unbounded) {
          EXPECT_EQ(json, ref)
              << "epoch_s=" << epoch_s << " parallel=" << parallel;
        }
        if (!parallel) {
          serial_logs[{sopts, epoch_s}] = log;
        } else {
          EXPECT_TRUE(log == serial_logs.at({sopts, epoch_s}))
              << "verdict stream depends on dispatch at epoch_s=" << epoch_s
              << (sopts == &tight ? " (tight budgets)" : " (unbounded)");
        }

        const auto state =
            reconcile(log, call.trace.frames().size(), wire_bytes,
                      sopts == &unbounded ? &batch_disp : nullptr);
        // Every flow the ledger saw got exactly one non-amendment
        // verdict, and the reconciled per-disposition stream counts
        // match the merged Table-1 accounting.
        EXPECT_EQ(state.size(), got.flows.flows_seen);
        std::map<Disposition, std::size_t> by_disp;
        for (const auto& [ord, d] : state) ++by_disp[d];
        EXPECT_EQ(by_disp[Disposition::kKept],
                  got.rtc_udp.streams + got.rtc_tcp.streams);
        EXPECT_EQ(by_disp[Disposition::kStage1Timespan],
                  got.stage1_udp.streams + got.stage1_tcp.streams);
        std::size_t stage2 = 0;
        for (const auto d :
             {Disposition::kStage2ThreeTuple, Disposition::kStage2Sni,
              Disposition::kStage2LocalIp, Disposition::kStage2Port})
          stage2 += by_disp[d];
        EXPECT_EQ(stage2, got.stage2_udp.streams + got.stage2_tcp.streams);

        // Short epochs over a bounded table must actually exercise the
        // provisional path, or the sweep proves nothing.
        if (sopts == &tight && epoch_s == 0.1) {
          std::size_t provisional = 0;
          for (const auto& ep : log)
            if (!ep.final_pass) provisional += ep.verdicts.size();
          EXPECT_GT(provisional, 0u)
              << "no provisional verdicts at 100ms epochs + tight budgets";
        }
      }
    }
  }
}

TEST(Epoch, ManualFinishEpochEmitsBetweenAutomaticBoundaries) {
  const auto call = fixture_call();
  const auto fcfg = emul::sfu_filter_config(call);
  const stream::StreamOptions tight{.max_flows = 8, .idle_timeout_s = 0.5};

  stream::StreamingAnalyzer engine(call.trace.linktype(), fcfg, {}, tight);
  engine.capture_stats() = call.trace.ingest();
  std::vector<EpochLog> log;
  // epoch_s = 0: no automatic boundaries; only manual finish_epoch()
  // calls and the finish() final pass emit.
  engine.set_epoch(0.0, [&log](const stream::EpochReport& ep) {
    EpochLog e;
    e.frames = ep.frames;
    e.bytes = ep.bytes;
    e.final_pass = ep.final_pass;
    for (const auto& v : ep.verdicts)
      e.verdicts.push_back(
          {v.ordinal, v.disposition, v.amends, v.final_pass, false, 0});
    log.push_back(std::move(e));
  });

  std::uint64_t wire_bytes = 0;
  const auto& frames = call.trace.frames();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    engine.push_frame(call.trace.bytes(frames[i]), frames[i].ts,
                      frames[i].orig_len);
    wire_bytes += call.trace.bytes(frames[i]).size();
    if (i == frames.size() / 2) engine.finish_epoch();
  }
  const auto got = engine.finish();

  ASSERT_EQ(log.size(), 2u) << "one manual epoch + the final pass";
  EXPECT_FALSE(log[0].final_pass);
  EXPECT_TRUE(log[1].final_pass);
  const auto state = reconcile(log, frames.size(), wire_bytes);
  EXPECT_EQ(state.size(), got.flows.flows_seen);
}

TEST(Epoch, NoSinkIsInertAndFinishEpochIsSafe) {
  const auto call = fixture_call();
  const auto fcfg = emul::sfu_filter_config(call);
  const stream::StreamModeGuard batch_ref(false);
  const auto ref = stripped_json(report::analyze_trace(call.trace, fcfg));

  stream::StreamingAnalyzer engine(call.trace.linktype(), fcfg);
  engine.capture_stats() = call.trace.ingest();
  for (const auto& frame : call.trace.frames()) {
    engine.push_frame(call.trace.bytes(frame), frame.ts, frame.orig_len);
  }
  engine.finish_epoch();  // no sink set: must be a no-op, not a crash
  EXPECT_EQ(stripped_json(engine.finish()), ref);
}

}  // namespace
