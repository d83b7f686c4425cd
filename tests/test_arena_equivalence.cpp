// The arena producers' equivalence oracle: the emulator writes every
// frame in place into its trace arena (build_frame_arena). Rebuilding
// each frame from its decoded fields through the temporary-vector
// builder (build_frame, the pre-arena "legacy" producer) and copying it
// onto a fresh trace's slab tail (add_frame) must give bit-identical
// output at every layer — same wire bytes, same filter dispositions,
// same compliance metrics — across the full 6-app x 3-network matrix.
// Any divergence means the in-place builder or the copying storage
// path changed observable behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "emul/app_model.hpp"
#include "report/corpus.hpp"
#include "report/json_export.hpp"
#include "report/metrics.hpp"

namespace rtcc {
namespace {

using emul::AppId;
using emul::NetworkSetup;
using util::Bytes;

emul::CallConfig sweep_config(AppId app, NetworkSetup network) {
  emul::CallConfig cfg;
  cfg.app = app;
  cfg.network = network;
  cfg.media_scale = 0.02;
  cfg.call_s = 60.0;
  cfg.seed = 1234;
  return cfg;
}

void expect_identical_stats(const filter::StageStats& a,
                            const filter::StageStats& b) {
  EXPECT_EQ(a.streams, b.streams);
  EXPECT_EQ(a.packets, b.packets);
}

/// Every field of the report, diagnostics included.
void expect_identical_analysis(const report::CallAnalysis& a,
                               const report::CallAnalysis& b) {
  EXPECT_EQ(report::to_json(a), report::to_json(b));
}

using SweepCase = std::tuple<AppId, NetworkSetup>;

class ArenaEquivalence : public testing::TestWithParam<SweepCase> {};

/// Rebuilds every frame of `trace` from its decoded addressing and
/// payload through build_frame, copied onto a fresh trace's arena.
net::Trace rebuild_through_build_frame(const net::Trace& trace) {
  net::Trace out;
  out.reserve(trace.size());
  for (const auto& frame : trace.frames()) {
    const auto d = net::decode_frame(trace.bytes(frame));
    if (!d) {
      ADD_FAILURE() << "emulated frame does not decode";
      continue;
    }
    const net::FrameSpec spec{d->src, d->dst, d->src_port, d->dst_port,
                              d->transport};
    out.add_frame(frame.ts, net::build_frame(spec, d->payload));
  }
  return out;
}

TEST_P(ArenaEquivalence, WireBytesFilterAndMetricsMatchLegacy) {
  const auto [app, network] = GetParam();
  const auto cfg = sweep_config(app, network);

  const auto arena_call = emul::emulate_call(cfg);
  const net::Trace legacy_trace = rebuild_through_build_frame(arena_call.trace);
  const auto fcfg = emul::filter_config_for(arena_call);

  // Layer 1: identical wire bytes (the whole pcap, headers included).
  EXPECT_EQ(net::encode_pcap(arena_call.trace), net::encode_pcap(legacy_trace));
  EXPECT_EQ(arena_call.trace.total_bytes(), legacy_trace.total_bytes());

  // Layer 2: identical filter dispositions, stream by stream.
  const auto arena_table = net::group_streams(arena_call.trace);
  const auto legacy_table = net::group_streams(legacy_trace);
  const auto arena_report =
      filter::run_pipeline(arena_call.trace, arena_table, fcfg);
  const auto legacy_report =
      filter::run_pipeline(legacy_trace, legacy_table, fcfg);
  EXPECT_EQ(arena_report.dispositions, legacy_report.dispositions);
  EXPECT_EQ(arena_report.rtc_udp_streams, legacy_report.rtc_udp_streams);
  expect_identical_stats(arena_report.rtc_udp, legacy_report.rtc_udp);
  expect_identical_stats(arena_report.rtc_tcp, legacy_report.rtc_tcp);

  // Layer 3: identical DPI + compliance metrics.
  expect_identical_analysis(report::analyze_call(arena_call),
                            report::analyze_trace(legacy_trace, fcfg));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ArenaEquivalence,
    testing::Combine(testing::ValuesIn(emul::all_apps()),
                     testing::ValuesIn(emul::all_networks())),
    [](const testing::TestParamInfo<SweepCase>& info) {
      return to_string(std::get<0>(info.param)).substr(0, 6) +
             std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

// ---- streaming corpus ----------------------------------------------------

report::ExperimentConfig tiny_matrix() {
  report::ExperimentConfig cfg;
  cfg.apps = {AppId::kZoom, AppId::kDiscord};
  cfg.networks = {NetworkSetup::kWifiP2p, NetworkSetup::kCellular};
  cfg.repeats = 2;
  cfg.media_scale = 0.02;
  cfg.call_s = 60.0;
  return cfg;
}

TEST(Corpus, AggregatesMatchRunExperiment) {
  // The pooled corpus, run_experiment, and a hand-rolled serial loop
  // (emulate + analyze each call, merged app-major) agree per app.
  report::CorpusOptions opts;
  opts.experiment = tiny_matrix();
  const auto corpus = report::run_corpus(opts);
  const auto experiment = report::run_experiment(tiny_matrix());

  std::map<AppId, report::CallAnalysis> reference;
  const auto matrix = tiny_matrix();
  for (const auto app : matrix.apps)
    for (const auto network : matrix.networks)
      for (int repeat = 0; repeat < matrix.repeats; ++repeat) {
        emul::CallConfig call_cfg;
        call_cfg.app = app;
        call_cfg.network = network;
        call_cfg.media_scale = matrix.media_scale;
        call_cfg.call_s = matrix.call_s;
        call_cfg.background = matrix.background;
        call_cfg.seed = matrix.seed;
        call_cfg.call_index = repeat;
        report::merge(reference[app],
                      report::analyze_call(emul::emulate_call(call_cfg)));
      }

  ASSERT_EQ(corpus.per_app.size(), experiment.size());
  ASSERT_EQ(corpus.per_app.size(), reference.size());
  auto itc = corpus.per_app.begin();
  auto ite = experiment.begin();
  auto itr = reference.begin();
  for (; itc != corpus.per_app.end(); ++itc, ++ite, ++itr) {
    ASSERT_EQ(itc->first, ite->first);
    ASSERT_EQ(itc->first, itr->first);
    SCOPED_TRACE("app " + to_string(itc->first));
    expect_identical_analysis(itc->second, ite->second);
    expect_identical_analysis(itc->second, itr->second);
  }
}

TEST(Corpus, CountersAreConsistentAndLiveSetIsBounded) {
  report::CorpusOptions opts;
  opts.experiment = tiny_matrix();
  opts.max_live_traces = 2;
  const auto result = report::run_corpus(opts);

  ASSERT_EQ(result.calls.size(), 8u);  // 2 apps x 2 networks x 2 repeats
  std::uint64_t sum = 0, max_call = 0;
  for (const auto& call : result.calls) {
    EXPECT_GT(call.trace_bytes, 0u);
    EXPECT_GT(call.frames, 0u);
    sum += call.trace_bytes;
    max_call = std::max(max_call, call.trace_bytes);
  }
  EXPECT_EQ(result.total_trace_bytes, sum);
  EXPECT_LE(result.peak_live_traces, 2u);
  // The gate admits at most 2 traces, so the live peak can never reach
  // the corpus total (8 calls of comparable size).
  EXPECT_GE(result.peak_live_trace_bytes, max_call);
  EXPECT_LE(result.peak_live_trace_bytes, 2 * max_call);
  EXPECT_LT(result.peak_live_trace_bytes, result.total_trace_bytes);
  EXPECT_GT(result.wall_s, 0.0);
  EXPECT_GT(result.mb_per_s(), 0.0);
}

TEST(Corpus, SerialAndPooledAgree) {
  report::CorpusOptions pooled;
  pooled.experiment = tiny_matrix();
  auto serial = pooled;
  serial.experiment.exec = report::ExecMode::kSerial;
  serial.experiment.analysis.parallel_streams = false;

  const auto a = report::run_corpus(pooled);
  const auto b = report::run_corpus(serial);
  ASSERT_EQ(a.calls.size(), b.calls.size());
  for (std::size_t i = 0; i < a.calls.size(); ++i) {
    EXPECT_EQ(a.calls[i].trace_bytes, b.calls[i].trace_bytes);
    EXPECT_EQ(a.calls[i].frames, b.calls[i].frames);
  }
  auto ita = a.per_app.begin();
  auto itb = b.per_app.begin();
  for (; ita != a.per_app.end(); ++ita, ++itb)
    expect_identical_analysis(ita->second, itb->second);
}

}  // namespace
}  // namespace rtcc
