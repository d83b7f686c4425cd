// Equivalence + determinism guarantees for the throughput layer:
//
//  * the anchor prefilter (dpi/anchor_scan) produces byte-identical
//    DPI output vs the naive all-offsets oracle, across the whole
//    6-app x 3-network corpus;
//  * run_experiment produces bit-identical aggregates under serial and
//    pooled dispatch (and with per-stream parallelism on or off) — the
//    pool only reorders *when* work runs, never its result;
//  * the work-stealing pool itself runs every index exactly once,
//    supports nested parallel_for, and propagates task exceptions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "dpi/simd_dispatch.hpp"
#include "emul/app_model.hpp"
#include "net/stream_table.hpp"
#include "report/corpus.hpp"
#include "report/json_export.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace rtcc;

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr std::size_t kN = 997;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, EmptyAndSingleIndexBatches) {
  util::ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  util::ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    util::ThreadPool::shared().parallel_for(
        50, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 8 * 50);
}

TEST(ThreadPool, SelfNestedParallelForDoesNotDeadlock) {
  // Nesting into the *same* pool: the inner caller must be able to
  // drain its own batch even when every worker is busy with the outer.
  util::ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(6, [&](std::size_t) {
    pool.parallel_for(10, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 6 * 10);
}

TEST(ThreadPool, PropagatesTaskException) {
  util::ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.parallel_for(16,
                                 [&](std::size_t i) {
                                   if (i == 7)
                                     throw std::runtime_error("task 7");
                                   ++completed;
                                 }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 15);  // the batch still drains
}

// ---------------------------------------------------------------------
// Anchor prefilter equivalence (sweep over the whole corpus)
// ---------------------------------------------------------------------

void expect_identical_analyses(
    const std::vector<dpi::DatagramAnalysis>& a,
    const std::vector<dpi::DatagramAnalysis>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("datagram " + std::to_string(i));
    EXPECT_EQ(a[i].klass, b[i].klass);
    EXPECT_EQ(a[i].proprietary_header_len, b[i].proprietary_header_len);
    EXPECT_EQ(a[i].payload_len, b[i].payload_len);
    EXPECT_EQ(a[i].candidates, b[i].candidates);
    ASSERT_EQ(a[i].messages.size(), b[i].messages.size());
    for (std::size_t m = 0; m < a[i].messages.size(); ++m) {
      const auto& ma = a[i].messages[m];
      const auto& mb = b[i].messages[m];
      EXPECT_EQ(ma.kind, mb.kind);
      EXPECT_EQ(ma.offset, mb.offset);
      EXPECT_EQ(ma.length, mb.length);
      EXPECT_EQ(ma.type_label(), mb.type_label());
      EXPECT_EQ(ma.raw, mb.raw);
    }
  }
}

/// Calls fn(datagrams) for every UDP stream of every app × network
/// cell, background noise included: the extraction paths must agree
/// on noise, not just on well-formed RTC streams.
template <typename Fn>
void for_each_corpus_udp_stream(Fn&& fn) {
  for (const auto app : emul::all_apps()) {
    for (const auto network : emul::all_networks()) {
      emul::CallConfig cfg;
      cfg.app = app;
      cfg.network = network;
      cfg.media_scale = 0.02;
      cfg.call_s = 60.0;
      const auto call = emul::emulate_call(cfg);
      const auto table = net::group_streams(call.trace);
      SCOPED_TRACE(to_string(app) + "/" + to_string(network));
      for (const auto& stream : table.streams) {
        if (stream.key.transport != net::Transport::kUdp) continue;
        std::vector<dpi::StreamDatagram> dgs;
        dgs.reserve(stream.packets.size());
        for (const auto& pkt : stream.packets)
          dgs.push_back({net::packet_payload(call.trace, pkt), pkt.ts,
                         pkt.dir == net::Direction::kAtoB ? 0 : 1});
        fn(dgs);
      }
    }
  }
}

TEST(AnchorPrefilter, SweepMatchesOracleAcrossCorpus) {
  dpi::ScanOptions anchored;
  anchored.use_anchor_prefilter = true;
  dpi::ScanOptions oracle = anchored;
  oracle.use_anchor_prefilter = false;
  const dpi::ScanningDpi fast(anchored);
  const dpi::ScanningDpi naive(oracle);
  for_each_corpus_udp_stream([&](const auto& dgs) {
    expect_identical_analyses(fast.analyze_stream(dgs),
                              naive.analyze_stream(dgs));
  });
}

TEST(VectorPipeline, BatchAndSimdMatchFusedScalarAcrossCorpus) {
  // Full app × network matrix at the two kernel extremes: the batched
  // node graph with the detected kernel's prefilter staging vs the
  // scalar level, where the prefilter node passes through and the scan
  // node runs the fused per-offset anchor loop. Analyses must be
  // identical on every UDP stream — the corpus-wide restatement of the
  // per-stream parity oracles.
  const dpi::ScanningDpi engine;
  for_each_corpus_udp_stream([&](const auto& dgs) {
    std::vector<dpi::DatagramAnalysis> fused_scalar;
    {
      const dpi::SimdModeGuard simd(dpi::SimdLevel::kScalar);
      fused_scalar = engine.analyze_stream(dgs);
    }
    const dpi::SimdModeGuard simd(dpi::detected_simd_level());
    expect_identical_analyses(fused_scalar, engine.analyze_stream(dgs));
  });
}

// ---------------------------------------------------------------------
// run_experiment determinism across execution modes
// ---------------------------------------------------------------------

/// Report JSON minus the path-dependent diagnostics: the per-node
/// counters depend on the extraction path (the naive oracle and the
/// scalar kernel stage nothing in the prefilter node), and the "shards"
/// and "flows" blocks on the streaming engine's knobs, while every
/// verdict must not.
std::string verdict_json(report::CallAnalysis a) {
  a.nodes = {};
  a.shards = {};
  a.flows = {};
  return report::to_json(a);
}

void expect_identical_experiments(
    const std::map<emul::AppId, report::CallAnalysis>& a,
    const std::map<emul::AppId, report::CallAnalysis>& b) {
  ASSERT_EQ(a.size(), b.size());
  auto ita = a.begin();
  auto itb = b.begin();
  for (; ita != a.end(); ++ita, ++itb) {
    ASSERT_EQ(ita->first, itb->first);
    SCOPED_TRACE("app " + to_string(ita->first));
    EXPECT_EQ(verdict_json(ita->second), verdict_json(itb->second));
  }
}

report::ExperimentConfig small_experiment() {
  report::ExperimentConfig cfg;
  cfg.apps = {emul::AppId::kZoom, emul::AppId::kFaceTime,
              emul::AppId::kDiscord};
  cfg.repeats = 1;
  cfg.media_scale = 0.02;
  cfg.call_s = 60.0;
  return cfg;
}

TEST(ExperimentDeterminism, SerialAndPooledIdentical) {
  // Force a real multi-thread pool even on single-core CI: shared() is
  // created on first use, which in this process happens below.
  setenv("RTCC_THREADS", "4", 1);

  auto cfg = small_experiment();
  cfg.exec = report::ExecMode::kSerial;
  cfg.analysis.parallel_streams = false;
  const auto serial = report::run_experiment(cfg);

  cfg.exec = report::ExecMode::kPooled;
  const auto pooled_calls = report::run_experiment(cfg);

  cfg.analysis.parallel_streams = true;
  const auto pooled = report::run_experiment(cfg);

  expect_identical_experiments(serial, pooled_calls);
  expect_identical_experiments(serial, pooled);
  unsetenv("RTCC_THREADS");
}

TEST(ExperimentDeterminism, AnchorPrefilterOnOffIdentical) {
  auto cfg = small_experiment();
  cfg.exec = report::ExecMode::kSerial;
  cfg.analysis.parallel_streams = false;
  cfg.analysis.scan.use_anchor_prefilter = true;
  const auto anchored = report::run_experiment(cfg);
  cfg.analysis.scan.use_anchor_prefilter = false;
  const auto oracle = report::run_experiment(cfg);
  expect_identical_experiments(anchored, oracle);
}

TEST(ExperimentDeterminism, SimdKnobIdentical) {
  // Experiment-level restatement of the kernel extremes: the report
  // metrics must not depend on RTCC_SIMD. Serial execution keeps the
  // process-wide guard race-free.
  auto cfg = small_experiment();
  cfg.exec = report::ExecMode::kSerial;
  cfg.analysis.parallel_streams = false;
  const auto detected = report::run_experiment(cfg);
  const dpi::SimdModeGuard simd(dpi::SimdLevel::kScalar);
  const auto scalar = report::run_experiment(cfg);
  expect_identical_experiments(detected, scalar);
}

TEST(ExperimentDeterminism, EnvParallelKnob) {
  setenv("RTCC_PARALLEL", "0", 1);
  auto cfg = report::experiment_config_from_env();
  EXPECT_EQ(cfg.exec, report::ExecMode::kSerial);
  EXPECT_FALSE(cfg.analysis.parallel_streams);
  setenv("RTCC_PARALLEL", "1", 1);
  cfg = report::experiment_config_from_env();
  EXPECT_EQ(cfg.exec, report::ExecMode::kPooled);
  EXPECT_TRUE(cfg.analysis.parallel_streams);
  unsetenv("RTCC_PARALLEL");
  cfg = report::experiment_config_from_env();
  EXPECT_EQ(cfg.exec, report::ExecMode::kPooled);
}

}  // namespace
