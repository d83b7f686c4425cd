// stream/flow_table.hpp: the streaming engine's working-set boundary.
// Under test: LRU/idle eviction order at the budget edges (capacity 1,
// re-touch reordering, idle expiry by trace clock), the rekey/split
// ledger identity (records created = distinct keys + rekeys), drain
// semantics (every live flow retired, none counted as an eviction),
// and — at the engine level — mid-capture eviction with finish()
// fanning the surviving flows out over the thread pool, where the
// conservation identities must hold against the batch reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "emul/app_model.hpp"
#include "emul/group_call.hpp"
#include "net/address.hpp"
#include "net/stream_table.hpp"
#include "report/json_export.hpp"
#include "report/metrics.hpp"
#include "stream/engine.hpp"
#include "stream/flow_table.hpp"
#include "stream/stream_mode.hpp"

namespace {

namespace emul = rtcc::emul;
namespace report = rtcc::report;
namespace stream = rtcc::stream;
using rtcc::net::FlowKey;
using rtcc::net::IpAddr;
using stream::EvictReason;
using stream::FlowTable;

FlowKey key_n(std::uint16_t n) {
  FlowKey k;
  k.a = IpAddr::v4(10, 0, 0, 1);
  k.a_port = static_cast<std::uint16_t>(40000 + n);
  k.b = IpAddr::v4(203, 0, 113, 7);
  k.b_port = static_cast<std::uint16_t>(20000 + n);
  return k;
}

/// Eviction log: (record ordinal, reason) in callback order.
using Evictions = std::vector<std::pair<std::uint64_t, EvictReason>>;

FlowTable::EvictFn log_to(Evictions& log) {
  return [&log](stream::FlowRecord& rec, EvictReason reason) {
    log.emplace_back(rec.ordinal, reason);
  };
}

TEST(FlowTable, CapacityOneEvictsPreviousFlowOnEachNewKey) {
  FlowTable table({.max_flows = 1});
  Evictions log;
  const auto evict = log_to(log);

  for (std::uint16_t n = 0; n < 3; ++n) {
    const auto t = table.touch(key_n(n), /*clock=*/n * 1.0);
    EXPECT_TRUE(t.created);
    table.enforce_capacity(evict);
    EXPECT_EQ(table.live_count(), 1u);
  }
  // Each new key displaced exactly the previous one, in order.
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], (std::pair<std::uint64_t, EvictReason>{0, EvictReason::kLru}));
  EXPECT_EQ(log[1], (std::pair<std::uint64_t, EvictReason>{1, EvictReason::kLru}));
  EXPECT_EQ(table.stats().flows_seen, 3u);
  // The peak includes the transient between touch and enforce_capacity
  // (the engine's own call order): cap + 1, never more.
  EXPECT_EQ(table.stats().flows_live, 2u);
  EXPECT_EQ(table.stats().evictions, 2u);
  EXPECT_EQ(table.stats().flows_rekeyed, 0u);
}

TEST(FlowTable, RetouchMovesFlowToLruBack) {
  FlowTable table({.max_flows = 1});
  Evictions log;

  (void)table.touch(key_n(0), 0.0);
  (void)table.touch(key_n(1), 1.0);
  // Re-touch 0: it becomes most-recent, so capacity pressure must
  // evict 1 even though 0 was created first.
  const auto t = table.touch(key_n(0), 2.0);
  EXPECT_FALSE(t.created);
  table.enforce_capacity(log_to(log));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].first, 1u);
  EXPECT_EQ(log[0].second, EvictReason::kLru);
  EXPECT_FALSE(table.records()[0].retired);
  EXPECT_TRUE(table.records()[1].retired);
}

TEST(FlowTable, IdleExpiryRetiresOnlyFlowsPastTimeout) {
  FlowTable table({.idle_timeout_s = 1.0});
  Evictions log;
  const auto evict = log_to(log);

  (void)table.touch(key_n(0), 0.0);
  (void)table.touch(key_n(1), 5.0);
  table.expire_idle(/*clock=*/5.5, evict);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], (std::pair<std::uint64_t, EvictReason>{0, EvictReason::kIdle}));
  EXPECT_EQ(table.live_count(), 1u);
  // Exactly at the boundary (last_active + timeout == clock) is not yet
  // idle; one tick past it is.
  table.expire_idle(6.0, evict);
  EXPECT_EQ(log.size(), 1u);
  table.expire_idle(6.0 + 1e-9, evict);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].first, 1u);
  EXPECT_EQ(table.live_count(), 0u);
  EXPECT_EQ(table.stats().evictions, 2u);
}

// Regression: capture timestamps are not monotonic (reordered pcaps,
// clock steps on the capture host). The table keeps its own high-water
// clock, so a backwards ts can neither reorder the LRU list relative to
// last_active (which would strand expired flows behind a fresher front
// record forever) nor evict a just-touched flow through a stale clock.
TEST(FlowTable, BackwardsTimestampCannotReorderLruOrStrandFlows) {
  FlowTable table({.idle_timeout_s = 1.0});
  Evictions log;
  const auto evict = log_to(log);

  (void)table.touch(key_n(0), 10.0);
  // Backwards ts: without the clamp this would stamp last_active = 3
  // at the LRU *back*, behind flow 0's 10 at the front — and the
  // front-pop expiry loop would then stop at flow 0 while flow 1 sat
  // expired behind it.
  (void)table.touch(key_n(1), 3.0);
  EXPECT_EQ(table.high_water_clock(), 10.0);

  table.expire_idle(11.5, evict);
  ASSERT_EQ(log.size(), 2u) << "both flows idle since the 10.0 high-water";
  EXPECT_EQ(log[0].first, 0u);
  EXPECT_EQ(log[1].first, 1u) << "clamped flow must not be stranded";
  EXPECT_EQ(table.live_count(), 0u);
}

TEST(FlowTable, BackwardsClockPassedToExpiryNeverEvictsFreshFlows) {
  FlowTable table({.idle_timeout_s = 1.0});
  Evictions log;

  (void)table.touch(key_n(0), 100.0);
  // A stale clock fed to expiry (e.g. a reordered frame driving the
  // engine) clamps to the 100.0 high-water: the flow was touched "now",
  // so nothing is idle — and nothing can compute a negative (or, in an
  // unsigned caller, enormous) idle delta.
  table.expire_idle(5.0, log_to(log));
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(table.live_count(), 1u);
  EXPECT_EQ(table.high_water_clock(), 100.0);

  // Forward progress resumes from the high-water mark, not the stale
  // clock: one tick past 101 retires the flow.
  table.expire_idle(101.0 + 1e-9, log_to(log));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].second, EvictReason::kIdle);
}

TEST(FlowTable, RekeyedFlowSatisfiesLedgerIdentity) {
  FlowTable table({.max_flows = 1});
  Evictions log;
  const auto evict = log_to(log);

  (void)table.touch(key_n(0), 0.0);
  (void)table.touch(key_n(1), 1.0);
  table.enforce_capacity(evict);  // retires key 0
  const auto again = table.touch(key_n(0), 2.0);
  // A retired key coming back is a split: a *new* record, not a revival
  // of the frozen one.
  EXPECT_TRUE(again.created);
  EXPECT_EQ(again.rec.ordinal, 2u);
  EXPECT_EQ(again.rec.key, key_n(0));
  EXPECT_TRUE(table.records()[0].retired);
  EXPECT_FALSE(table.records()[2].retired);

  // Ledger identity the parity oracle relies on: records created ==
  // distinct keys + rekeys.
  std::set<std::string> distinct;
  for (const auto& rec : table.records()) distinct.insert(rec.key.to_string());
  EXPECT_EQ(table.stats().flows_rekeyed, 1u);
  EXPECT_EQ(table.records().size(),
            distinct.size() + table.stats().flows_rekeyed);
  EXPECT_EQ(table.stats().flows_seen, table.records().size());
}

TEST(FlowTable, DrainRetiresAllOldestFirstWithoutCountingEvictions) {
  FlowTable table({});  // unbounded: nothing retires before drain
  Evictions log;

  for (std::uint16_t n = 0; n < 4; ++n)
    (void)table.touch(key_n(n), n * 1.0);
  table.expire_idle(100.0, log_to(log));
  table.enforce_capacity(log_to(log));
  EXPECT_TRUE(log.empty()) << "zero budgets must never evict";
  EXPECT_EQ(table.live_count(), 4u);

  table.drain(log_to(log));
  ASSERT_EQ(log.size(), 4u);
  for (std::uint64_t n = 0; n < 4; ++n) {
    EXPECT_EQ(log[n].first, n) << "drain must replay touch order";
    EXPECT_EQ(log[n].second, EvictReason::kDrain);
  }
  EXPECT_EQ(table.live_count(), 0u);
  // End-of-capture retirement is not memory pressure: the evictions
  // counter (and so the report diagnostic) stays at zero.
  EXPECT_EQ(table.stats().evictions, 0u);
  EXPECT_EQ(table.stats().flows_live, 4u);
}

// ---- Engine level: eviction with pooled finalization ---------------------

/// Conference call with enough concurrent RTC flows that max_flows=1
/// forces evictions of flows with buffered payloads.
emul::GroupCall many_stream_call() {
  emul::GroupCallConfig cfg;
  cfg.participants = 6;
  cfg.call_s = 30.0;
  cfg.media_scale = 0.02;
  return emul::emulate_group_call(cfg);
}

TEST(StreamingEviction, ShardedInFlightChunksSurviveEviction) {
  const auto call = many_stream_call();
  const auto fcfg = emul::group_filter_config(call);

  const stream::StreamModeGuard batch_ref(false);
  report::AnalysisOptions opts;
  opts.parallel_streams = true;
  const auto ref = report::analyze_trace(call.trace, fcfg, opts);

  // Interleaved senders + capacity 1 = every flow is evicted and
  // re-keyed many times, each eviction analyzing a payload inline.
  const stream::StreamOptions tight{.max_flows = 1};
  const auto got =
      stream::analyze_trace_streaming(call.trace, fcfg, opts, tight);

  EXPECT_GT(got.flows.evictions, 0u) << "budget never bound — test inert";
  EXPECT_GT(got.flows.flows_rekeyed, 0u);

  // Splits forfeit byte-identity but never bytes: the volume totals and
  // the flow ledger must balance exactly.
  EXPECT_EQ(got.raw_bytes, ref.raw_bytes);
  EXPECT_EQ(got.raw_udp_datagrams, ref.raw_udp_datagrams);
  EXPECT_EQ(got.raw_tcp_segments, ref.raw_tcp_segments);
  const auto stage_packets = [](const report::CallAnalysis& a, bool udp) {
    return udp ? a.stage1_udp.packets + a.stage2_udp.packets +
                     a.rtc_udp.packets
               : a.stage1_tcp.packets + a.stage2_tcp.packets +
                     a.rtc_tcp.packets;
  };
  EXPECT_EQ(stage_packets(got, true), stage_packets(ref, true));
  EXPECT_EQ(stage_packets(got, false), stage_packets(ref, false));
  EXPECT_EQ(got.flows.flows_seen,
            got.raw_udp_streams + got.raw_tcp_streams);
  EXPECT_EQ(got.raw_udp_streams + got.raw_tcp_streams,
            ref.raw_udp_streams + ref.raw_tcp_streams +
                got.flows.flows_rekeyed);
}

TEST(StreamingEviction, UnboundedShardedStreamingMatchesBatch) {
  const auto call = many_stream_call();
  const auto fcfg = emul::group_filter_config(call);

  const stream::StreamModeGuard batch_ref(false);
  report::AnalysisOptions opts;
  opts.parallel_streams = true;
  const auto strip = [](report::CallAnalysis a) {
    a.flows = {};
    return report::to_json(a);
  };
  const auto ref_json = strip(report::analyze_trace(call.trace, fcfg, opts));
  const auto got =
      stream::analyze_trace_streaming(call.trace, fcfg, opts, {});
  EXPECT_EQ(got.flows.flows_rekeyed, 0u)
      << "unbounded budgets must never split";
  EXPECT_EQ(strip(got), ref_json);
}

}  // namespace
