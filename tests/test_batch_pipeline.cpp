// Vector pipeline: extraction at the boundary datagram counts against
// the naive per-datagram oracle, and the per-node counter accounting
// the report layer surfaces as "nodes".
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "dpi/scanning_dpi.hpp"
#include "net/packet_batch.hpp"
#include "testkit/mutators.hpp"
#include "testkit/oracles.hpp"
#include "testkit/seeds.hpp"
#include "util/rng.hpp"

namespace {

using rtcc::util::Bytes;
using rtcc::util::BytesView;

TEST(BatchPipeline, BoundaryCountsMatchPerDatagramPath) {
  // Seed a mixed stream, tile it to every boundary count (empty, one,
  // batch size ± 1, exact fit, 16 vectors minus one) and require the
  // batched node graph and the naive per-datagram extractor to produce
  // byte-identical analyses.
  rtcc::util::Rng rng(0xb0b);
  const auto base = rtcc::testkit::make_seed_stream(
      rtcc::testkit::all_seed_families().front(), rng, 6);
  const auto& counts = rtcc::testkit::batch_boundary_counts();
  EXPECT_NE(std::find(counts.begin(), counts.end(), 4095u), counts.end());
  for (const std::size_t count : counts) {
    const auto shaped =
        rtcc::testkit::mutate_batch_boundary(base.datagrams, count, rng);
    EXPECT_EQ(shaped.size(), count == 0 ? 0u : count);
    const auto err = rtcc::testkit::check_scan_equivalence(shaped);
    EXPECT_FALSE(err.has_value()) << "count " << count << ": " << *err;
  }
}

TEST(BatchPipeline, NodeCountersAccountForEveryPacket) {
  rtcc::util::Rng rng(0xace);
  std::vector<Bytes> payloads;
  std::vector<rtcc::dpi::StreamDatagram> stream;
  // 300 datagrams = one full vector + a partial one at the default
  // size; two empty payloads must be parked by demux, not scanned.
  for (std::size_t i = 0; i < 300; ++i) {
    payloads.push_back(rng.bytes(i == 7 || i == 280 ? 0 : 40 + rng.below(200)));
    stream.push_back(
        {BytesView{payloads.back()}, static_cast<double>(i) * 0.01,
         static_cast<int>(i & 1)});
  }

  rtcc::net::PacketBatch batch;
  for (const auto& d : stream) batch.push(d.payload, d.ts, d.dir);

  const rtcc::dpi::ScanningDpi dpi;
  rtcc::dpi::PipelineCounters counters;
  const auto out = dpi.analyze_batch(batch, &counters);
  ASSERT_EQ(out.size(), 300u);

  EXPECT_EQ(counters.demux.vectors, 2u);  // ceil(300 / 256)
  EXPECT_EQ(counters.demux.packets, 300u);
  EXPECT_EQ(counters.demux.suspended, 2u);  // the empty payloads
  EXPECT_EQ(counters.prefilter.vectors, 2u);
  EXPECT_EQ(counters.prefilter.packets, 298u);
  EXPECT_EQ(counters.scan.vectors, 2u);
  EXPECT_EQ(counters.scan.packets, 298u);
  // Every candidate the scan parked is accounted across the batch.
  std::uint64_t candidates = 0;
  for (const auto& a : out) candidates += a.candidates;
  EXPECT_EQ(counters.scan.suspended, candidates);
}

TEST(BatchPipeline, CountersAreOptional) {
  // A null counters pointer must not change the analysis.
  rtcc::util::Rng rng(0xfee1);
  auto stream = rtcc::testkit::make_seed_stream(
      rtcc::testkit::all_seed_families().front(), rng, 4);
  rtcc::net::PacketBatch batch;
  for (std::size_t i = 0; i < stream.datagrams.size(); ++i)
    batch.push(BytesView{stream.datagrams[i]}, static_cast<double>(i) * 0.01,
               static_cast<int>(i & 1));
  const rtcc::dpi::ScanningDpi dpi;
  rtcc::dpi::PipelineCounters counters;
  const auto counted = dpi.analyze_batch(batch, &counters);
  const auto uncounted = dpi.analyze_batch(batch);
  ASSERT_EQ(counted.size(), uncounted.size());
  for (std::size_t i = 0; i < counted.size(); ++i) {
    SCOPED_TRACE("datagram " + std::to_string(i));
    const auto& a = counted[i];
    const auto& b = uncounted[i];
    EXPECT_EQ(a.klass, b.klass);
    EXPECT_EQ(a.proprietary_header_len, b.proprietary_header_len);
    EXPECT_EQ(a.candidates, b.candidates);
    ASSERT_EQ(a.messages.size(), b.messages.size());
    for (std::size_t m = 0; m < a.messages.size(); ++m) {
      EXPECT_EQ(a.messages[m].offset, b.messages[m].offset);
      EXPECT_EQ(a.messages[m].length, b.messages[m].length);
      EXPECT_EQ(a.messages[m].type_label(), b.messages[m].type_label());
    }
  }
  EXPECT_TRUE(counters.demux.any());
}

}  // namespace
