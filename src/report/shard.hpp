// Flow-sharded workers behind the streaming engine (DESIGN.md §7).
//
// The paper's per-stream analysis is embarrassingly parallel at the
// flow level: every compliance verdict is computed per 5-tuple stream.
// ShardedPipeline exploits that the way RSS NICs and VPP-class stacks
// do — a symmetric 5-tuple hash (net/flow_hash.hpp) routes each flow
// to one of N shard workers over a bounded SPSC ring
// (util/spsc_ring.hpp), and each shard owns private state: its pending
// flow table, its ScanningDpi engine and scan scratch, its compliance
// checkers. The hot path crosses threads exactly once (the ring) and
// takes no locks and touches no shared atomics beyond the two ring
// indices.
//
// Its one consumer is stream::StreamingAnalyzer (submit_batch). Batch
// analysis has no sharded path: it lost to the work-stealing pool on
// both the corpus and a single large capture (DESIGN.md §7).
//
// Determinism: per-flow partials are computed by the exact same
// per-stream core as the batch path (report::detail), batching is
// per-flow (so node counters cannot see the shard count), and the
// engine merges partials in a fixed order via merge() — whose
// order-insensitivity the metamorphic merge-order oracle pins. Output
// is therefore bit-identical for every shard count and to the batch
// path (testkit's check_shard_parity).
#pragma once

#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "report/metrics.hpp"

namespace rtcc::report {

/// Hard ceiling on shard workers (memory per shard is one ring plus
/// pending batches; 64 is far above any plausible core count here).
inline constexpr std::size_t kMaxShards = 64;

/// Sentinel for "resolve from the machine": stored when RTCC_SHARDS is
/// unset or "auto".
inline constexpr std::size_t kAutoShards = 0;

/// Effective shard count of the streaming engine (RTCC_SHARDS; batch
/// analysis never shards): the configured value, or (when auto) the
/// hardware concurrency clamped to [1, kMaxShards]. Always >= 1.
[[nodiscard]] std::size_t shard_count();

/// Raw configured value; kAutoShards (0) means auto. Guards save this,
/// not the resolved count, so auto stays auto across a guard.
[[nodiscard]] std::size_t configured_shard_count();

/// Sets the knob (0 = auto) and returns the resolved effective count.
/// Values above kMaxShards clamp.
std::size_t set_shard_count(std::size_t count);

/// RAII pin for tests/benches, mirroring stream::StreamModeGuard.
class ShardModeGuard {
 public:
  explicit ShardModeGuard(std::size_t count)
      : previous_(configured_shard_count()) {
    set_shard_count(count);
  }
  ~ShardModeGuard() { set_shard_count(previous_); }
  ShardModeGuard(const ShardModeGuard&) = delete;
  ShardModeGuard& operator=(const ShardModeGuard&) = delete;

 private:
  std::size_t previous_;
};

/// N shard workers behind per-shard SPSC rings. Single-producer: one
/// thread (the caller) submits whole-flow PacketBatches, which are
/// routed by flow hash and cut into batch-sized chunks, so a shard
/// sees every chunk of each flow it owns, accumulates them in its
/// private pending table, and runs DPI + compliance when the last
/// chunk arrives. The pipeline is reusable across many captures (an
/// rtccd engine keeps one alive for its whole life).
class ShardedPipeline {
 public:
  struct Options {
    std::size_t shards = 2;
    /// Ring slots per shard (rounded up to a power of two). Sized so a
    /// burst of chunks for one shard doesn't stall the producer, while
    /// bounding in-flight memory to O(shards * depth * kBatchSize).
    std::size_t ring_depth = 64;
    rtcc::dpi::ScanOptions scan;
    rtcc::compliance::ComplianceConfig compliance;
  };

  explicit ShardedPipeline(const Options& opts);
  ~ShardedPipeline();
  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  /// Hands a whole-flow batch (already resolved payload descriptors,
  /// decode counters already booked into `*partial` by the caller) to
  /// the shard owning `key`, chunked by kBatchSize. The shard fills
  /// `*partial` (and its own row of partial->shards) once the last
  /// chunk lands; `partial` must stay valid and untouched until the
  /// keepalive is released or finish() returns. `keepalive` must pin
  /// the payload bytes the batch views; the shard releases it after
  /// the flow is analyzed. Returns the shard index the flow was routed
  /// to. Producer thread only.
  std::size_t submit_batch(const rtcc::net::FlowKey& key,
                           const rtcc::net::PacketBatch& batch,
                           CallAnalysis* partial,
                           std::shared_ptr<const void> keepalive = {});

  /// Closes every ring, joins the workers, and rethrows the first
  /// worker exception, if any. Idempotent; called by the destructor
  /// (which swallows exceptions) if the caller didn't.
  void finish();

  [[nodiscard]] std::size_t shards() const { return workers_.size(); }

 private:
  struct WorkItem {
    std::uint64_t slot = 0;  // stream id: ties chunks together
    rtcc::net::PacketBatch batch;
    bool last = false;
    CallAnalysis* partial = nullptr;            // set on the last chunk
    std::shared_ptr<const void> keepalive;      // set on the last chunk
  };

  struct Shard;

  void worker(Shard& shard, std::size_t shard_index);

  Options opts_;
  std::vector<std::unique_ptr<Shard>> workers_;
  std::uint64_t next_slot_ = 0;
  bool finished_ = false;
};

}  // namespace rtcc::report
