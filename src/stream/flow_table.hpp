// Bounded flow table for the streaming engine (DESIGN.md §6c).
//
// The streaming inversion keeps memory proportional to *active* flows,
// not capture size, so the table is the engine's working-set boundary:
// every datagram touches exactly one FlowRecord, records sit on an
// intrusive LRU list in touch order, and two budgets retire flows
// before end-of-capture — an idle timeout (trace-clock seconds since
// the last touch) and an LRU capacity cap. Retiring a flow hands it to
// the engine's eviction callback, which finalizes it (runs the batch
// analysis core over its buffered payloads) and releases the heavy
// state; the lightweight filter::FlowSummary each record carries (key,
// span, packet count, SNI) is retained for the whole capture because
// the two-stage filter's dispositions need cross-flow evidence that is
// only complete at finish() — filter::classify reads the records in
// place.
//
// A packet arriving for an already-retired key re-opens the flow as a
// *new* record (a split): the ledger counts it in flows_rekeyed, and
// the parity oracle downgrades from byte-identity to conservation
// identities when any split occurred. With the default unbounded
// budgets no split is possible and streaming == batch exactly.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "filter/pipeline.hpp"
#include "report/metrics.hpp"

namespace rtcc::stream {

/// Why a flow left the live set.
enum class EvictReason : std::uint8_t {
  kIdle,   // idle_timeout_s elapsed since the flow's last touch
  kLru,    // capacity pressure: least-recently-touched beyond max_flows
  kDrain,  // end of capture
};

/// One buffered datagram's metadata; payload bytes are concatenated in
/// the owning FlowPayload in arrival order, so offsets are running sums
/// of `len`.
struct FlowPacket {
  double ts = 0.0;
  std::uint32_t len = 0;
  std::uint8_t dir = 0;  // 0 = A->B, 1 = B->A (PacketBatch convention)
  bool reasm = false;    // payload came from IPv4 reassembly
};

/// Heavy per-flow state: the payload copies the batch analysis core
/// needs at finalization (DPI's cover walk re-parses raw bytes, so they
/// must survive until the flow is analyzed).
struct FlowPayload {
  std::vector<std::uint8_t> bytes;  // concatenated datagram payloads
  std::vector<FlowPacket> packets;

  [[nodiscard]] std::uint64_t footprint() const {
    return bytes.size() + packets.size() * sizeof(FlowPacket);
  }
};

/// A flow's filter summary (key, span, packet count, SNI — what the
/// §3.2 rules read, kept current per packet by the engine) plus its
/// live state. The engine classifies retained records in place.
struct FlowRecord : rtcc::filter::FlowSummary {
  static constexpr std::size_t kNil = ~std::size_t{0};

  std::uint64_t ordinal = 0;  // creation order == stream-table order
  double last_active = 0.0;   // monotonic clock at last touch (idle expiry)
  bool condemned = false;  // online keep/drop verdict: can never be kept
  bool retired = false;    // left the live set (evicted or drained)
  std::unique_ptr<FlowPayload> payload;  // null once condemned/finalized
  std::unique_ptr<rtcc::report::CallAnalysis> partial;  // after analysis

  // Intrusive LRU links: indices into FlowTable's record deque.
  std::size_t lru_prev = kNil;
  std::size_t lru_next = kNil;

  [[nodiscard]] bool udp() const {
    return key.transport == rtcc::net::Transport::kUdp;
  }
};

/// Live-flow index + retained record log. Records never move (deque)
/// and are never discarded — ordinal order is the stream-table order
/// the batch path would have produced, which the engine's finish()
/// replays for classification, the Table 1 tally and partial merging.
class FlowTable {
 public:
  struct Budgets {
    std::size_t max_flows = 0;   // 0 = unbounded
    double idle_timeout_s = 0.0; // 0 = never
  };

  /// Eviction callback: finalize the record (the record is already
  /// marked retired and unlinked when called).
  using EvictFn = std::function<void(FlowRecord&, EvictReason)>;

  explicit FlowTable(const Budgets& budgets) : budgets_(budgets) {}

  struct Touched {
    FlowRecord& rec;
    bool created = false;  // includes re-keyed re-creations
  };

  /// Looks up the live record for `key`, creating one if the key is
  /// unknown — or known but retired, which is a split: the old record
  /// stays frozen in the log, a fresh record takes over the key, and
  /// flows_rekeyed is incremented. `clock` stamps last_active; the
  /// table keeps its own monotonic high-water clock, so a backwards
  /// capture timestamp (reordered pcap, clock step on the capture
  /// host) can never reorder the LRU list relative to last_active or
  /// manufacture a huge idle delta — it is clamped to the high-water
  /// mark instead.
  Touched touch(const rtcc::net::FlowKey& key, double clock);

  /// Retires every live flow whose last touch is older than
  /// `idle_timeout_s` before `clock` (clamped to the high-water clock,
  /// like touch). No-op when the budget is 0.
  void expire_idle(double clock, const EvictFn& fn);

  /// Monotonic high-water mark over every clock passed to touch() /
  /// expire_idle(); -inf before the first call.
  [[nodiscard]] double high_water_clock() const { return max_clock_; }

  /// Retires least-recently-touched flows until at most `max_flows`
  /// remain live. No-op when the budget is 0.
  void enforce_capacity(const EvictFn& fn);

  /// Retires every remaining live flow (end of capture, oldest first).
  void drain(const EvictFn& fn);

  [[nodiscard]] std::size_t live_count() const { return live_count_; }
  [[nodiscard]] const std::deque<FlowRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::deque<FlowRecord>& records() { return records_; }
  [[nodiscard]] const rtcc::report::FlowStats& stats() const { return stats_; }
  [[nodiscard]] rtcc::report::FlowStats& stats() { return stats_; }
  [[nodiscard]] const Budgets& budgets() const { return budgets_; }

 private:
  void unlink(std::size_t i);
  void link_back(std::size_t i);
  void retire(std::size_t i, EvictReason reason, const EvictFn& fn);

  Budgets budgets_;
  std::deque<FlowRecord> records_;
  std::unordered_map<rtcc::net::FlowKey, std::size_t, rtcc::net::FlowKeyHash>
      index_;
  std::size_t lru_head_ = FlowRecord::kNil;
  std::size_t lru_tail_ = FlowRecord::kNil;
  std::size_t live_count_ = 0;
  double max_clock_ = -std::numeric_limits<double>::infinity();
  rtcc::report::FlowStats stats_;
};

}  // namespace rtcc::stream
