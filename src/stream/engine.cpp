#include "stream/engine.hpp"

#include <algorithm>
#include <utility>

#include "report/shard.hpp"

namespace rtcc::stream {

using rtcc::net::Direction;
using rtcc::report::CallAnalysis;

namespace {

/// Shard workers this engine runs: the per-call override, else the
/// global RTCC_SHARDS knob; forced to 1 when parallelism is off
/// entirely.
std::size_t effective_shards(const rtcc::report::AnalysisOptions& opts) {
  if (!opts.parallel_streams) return 1;
  return opts.shards != 0 ? opts.shards : rtcc::report::shard_count();
}

/// The retained records as the filter's flow set, read in place.
std::vector<const rtcc::filter::FlowSummary*> flow_set(
    const std::deque<FlowRecord>& records) {
  std::vector<const rtcc::filter::FlowSummary*> flows;
  flows.reserve(records.size());
  for (const FlowRecord& rec : records) flows.push_back(&rec);
  return flows;
}

}  // namespace

StreamingAnalyzer::StreamingAnalyzer(std::uint32_t linktype,
                                     const rtcc::filter::FilterConfig& fcfg,
                                     const rtcc::report::AnalysisOptions& opts,
                                     const StreamOptions& sopts)
    : fcfg_(fcfg),
      opts_(opts),
      sopts_(sopts),
      table_({sopts.max_flows, sopts.idle_timeout_s}),
      linktype_(linktype),
      decoder_(linktype),
      dpi_(opts.scan),
      in_flight_(std::make_shared<std::atomic<std::uint64_t>>(0)),
      nshards_(effective_shards(opts)) {}

StreamingAnalyzer::~StreamingAnalyzer() = default;

void StreamingAnalyzer::set_linktype(std::uint32_t linktype) {
  if (linktype == linktype_) return;  // keep decoder state across captures
  // A genuine linktype switch needs a fresh decoder; bank its ledger
  // first so finish()'s ingest totals still cover every capture.
  capture_.merge(decoder_.stats());
  linktype_ = linktype;
  decoder_ = rtcc::net::FrameDecoder(linktype);
}

rtcc::net::IngestStats StreamingAnalyzer::ingest_totals() const {
  rtcc::net::IngestStats totals = capture_;
  totals.merge(decoder_.stats());
  return totals;
}

std::uint64_t StreamingAnalyzer::live_bytes() const {
  return live_flow_bytes_ + in_flight_->load(std::memory_order_relaxed) +
         external_live_;
}

void StreamingAnalyzer::note_external_live(std::uint64_t bytes) {
  external_live_ = bytes;
  update_peak();
}

void StreamingAnalyzer::update_peak() {
  const std::uint64_t live = live_bytes();
  if (live > table_.stats().live_peak_bytes)
    table_.stats().live_peak_bytes = live;
}

void StreamingAnalyzer::condemn(FlowRecord& rec) {
  rec.condemned = true;
  if (rec.payload) {
    live_flow_bytes_ -= rec.payload->footprint();
    rec.payload.reset();
  }
}

void StreamingAnalyzer::push_frame(rtcc::util::BytesView wire, double ts,
                                   std::uint32_t orig_len) {
  raw_bytes_ += wire.size();
  clock_ = std::max(clock_, ts);
  // Epoch boundary: epochs partition the *arrival sequence* at
  // high-water clock crossings, so every pushed frame lands in exactly
  // one epoch (frame conservation holds even with non-monotonic
  // timestamps). The boundary fires before this frame touches the
  // table — the closing window covers strictly earlier arrivals.
  if (!epoch_open_) {
    epoch_open_ = true;
    epoch_anchor_ = clock_;
  } else if (epoch_s_ > 0 && clock_ >= epoch_anchor_ + epoch_s_) {
    emit_epoch(/*final_pass=*/false, nullptr);
    epoch_anchor_ = clock_;
  }
  ++epoch_frames_;
  epoch_bytes_ += wire.size();
  const bool clipped = orig_len > wire.size();
  auto decoded = decoder_.decode(wire, ts, clipped);
  if (!decoded) return;

  // Retire idle flows *before* the new packet claims its own — the
  // packet's flow must not be expired by the very frame that extends it.
  const auto evict_fn = [this](FlowRecord& r, EvictReason reason) {
    on_evict(r, reason);
  };
  table_.expire_idle(clock_, evict_fn);

  auto [key, dir] = rtcc::net::canonical_flow(*decoded);
  auto touched = table_.touch(key, clock_);
  FlowRecord& rec = touched.rec;
  if (touched.created) {
    rec.first_ts = ts;
    rec.last_ts = ts;
    // The excluded-port rule is static on the key: such a flow can
    // never be kept, so its payloads never buffer.
    rec.condemned = rtcc::filter::port_excluded(key, fcfg_);
    if (!rec.condemned && rec.udp())
      rec.payload = std::make_shared<FlowPayload>();
  } else {
    rec.first_ts = std::min(rec.first_ts, ts);
    rec.last_ts = std::max(rec.last_ts, ts);
  }
  // Every flow feeds the SNI probe, condemned or not: the final
  // disposition names the first rule that matches, and SNI outranks
  // the port rule.
  ++rec.packet_count;
  rtcc::filter::probe_sni(rec, rec.packet_count - 1, decoded->payload);

  // Stage 1 enclosure is monotone in the packet span: one timestamp
  // outside the expanded window condemns the flow for good.
  if (!rec.condemned &&
      !rtcc::filter::enclosed_in_window(rec, fcfg_.schedule))
    condemn(rec);

  if (!rec.condemned && rec.udp()) {
    FlowPayload& p = *rec.payload;
    p.bytes.insert(p.bytes.end(), decoded->payload.begin(),
                   decoded->payload.end());
    FlowPacket fp;
    fp.ts = ts;
    fp.len = static_cast<std::uint32_t>(decoded->payload.size());
    fp.dir = dir == Direction::kAtoB ? 0 : 1;
    fp.reasm = decoded->reassembled;
    p.packets.push_back(fp);
    live_flow_bytes_ += decoded->payload.size() + sizeof(FlowPacket);
  }

  table_.enforce_capacity(evict_fn);
  update_peak();
}

void StreamingAnalyzer::on_evict(FlowRecord& rec, EvictReason reason) {
  if (reason == EvictReason::kDrain) return;  // finish() analyzes kept flows
  // Mid-capture eviction drops the payload bytes, so the flow must be
  // analyzed *now*, speculatively: whether it is kept is only known at
  // finish(), which discards the partial if the flow ends up filtered.
  if (rec.udp() && !rec.condemned && rec.payload &&
      !rec.payload->packets.empty()) {
    auto payload = std::move(rec.payload);
    live_flow_bytes_ -= payload->footprint();
    analyze_record(rec, std::move(payload));
  } else if (rec.payload) {
    live_flow_bytes_ -= rec.payload->footprint();
    rec.payload.reset();
  }
}

void StreamingAnalyzer::analyze_record(FlowRecord& rec,
                                       std::shared_ptr<FlowPayload> payload) {
  rec.partial = std::make_unique<CallAnalysis>();
  CallAnalysis& part = *rec.partial;
  ++table_.stats().finalized;

  // Whole-flow batch over the buffered payloads, in arrival order —
  // exactly the batch the batch path's per-stream chunk loop builds.
  rtcc::net::PacketBatch batch;
  const std::size_t n = payload->packets.size();
  batch.reserve(n);
  std::size_t off = 0;
  for (const FlowPacket& fp : payload->packets) {
    batch.push({payload->bytes.data() + off, fp.len}, fp.ts, fp.dir);
    off += fp.len;
    if (fp.reasm) ++part.nodes.decode.suspended;
  }
  // Decode-node accounting replays decode_stream_chunk's bsz chunking,
  // so node counters stay consistent with the batch path.
  constexpr std::size_t bsz = rtcc::net::kBatchSize;
  for (std::size_t base = 0; base < n; base += bsz) {
    ++part.nodes.decode.vectors;
    part.nodes.decode.packets += std::min(n, base + bsz) - base;
  }

  if (nshards_ > 1) {
    if (!pipe_) {
      rtcc::report::ShardedPipeline::Options popts;
      popts.shards = nshards_;
      popts.scan = opts_.scan;
      popts.compliance = opts_.compliance;
      pipe_ = std::make_unique<rtcc::report::ShardedPipeline>(popts);
    }
    // The keepalive pins the flow's payload buffer until the shard
    // worker analyzed it; its deleter keeps the in-flight bytes in the
    // live peak until then, and publishes the partial as readable —
    // the worker stores *part before releasing the keepalive, so the
    // release/acquire pair orders the epoch emitter after the write.
    const std::uint64_t sz = payload->footprint();
    in_flight_->fetch_add(sz, std::memory_order_relaxed);
    rec.analysis_ready = std::make_shared<std::atomic<bool>>(false);
    auto counter = in_flight_;
    auto ready = rec.analysis_ready;
    std::shared_ptr<const void> keep(
        payload.get(), [payload, counter, sz, ready](const void*) mutable {
          counter->fetch_sub(sz, std::memory_order_relaxed);
          payload.reset();
          ready->store(true, std::memory_order_release);
        });
    pipe_->submit_batch(rec.key, batch, &part, std::move(keep));
  } else {
    report::detail::analyze_stream_batch(dpi_, opts_.compliance, batch, part);
  }
}

void StreamingAnalyzer::set_epoch(double epoch_s, EpochSink sink) {
  epoch_s_ = epoch_s;
  sink_ = std::move(sink);
}

void StreamingAnalyzer::finish_epoch() {
  if (!sink_) return;
  emit_epoch(/*final_pass=*/false, nullptr);
  epoch_anchor_ = clock_;
}

void StreamingAnalyzer::emit_epoch(
    bool final_pass, const std::vector<rtcc::filter::Disposition>* precomputed) {
  EpochReport ep;
  ep.epoch = epoch_index_++;
  ep.clock_end = clock_;
  ep.frames = epoch_frames_;
  ep.bytes = epoch_bytes_;
  ep.final_pass = final_pass;
  epoch_frames_ = 0;
  epoch_bytes_ = 0;
  if (!sink_) return;  // window counters still reset: epochs stay disjoint

  std::vector<rtcc::filter::Disposition> local;
  if (precomputed == nullptr) {
    local = rtcc::filter::classify(flow_set(table_.records()), fcfg_);
    precomputed = &local;
  }
  const auto& disp = *precomputed;
  const auto& records = table_.records();
  emitted_.resize(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const FlowRecord& rec = records[i];
    EmitState& st = emitted_[i];
    const bool ready =
        !rec.analysis_ready ||
        rec.analysis_ready->load(std::memory_order_acquire);
    const bool first = !st.emitted;
    if (first) {
      if (!final_pass) {
        // Provisional verdicts cover only retired flows (frozen span,
        // frozen metadata) whose speculative analysis — if any — has
        // drained out of the shard workers; anything else waits for a
        // later epoch.
        if (!rec.retired) continue;
        if (rec.partial != nullptr && !ready) continue;
      }
    } else if (st.disposition == disp[i]) {
      continue;  // verdict stands — emitted ordinals never repeat
    }
    st.emitted = true;
    st.disposition = disp[i];
    FlowVerdict v;
    v.ordinal = rec.ordinal;
    v.key = rec.key;
    v.first_ts = rec.first_ts;
    v.last_ts = rec.last_ts;
    v.packets = rec.packet_count;
    v.disposition = disp[i];
    v.final_pass = final_pass;
    v.amends = !first;
    if (disp[i] == rtcc::filter::Disposition::kKept && rec.udp() &&
        rec.partial != nullptr && ready)
      v.partial = rec.partial.get();
    ep.verdicts.push_back(std::move(v));
  }
  ep.flows = table_.stats();
  sink_(ep);
}

CallAnalysis StreamingAnalyzer::finish(std::vector<CallAnalysis>* per_stream) {
  finished_ = true;
  decoder_.finish();
  // Drain keeps payloads in place: dispositions are computed first so
  // end-of-capture flows are only analyzed when actually kept — the
  // same work the batch path does, in the same per-stream order.
  table_.drain([this](FlowRecord& r, EvictReason reason) {
    on_evict(r, reason);
  });

  // ---- Classification and the Table 1 tally, in stream-table order ----
  auto& records = table_.records();
  const auto flows = flow_set(records);
  const auto filtered =
      rtcc::filter::tally(flows, rtcc::filter::classify(flows, fcfg_));
  const auto& kept_udp = filtered.rtc_udp_streams;

  CallAnalysis out;
  out.raw_bytes = raw_bytes_;
  out.ingest = ingest_totals();
  rtcc::report::detail::book_filter_report(filtered, out);

  // ---- Finalize kept flows not already analyzed at eviction ----
  for (std::size_t i : kept_udp) {
    FlowRecord& rec = records[i];
    if (rec.partial) continue;  // speculatively analyzed at eviction
    auto payload = std::move(rec.payload);
    live_flow_bytes_ -= payload->footprint();
    analyze_record(rec, std::move(payload));
  }
  if (pipe_) pipe_->finish();

  // ---- Final epoch: every shard has drained, every flow is retired,
  // the evidence is complete — emit first-time verdicts for everything
  // unemitted and amendments for any provisional verdict the complete
  // evidence overturned. Runs before the partials move out below so
  // kept verdicts can still point at their analyses. ----
  emit_epoch(/*final_pass=*/true, &filtered.dispositions);

  // ---- Merge in stream-table order (merge() is order-insensitive,
  // pinned by the merge-order oracle, so this matches the batch path's
  // stream- and shard-order merges byte for byte) ----
  std::vector<CallAnalysis> partials;
  partials.reserve(kept_udp.size());
  for (std::size_t i : kept_udp) {
    rtcc::report::merge(out, *records[i].partial);
    partials.push_back(std::move(*records[i].partial));
    records[i].partial.reset();
  }
  out.flows = table_.stats();
  if (per_stream != nullptr) *per_stream = std::move(partials);
  return out;
}

CallAnalysis analyze_trace_streaming(const rtcc::net::Trace& trace,
                                     const rtcc::filter::FilterConfig& fcfg,
                                     const rtcc::report::AnalysisOptions& opts,
                                     const StreamOptions& sopts,
                                     std::vector<CallAnalysis>* per_stream) {
  StreamingAnalyzer engine(trace.linktype(), fcfg, opts, sopts);
  engine.capture_stats() = trace.ingest();
  for (const auto& frame : trace.frames())
    engine.push_frame(trace.bytes(frame), frame.ts, frame.orig_len);
  return engine.finish(per_stream);
}

}  // namespace rtcc::stream
