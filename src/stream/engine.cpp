#include "stream/engine.hpp"

#include <algorithm>
#include <utility>

#include "util/thread_pool.hpp"

namespace rtcc::stream {

using rtcc::net::Direction;
using rtcc::report::CallAnalysis;

namespace {

/// The retained records as the filter's flow set, read in place.
std::vector<const rtcc::filter::FlowSummary*> flow_set(
    const std::deque<FlowRecord>& records) {
  std::vector<const rtcc::filter::FlowSummary*> flows;
  flows.reserve(records.size());
  for (const FlowRecord& rec : records) flows.push_back(&rec);
  return flows;
}

/// The batch path's per-stream core over one flow's buffered payloads:
/// the whole-flow batch in arrival order (exactly the batch
/// analyze_trace's per-stream chunk loop builds), with the decode-node
/// counters booked as that loop books them. Touches only `payload` and
/// `part`, so flows can be analyzed concurrently.
void analyze_payload(const rtcc::dpi::ScanningDpi& dpi,
                     const rtcc::compliance::ComplianceConfig& ccfg,
                     const FlowPayload& payload, CallAnalysis& part) {
  rtcc::net::PacketBatch batch;
  const std::size_t n = payload.packets.size();
  batch.reserve(n);
  std::size_t off = 0;
  for (const FlowPacket& fp : payload.packets) {
    batch.push({payload.bytes.data() + off, fp.len}, fp.ts, fp.dir);
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
  rtcc::report::detail::analyze_stream_batch(dpi, ccfg, batch, part);
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
      dpi_(opts.scan) {}

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
  return live_flow_bytes_ + external_live_;
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

void StreamingAnalyzer::release_payload(FlowRecord& rec) {
  if (rec.payload) {
    live_flow_bytes_ -= rec.payload->footprint();
    rec.payload.reset();
  }
}

void StreamingAnalyzer::condemn(FlowRecord& rec) {
  rec.condemned = true;
  release_payload(rec);
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
      rec.payload = std::make_unique<FlowPayload>();
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
  // analyzed *now*, inline and speculatively: whether it is kept is
  // only known at finish(), which discards the partial if the flow ends
  // up filtered.
  if (rec.udp() && !rec.condemned && rec.payload &&
      !rec.payload->packets.empty()) {
    start_analysis(rec);
    analyze_payload(dpi_, opts_.compliance, *rec.payload, *rec.partial);
  }
  release_payload(rec);
}

void StreamingAnalyzer::start_analysis(FlowRecord& rec) {
  rec.partial = std::make_unique<CallAnalysis>();
  ++table_.stats().finalized;
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
    const bool first = !st.emitted;
    if (first) {
      // Provisional verdicts cover only retired flows (frozen span,
      // frozen metadata, analysis done); live ones wait for a later
      // epoch.
      if (!final_pass && !rec.retired) continue;
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
        rec.partial != nullptr)
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

  // ---- Finalize kept flows not already analyzed at eviction. Flows
  // are independent, so they fan out over the shared pool exactly as
  // analyze_trace dispatches streams; each task touches only its own
  // record, and the merge below runs in stream-table order. ----
  std::vector<FlowRecord*> pending;
  for (std::size_t i : kept_udp) {
    FlowRecord& rec = records[i];
    if (rec.partial) continue;  // speculatively analyzed at eviction
    live_flow_bytes_ -= rec.payload->footprint();
    start_analysis(rec);
    pending.push_back(&rec);
  }
  const auto analyze_one = [&](std::size_t k) {
    FlowRecord& rec = *pending[k];
    analyze_payload(dpi_, opts_.compliance, *rec.payload, *rec.partial);
    rec.payload.reset();
  };
  if (opts_.parallel_streams && pending.size() > 1) {
    rtcc::util::ThreadPool::shared().parallel_for(pending.size(), analyze_one);
  } else {
    for (std::size_t k = 0; k < pending.size(); ++k) analyze_one(k);
  }

  // ---- Final epoch: every flow is retired and analyzed, the evidence
  // is complete — emit first-time verdicts for everything unemitted
  // and amendments for any provisional verdict the complete evidence
  // overturned. Runs before the partials move out below so kept
  // verdicts can still point at their analyses. ----
  emit_epoch(/*final_pass=*/true, &filtered.dispositions);

  // ---- Merge in stream-table order (merge() is order-insensitive,
  // pinned by the merge-order oracle, so this matches the batch path's
  // stream-order merge byte for byte) ----
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
