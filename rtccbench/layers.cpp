// Layer-by-layer replay of the batch analysis, and the per-layer
// metric table shared by every workload.
#include <algorithm>

#include "compliance/checker.hpp"
#include "dpi/scanning_dpi.hpp"
#include "filter/pipeline.hpp"
#include "net/packet_batch.hpp"
#include "net/stream_table.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace rtccbench {

namespace report = rtcc::report;

report::AnalysisOptions measured_options() {
  report::AnalysisOptions opts;
  opts.parallel_streams = false;
  opts.shards = 1;
  return opts;
}

std::uint64_t digest(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

report::CallAnalysis replay_analysis(
    const rtcc::net::Trace& trace, const rtcc::filter::FilterConfig& fcfg,
    Tracer& tracer, std::vector<report::CallAnalysis>* per_stream) {
  report::CallAnalysis out;
  rtcc::net::StreamTable table;
  {
    Scope span(tracer, "net.group");
    table = rtcc::net::group_streams(trace);
    out.raw_bytes = trace.total_bytes();
    out.raw_udp_streams = table.udp_stream_count();
    out.raw_udp_datagrams = table.udp_datagram_count();
    out.raw_tcp_streams = table.tcp_stream_count();
    out.raw_tcp_segments = table.tcp_segment_count();
  }
  rtcc::filter::FilterReport fr;
  {
    Scope span(tracer, "filter");
    fr = rtcc::filter::run_pipeline(trace, table, fcfg);
    out.ingest = fr.ingest;
    out.stage1_udp = fr.stage1_udp;
    out.stage2_udp = fr.stage2_udp;
    out.stage1_tcp = fr.stage1_tcp;
    out.stage2_tcp = fr.stage2_tcp;
    out.rtc_udp = fr.rtc_udp;
    out.rtc_tcp = fr.rtc_tcp;
  }

  const report::AnalysisOptions opts;
  tracer.open("dpi");
  const rtcc::dpi::ScanningDpi dpi(opts.scan);
  tracer.close();
  const std::size_t bsz = rtcc::net::batch_size();
  std::vector<report::CallAnalysis> partials(fr.rtc_udp_streams.size());
  std::vector<rtcc::compliance::CheckedMessage> checked;
  for (std::size_t si = 0; si < partials.size(); ++si) {
    const auto& stream = table.streams[fr.rtc_udp_streams[si]];
    report::CallAnalysis& part = partials[si];
    const std::size_t n = stream.packets.size();
    rtcc::net::PacketBatch batch;
    batch.reserve(n);
    for (std::size_t base = 0; base < n; base += bsz) {
      Scope span(tracer, "report.decode");
      report::detail::decode_stream_chunk(trace, table, stream, base,
                                          std::min(n, base + bsz), batch, part);
    }
    std::vector<rtcc::dpi::DatagramAnalysis> analyses;
    {
      Scope span(tracer, "dpi");
      analyses = dpi.analyze_batch(batch, &part.nodes);
    }
    // The compliance node exactly as report::detail::analyze_stream_batch
    // runs it: observe all, finalize, then judge per vector.
    Scope span(tracer, "compliance");
    rtcc::compliance::StreamComplianceChecker checker(opts.compliance);
    for (std::size_t i = 0; i < analyses.size(); ++i) {
      part.dpi_candidates += analyses[i].candidates;
      for (const auto& msg : analyses[i].messages) {
        checker.observe(msg, batch.dir[i], batch.ts[i]);
        ++part.nodes.compliance.suspended;
      }
    }
    checker.finalize();
    for (std::size_t base = 0; base < analyses.size(); base += bsz) {
      const std::size_t end = std::min(analyses.size(), base + bsz);
      ++part.nodes.compliance.vectors;
      part.nodes.compliance.packets += end - base;
      for (std::size_t i = base; i < end; ++i) {
        const auto& anal = analyses[i];
        switch (anal.klass) {
          case rtcc::dpi::DatagramClass::kStandard:
            ++part.dgram_standard;
            break;
          case rtcc::dpi::DatagramClass::kProprietaryHeader:
            ++part.dgram_prop_header;
            break;
          case rtcc::dpi::DatagramClass::kFullyProprietary:
            ++part.dgram_fully_prop;
            break;
        }
        for (const auto& msg : anal.messages) {
          ++part.dpi_messages;
          checked.clear();
          checker.check_into(msg, batch.dir[i], batch.ts[i], checked);
          for (const auto& cm : checked) {
            auto& pstats = part.protocols[cm.protocol];
            ++pstats.messages;
            auto& tstats = pstats.types[cm.type_label];
            ++tstats.total;
            if (cm.verdict.compliant) {
              ++pstats.compliant;
              ++tstats.compliant;
            } else if (const auto* v = cm.verdict.first()) {
              ++tstats.criterion_failures[rtcc::compliance::to_string(
                  v->criterion)];
            }
          }
        }
      }
    }
  }
  {
    Scope span(tracer, "report.merge");
    for (const auto& part : partials) report::merge(out, part);
  }
  if (per_stream != nullptr) *per_stream = std::move(partials);
  return out;
}

void count_analysis(LayerReport& rep, const report::CallAnalysis& a) {
  rep.loss_events += static_cast<double>(a.ingest.loss_events());
  rep.streams_in += static_cast<double>(a.raw_udp_streams + a.raw_tcp_streams);
  rep.streams_kept += static_cast<double>(a.rtc_udp.streams + a.rtc_tcp.streams);
  rep.datagrams += static_cast<double>(a.nodes.demux.packets);
  rep.candidates += static_cast<double>(a.dpi_candidates);
  rep.messages += static_cast<double>(a.dpi_messages);
  rep.staged += static_cast<double>(a.nodes.prefilter.suspended);
  rep.checked += static_cast<double>(a.total_messages());
}

void summarize_spans(const Tracer& tracer, int passes, LayerReport& rep) {
  std::map<std::string, std::vector<double>> per_name;
  double coverage = 1.0;
  for (int p = 0; p < passes; ++p) {
    const auto self = self_times(tracer.spans(), p);
    for (const auto& [name, s] : self) per_name[name].push_back(s);
    for (const auto& span : tracer.spans()) {
      if (span.pass != p || span.parent >= 0) continue;
      const double wall = span.end - span.start;
      const auto it = self.find("bench.pass");
      if (wall > 0.0 && it != self.end())
        coverage = std::min(coverage, 1.0 - it->second / wall);
    }
  }
  for (auto& [name, samples] : per_name) rep.self_s[name] = median(samples);
  rep.span_coverage = coverage;
}

std::vector<Metric> layer_metrics(const LayerReport& rep) {
  const auto self = [&](const char* name) {
    const auto it = rep.self_s.find(name);
    return it == rep.self_s.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  return {
      {"emul.busy_s", self("emul"), "s"},
      {"net.read_s", self("net.read"), "s"},
      {"net.group_s", self("net.group"), "s"},
      {"net.frames", rep.frames, "count"},
      {"net.loss_events", rep.loss_events, "count"},
      {"filter.busy_s", self("filter"), "s"},
      {"filter.streams_in", rep.streams_in, "count"},
      {"filter.kept_ratio", ratio(rep.streams_kept, rep.streams_in), "ratio"},
      {"report.decode_s", self("report.decode"), "s"},
      {"report.merge_s", self("report.merge"), "s"},
      {"report.emit_s", self("report.emit"), "s"},
      {"dpi.busy_s", self("dpi"), "s"},
      {"dpi.datagrams", rep.datagrams, "count"},
      {"dpi.candidates", rep.candidates, "count"},
      {"dpi.messages", rep.messages, "count"},
      {"dpi.hit_ratio", ratio(rep.messages, rep.candidates), "ratio"},
      {"dpi.prefilter_staged", rep.staged, "count"},
      {"compliance.busy_s", self("compliance"), "s"},
      {"compliance.messages", rep.checked, "count"},
      {"report.cpu_overhead", rep.cpu_overhead, "ratio"},
      {"report.speedup", rep.speedup, "ratio"},
      {"stream.push_s", self("stream.push"), "s"},
      {"stream.emit_s", self("stream.emit"), "s"},
      {"stream.finish_s", self("stream.finish"), "s"},
      {"stream.flows_seen", rep.flows_seen, "count"},
      {"stream.evictions", rep.evictions, "count"},
      {"stream.live_peak_mb", rep.live_peak_mb, "MB"},
      {"service.write_s", self("service.write"), "s"},
      {"service.verdicts", rep.verdicts, "count"},
      {"service.amendments", rep.amendments, "count"},
      {"service.p50_ms", rep.p50_ms, "ms"},
      {"service.p99_ms", rep.p99_ms, "ms"},
      {"service.max_rate_fps", rep.max_rate_fps, "1/s"},
      {"bench.gen_late_ms", rep.gen_late_ms, "ms"},
      {"bench.trace_overhead", rep.trace_overhead, "ratio"},
      {"bench.span_coverage", rep.span_coverage, "ratio"},
  };
}

}  // namespace rtccbench
