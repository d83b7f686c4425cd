#include "filter/pipeline.hpp"

#include <algorithm>

namespace rtcc::filter {

using rtcc::net::Stream;
using rtcc::net::StreamTable;
using rtcc::net::Trace;

FilterReport run_pipeline(const Trace& trace, const StreamTable& table,
                          const FilterConfig& cfg) {
  const std::size_t n = table.streams.size();
  std::vector<FlowSummary> summaries(n);
  std::vector<const FlowSummary*> flows(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Stream& s = table.streams[i];
    FlowSummary& f = summaries[i];
    f.key = s.key;
    f.first_ts = s.first_ts;
    f.last_ts = s.last_ts;
    f.packet_count = s.packets.size();
    // The table resolves payloads of packets reassembled from IPv4
    // fragments.
    const std::size_t probe = std::min(s.packets.size(), kSniProbeWindow);
    for (std::size_t j = 0; j < probe; ++j)
      probe_sni(f, j, rtcc::net::packet_payload(trace, table, s.packets[j]));
    flows[i] = &f;
  }
  FilterReport report = tally(flows, classify(flows, cfg));
  report.ingest = table.ingest;
  return report;
}

std::vector<std::size_t> kept_frame_indices(const StreamTable& table,
                                            const FilterReport& report) {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < table.streams.size(); ++i) {
    if (report.dispositions[i] != Disposition::kKept) continue;
    for (const auto& pkt : table.streams[i].packets)
      indices.push_back(pkt.frame_index);
  }
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  return indices;
}

}  // namespace rtcc::filter
