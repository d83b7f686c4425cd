#include "stream/chunk_reader.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "net/pcap.hpp"

namespace rtcc::stream {

namespace {

void set_error(std::string* error, const char* msg) {
  if (error != nullptr) *error = msg;
}

/// walk_pcap's window over a ChunkSource: one buffer, compacted
/// (tail slid to the front) before each refill so it never grows past
/// max(chunk_bytes, largest record header + payload).
class RecordBuffer {
 public:
  RecordBuffer(ChunkSource& source, std::size_t chunk_bytes)
      : source_(source), chunk_bytes_(std::max<std::size_t>(1, chunk_bytes)) {}

  /// Ensures at least `need` unconsumed bytes are available, reading in
  /// chunk_bytes granules. Returns false when the source ends first.
  bool fill(std::size_t need) {
    if (avail() >= need) return true;
    compact();
    if (buf_.size() < std::max(need, chunk_bytes_))
      buf_.resize(std::max(need, chunk_bytes_));
    while (avail() < need) {
      const std::size_t room = buf_.size() - filled_;
      const std::size_t got =
          source_.read(buf_.data() + filled_, std::min(room, chunk_bytes_));
      if (got == 0) return false;
      filled_ += got;
    }
    return true;
  }

  [[nodiscard]] const std::uint8_t* head() const { return buf_.data() + pos_; }
  [[nodiscard]] std::size_t avail() const { return filled_ - pos_; }
  void consume(std::size_t n) { pos_ += n; }
  /// Current working-set footprint, reported into the live peak.
  [[nodiscard]] std::size_t footprint() const { return buf_.size(); }

 private:
  void compact() {
    if (pos_ == 0) return;
    std::memmove(buf_.data(), buf_.data() + pos_, avail());
    filled_ -= pos_;
    pos_ = 0;
  }

  ChunkSource& source_;
  std::size_t chunk_bytes_;
  std::vector<std::uint8_t> buf_;
  std::size_t filled_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace

bool stream_pcap(ChunkSource& source, StreamingAnalyzer& engine,
                 std::size_t chunk_bytes, std::string* error) {
  RecordBuffer buf(source, chunk_bytes);
  const bool ok = rtcc::net::walk_pcap(
      buf, engine.capture_stats(), error,
      [&](const rtcc::net::PcapFormat& fmt) {
        engine.set_linktype(fmt.linktype);
      },
      [&](double ts, const std::uint8_t* payload, std::uint32_t incl,
          std::uint32_t orig) {
        engine.note_external_live(buf.footprint());
        engine.push_frame({payload, incl}, ts, orig);
      });
  engine.note_external_live(0);  // the recycled buffer dies with the walk
  return ok;
}

std::optional<rtcc::report::CallAnalysis> analyze_pcap_streaming(
    const std::string& path, const rtcc::filter::FilterConfig& fcfg,
    const rtcc::report::AnalysisOptions& opts, const StreamOptions& sopts,
    std::string* error,
    std::vector<rtcc::report::CallAnalysis>* per_stream) {
  FileChunkSource source(path);
  if (!source.ok()) {
    set_error(error, "pcap: cannot open file");
    return std::nullopt;
  }
  StreamingAnalyzer engine(rtcc::net::kLinkEthernet, fcfg, opts, sopts);
  if (!stream_pcap(source, engine, sopts.chunk_bytes, error))
    return std::nullopt;
  return engine.finish(per_stream);
}

}  // namespace rtcc::stream
