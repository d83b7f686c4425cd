// Chunked pcap reader: feeds the streaming engine without ever
// materializing the full capture (DESIGN.md §6c).
//
// Where net::read_pcap mmaps (or slurps) the whole file and registers
// zero-copy frame views, this reader keeps exactly one recycled buffer:
// it pulls `chunk_bytes` at a time from a ChunkSource, parses every
// fully-contained record, pushes the frame into the engine, and slides
// the straddling tail to the buffer front before the next read. Peak
// reader memory is max(chunk_bytes, largest record) regardless of
// capture size; the buffer's footprint is reported to the engine so
// FlowStats::live_peak_bytes covers the whole streaming path.
//
// The record walk itself is net::walk_pcap, the one the whole-file
// reader runs, given this reader's buffer as its byte window: the same
// magics, fail-soft accounting and hard errors apply to both paths by
// construction. A record whose length claims more bytes than the
// source delivers counts one torn_tail and stops, as it does in the
// whole-file walk.
//
// ChunkSource is the live-reader seam: the file and in-memory sources
// here cover offline captures and tests; a socket/ring-buffer source
// can feed the same engine without touching the parser.
#pragma once

#include <cstdio>
#include <optional>
#include <string>

#include "stream/engine.hpp"

namespace rtcc::stream {

/// Pull-based byte source. read() fills up to `max` bytes and returns
/// the count; 0 means end of stream. Short reads are allowed anywhere
/// (the parser buffers until a record completes), so sources can hand
/// out bytes at whatever granularity they naturally produce.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;
  virtual std::size_t read(std::uint8_t* dst, std::size_t max) = 0;
};

/// Sequential stdio reader — never maps or slurps the file.
class FileChunkSource final : public ChunkSource {
 public:
  explicit FileChunkSource(const std::string& path)
      : fp_(std::fopen(path.c_str(), "rb")) {}
  ~FileChunkSource() override {
    if (fp_ != nullptr) std::fclose(fp_);
  }
  FileChunkSource(const FileChunkSource&) = delete;
  FileChunkSource& operator=(const FileChunkSource&) = delete;

  [[nodiscard]] bool ok() const { return fp_ != nullptr; }

  std::size_t read(std::uint8_t* dst, std::size_t max) override {
    return fp_ == nullptr ? 0 : std::fread(dst, 1, max, fp_);
  }

 private:
  std::FILE* fp_;
};

/// Borrowed-buffer source for tests and oracles; `data` must outlive
/// the source. Sweeping tiny chunk sizes over it exercises every
/// carry-over path (reads split mid record-header, mid payload).
class MemoryChunkSource final : public ChunkSource {
 public:
  explicit MemoryChunkSource(rtcc::util::BytesView data) : data_(data) {}

  std::size_t read(std::uint8_t* dst, std::size_t max) override {
    const std::size_t n = std::min(max, data_.size() - pos_);
    std::copy_n(data_.data() + pos_, n, dst);
    pos_ += n;
    return n;
  }

 private:
  rtcc::util::BytesView data_;
  std::size_t pos_ = 0;
};

/// Walks `source` as a pcap byte stream and pushes every record into
/// `engine` (set_linktype + capture_stats + push_frame). Returns false
/// only for hard errors (short global header, unknown magic) with
/// `*error` set; record-level defects are fail-soft and counted in
/// engine.capture_stats(). `chunk_bytes` is the read granularity
/// (clamped to >= 1); the working buffer grows past it only when a
/// single record is larger.
bool stream_pcap(ChunkSource& source, StreamingAnalyzer& engine,
                 std::size_t chunk_bytes, std::string* error = nullptr);

/// Whole streaming pipeline over a pcap file: chunked reader -> flow
/// table -> per-flow batch core. The counterpart of
/// read_pcap + analyze_trace with O(active flows) memory; per_stream
/// mirrors analyze_trace's out-param.
[[nodiscard]] std::optional<rtcc::report::CallAnalysis>
analyze_pcap_streaming(
    const std::string& path, const rtcc::filter::FilterConfig& fcfg,
    const rtcc::report::AnalysisOptions& opts = {},
    const StreamOptions& sopts = stream_options_from_env(),
    std::string* error = nullptr,
    std::vector<rtcc::report::CallAnalysis>* per_stream = nullptr);

}  // namespace rtcc::stream
