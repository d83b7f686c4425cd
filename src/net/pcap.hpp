// Classic libpcap (.pcap) file reader/writer, and the only code that
// knows the capture format.
//
// Reading accepts what real captures contain: microsecond magic
// (0xA1B2C3D4) and Wireshark's nanosecond magic (0xA1B23C4D), both byte
// orders, and any linktype — records are walked regardless and the
// linktype is stored on the Trace for per-frame L2 dispatch at decode
// time (see net/headers.hpp). The walk is fail-soft: a torn tail record
// (kill-9 mid-capture) ends the walk and is counted, a sub-second field
// >= its unit is clamped and counted, and incl_len < orig_len marks the
// frame snaplen-clipped — all in Trace::ingest() (net/ingest.hpp).
// Hard errors remain only for files that cannot be a capture at all
// (shorter than the global header, unknown magic). Files are written in
// native little-endian microsecond order like tcpdump does, preserving
// the trace's linktype and each frame's orig_len.
//
// One record walk (walk_pcap) serves two byte windows: a whole-buffer
// window for read_pcap and the decode_pcap* functions, and the
// chunked reader's recycled buffer (stream/chunk_reader.cpp), so both
// ingest paths apply the same rules to the same bytes.
//
// Reading is zero-copy: read_pcap mmaps the file (read() into a single
// whole-file buffer as fallback, e.g. for pipes), adopts the buffer
// into the trace's FrameArena, and registers each frame as an
// {offset, len} view over the file bytes — no per-packet allocation or
// copy.
#pragma once

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/arena.hpp"
#include "net/headers.hpp"

namespace rtcc::net {

/// An ordered capture: what one Wireshark session on one device saw.
/// Frames are appended through add_frame (never by mutating a frames()
/// element), which keeps the byte total cached and stores the bytes in
/// the trace's arena.
class Trace {
 public:
  Trace() = default;

  Trace(Trace&&) noexcept = default;
  Trace& operator=(Trace&&) noexcept = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  [[nodiscard]] const std::vector<Frame>& frames() const { return frames_; }
  [[nodiscard]] std::size_t size() const { return frames_.size(); }
  [[nodiscard]] bool empty() const { return frames_.empty(); }
  /// Sum of all frame sizes — cached on append, O(1).
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  [[nodiscard]] const FrameArena& arena() const { return arena_; }
  [[nodiscard]] FrameArena& arena() { return arena_; }

  /// pcap linktype governing how frames() bytes are decoded. Synthetic
  /// traces are Ethernet; captures carry whatever their header said.
  [[nodiscard]] std::uint32_t linktype() const { return linktype_; }
  void set_linktype(std::uint32_t linktype) { linktype_ = linktype; }

  /// Capture-layer ingestion diagnostics (all-zero for synthetic
  /// traces; populated by the pcap reader). Decode-layer counters are
  /// added downstream by group_streams.
  [[nodiscard]] const IngestStats& ingest() const { return ingest_; }
  [[nodiscard]] IngestStats& ingest() { return ingest_; }

  /// Resolves a frame's wire bytes.
  [[nodiscard]] rtcc::util::BytesView bytes(const Frame& f) const {
    return arena_.view(f.off, f.len);
  }
  [[nodiscard]] rtcc::util::BytesView frame_bytes(std::size_t i) const {
    return bytes(frames_[i]);
  }

  void reserve(std::size_t n) { frames_.reserve(n); }

  /// Copies `bytes` onto this trace's arena and appends the frame.
  Frame& add_frame(double ts, rtcc::util::BytesView bytes);

  /// Adopts a prebuilt frame: a view into this trace's arena (e.g.
  /// produced by build_frame_arena against arena() or an arena later
  /// passed to adopt_arena).
  Frame& add_frame(Frame f);

  /// Takes over an externally built arena (the emulator builds frames
  /// into a CallContext arena, sorts the descriptors, then hands the
  /// arena to the call's trace). Only valid while this arena is empty.
  void adopt_arena(FrameArena&& arena);

  /// Registers an externally owned immutable buffer (mmap'ed file,
  /// whole-file read) in the arena; returns its base offset for
  /// registering view frames over it.
  std::uint64_t adopt_buffer(rtcc::util::BytesView data,
                             std::shared_ptr<void> keepalive) {
    return arena_.adopt(data, std::move(keepalive));
  }

 private:
  FrameArena arena_;
  std::vector<Frame> frames_;
  std::uint64_t total_bytes_ = 0;
  std::uint32_t linktype_ = kLinkEthernet;
  IngestStats ingest_;
};

/// What a capture's 24-byte global header says about its records.
struct PcapFormat {
  bool swap = false;   // header fields are in the foreign byte order
  bool nanos = false;  // sub-second fields count nanoseconds
  std::uint32_t linktype = kLinkEthernet;
};

inline constexpr std::size_t kPcapGlobalHeader = 24;
inline constexpr std::size_t kPcapRecordHeader = 16;
/// Largest incl_len the walk will wait for. Snaplen tops out at
/// 256 KiB, so a larger claim is a corrupt header: it counts as a torn
/// tail instead of making a chunked window buffer gigabytes.
inline constexpr std::uint32_t kPcapMaxRecord = std::uint32_t{1} << 30;

/// Validates a global header (the four magics: us/ns, both byte
/// orders). nullopt, with `*error` set, for an unknown magic.
[[nodiscard]] std::optional<PcapFormat> parse_pcap_header(
    const std::uint8_t* header, std::string* error);

namespace detail {
inline std::uint32_t pcap_load32(const std::uint8_t* p, bool swap) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return swap ? __builtin_bswap32(v) : v;
}
}  // namespace detail

/// The pcap record walk. `Window` is a byte window over the capture:
///   bool fill(std::size_t need)  at least `need` unconsumed bytes are
///                                available; false when input ends first
///   const std::uint8_t* head()   first unconsumed byte
///   std::size_t avail()          unconsumed bytes available
///   void consume(std::size_t n)
/// head() may move across fill(). on_header(const PcapFormat&) runs
/// once, before any frame; on_frame(ts, payload, incl_len, orig_len)
/// runs for every intact record, with `payload` valid until the next
/// fill(). Fail-soft accounting lands in `stats`: a torn tail record
/// ends the walk (torn_tail), a sub-second field >= its unit is clamped
/// to the last representable tick (bad_usec), incl < orig counts as
/// snaplen_clipped. Returns false, with `*error` set, only for the two
/// hard errors: input shorter than the global header, unknown magic.
template <typename Window, typename OnHeader, typename OnFrame>
bool walk_pcap(Window& w, IngestStats& stats, std::string* error,
               OnHeader&& on_header, OnFrame&& on_frame) {
  if (!w.fill(kPcapGlobalHeader)) {
    if (error != nullptr) *error = "pcap: file shorter than global header";
    return false;
  }
  const std::optional<PcapFormat> fmt = parse_pcap_header(w.head(), error);
  if (!fmt) return false;
  on_header(*fmt);
  w.consume(kPcapGlobalHeader);

  const bool swap = fmt->swap;
  const std::uint32_t unit = fmt->nanos ? 1000000000u : 1000000u;
  const double scale = fmt->nanos ? 1e-9 : 1e-6;
  for (;;) {
    if (!w.fill(kPcapRecordHeader)) {
      if (w.avail() > 0) ++stats.torn_tail;  // record header cut mid-bytes
      return true;
    }
    const std::uint8_t* h = w.head();
    const std::uint32_t sec = detail::pcap_load32(h, swap);
    std::uint32_t sub = detail::pcap_load32(h + 4, swap);
    const std::uint32_t incl = detail::pcap_load32(h + 8, swap);
    const std::uint32_t orig = detail::pcap_load32(h + 12, swap);
    if (incl > kPcapMaxRecord || !w.fill(kPcapRecordHeader + incl)) {
      ++stats.torn_tail;  // record payload cut mid-bytes
      return true;
    }
    ++stats.frames_seen;
    if (sub >= unit) {
      // A fractional-second value >= one second would reorder frames;
      // clamp to the last representable tick (deterministic) and count.
      sub = unit - 1;
      ++stats.bad_usec;
    }
    if (orig > incl) ++stats.snaplen_clipped;
    const double ts =
        static_cast<double>(sec) + static_cast<double>(sub) * scale;
    on_frame(ts, w.head() + kPcapRecordHeader, incl, orig);
    w.consume(kPcapRecordHeader + incl);
  }
}

/// Reads an entire .pcap file. Returns an error message only for files
/// that cannot be a capture (short global header, unknown magic); every
/// record-level defect is fail-soft and counted in the trace's
/// ingest(). The file is mmap'ed (or read once into a single adopted
/// buffer) and frames are zero-copy views into it.
[[nodiscard]] std::optional<Trace> read_pcap(const std::string& path,
                                             std::string* error = nullptr);

/// Writes `trace` as a classic pcap file (snaplen 262144).
[[nodiscard]] bool write_pcap(const std::string& path, const Trace& trace,
                              std::string* error = nullptr);

/// In-memory round trip used heavily by tests. decode_pcap copies frame
/// bytes out of `data` into the trace's arena.
[[nodiscard]] rtcc::util::Bytes encode_pcap(const Trace& trace);

/// Capture-artifact knobs for encode_pcap_ex. The default reproduces
/// encode_pcap (native little-endian, microsecond magic); the variants
/// produce the byte-level rewritings real tooling emits — Wireshark's
/// nanosecond magic and opposite-endian global/record headers — which
/// must decode back to the same capture (testkit::meta relies on this).
struct PcapEncodeOptions {
  bool nanosecond = false;  // write 0xA1B23C4D and ns sub-second fields
  bool swapped = false;     // byte-swap every header field (foreign endian)
};

[[nodiscard]] rtcc::util::Bytes encode_pcap_ex(const Trace& trace,
                                               const PcapEncodeOptions& opts);
[[nodiscard]] std::optional<Trace> decode_pcap(rtcc::util::BytesView data,
                                               std::string* error = nullptr);

/// Zero-copy decode: `data` is adopted into the trace's arena and every
/// frame becomes a view into it. `keepalive` is held for the life of
/// the trace (the mmap unmapper or owning buffer; may be null when the
/// caller guarantees `data` outlives the trace, as benches do).
[[nodiscard]] std::optional<Trace> decode_pcap_zero_copy(
    rtcc::util::BytesView data, std::shared_ptr<void> keepalive = nullptr,
    std::string* error = nullptr);

/// Zero-copy decode taking ownership of a whole-file buffer.
[[nodiscard]] std::optional<Trace> decode_pcap_owned(
    rtcc::util::Bytes data, std::string* error = nullptr);

}  // namespace rtcc::net
