#include "net/pcap.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define RTCC_HAS_MMAP 1
#include <sys/mman.h>
#include <sys/stat.h>
#endif

namespace rtcc::net {

using rtcc::util::Bytes;
using rtcc::util::BytesView;

namespace {

constexpr std::uint32_t kMagicNative = 0xA1B2C3D4;    // microseconds
constexpr std::uint32_t kMagicSwapped = 0xD4C3B2A1;
constexpr std::uint32_t kMagicNativeNs = 0xA1B23C4D;  // nanoseconds
constexpr std::uint32_t kMagicSwappedNs = 0x4D3CB2A1;
constexpr std::uint32_t kSnapLen = 262144;

template <typename T>
void push(Bytes& out, T v) {
  const std::size_t n = out.size();
  out.resize(n + sizeof v);
  std::memcpy(out.data() + n, &v, sizeof v);
}

void set_error(std::string* error, const char* msg) {
  if (error) *error = msg;
}

/// walk_pcap's window over a whole capture already in memory:
/// fill() never reads, it only reports whether the bytes are there.
class BufferWindow {
 public:
  explicit BufferWindow(BytesView data) : data_(data) {}

  [[nodiscard]] bool fill(std::size_t need) const { return avail() >= need; }
  [[nodiscard]] const std::uint8_t* head() const {
    return data_.data() + pos_;
  }
  [[nodiscard]] std::size_t avail() const { return data_.size() - pos_; }
  void consume(std::size_t n) { pos_ += n; }

 private:
  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace

Frame& Trace::add_frame(double ts, BytesView bytes) {
  Frame f;
  f.ts = ts;
  f.len = static_cast<std::uint32_t>(bytes.size());
  f.off = bytes.empty() ? 0 : arena_.append(bytes);
  return add_frame(f);
}

Frame& Trace::add_frame(Frame f) {
  total_bytes_ += f.size();
  frames_.push_back(f);
  return frames_.back();
}

void Trace::adopt_arena(FrameArena&& arena) {
  // Offsets of already-registered view frames would shift if slabs were
  // merged, so adoption is only defined onto an empty arena.
  if (!arena_.empty()) return;
  arena_ = std::move(arena);
}

Bytes encode_pcap(const Trace& trace) {
  return encode_pcap_ex(trace, PcapEncodeOptions{});
}

Bytes encode_pcap_ex(const Trace& trace, const PcapEncodeOptions& opts) {
  const auto emit32 = [&](Bytes& out, std::uint32_t v) {
    push(out, opts.swapped ? __builtin_bswap32(v) : v);
  };
  const auto emit16 = [&](Bytes& out, std::uint16_t v) {
    push(out, opts.swapped ? static_cast<std::uint16_t>((v >> 8) | (v << 8))
                           : v);
  };
  const double sub_unit = opts.nanosecond ? 1e9 : 1e6;
  const auto sub_mod = opts.nanosecond ? 1000000000LL : 1000000LL;

  Bytes out;
  out.reserve(kPcapGlobalHeader + trace.size() * kPcapRecordHeader +
              trace.total_bytes());
  emit32(out, opts.nanosecond ? kMagicNativeNs : kMagicNative);
  emit16(out, 2);  // version major
  emit16(out, 4);  // version minor
  emit32(out, 0);  // thiszone
  emit32(out, 0);  // sigfigs
  emit32(out, kSnapLen);
  emit32(out, trace.linktype());

  for (const auto& f : trace.frames()) {
    const double ts = f.ts < 0 ? 0.0 : f.ts;
    const auto sec = static_cast<std::uint32_t>(ts);
    const auto sub = static_cast<std::uint32_t>(
        std::llround((ts - static_cast<double>(sec)) * sub_unit) % sub_mod);
    const BytesView bytes = trace.bytes(f);
    const auto incl = static_cast<std::uint32_t>(bytes.size());
    emit32(out, sec);
    emit32(out, sub);
    emit32(out, incl);
    // Preserve the on-the-wire length of snaplen-clipped captures.
    emit32(out, f.orig_len != 0 ? f.orig_len : incl);
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  return out;
}

std::optional<PcapFormat> parse_pcap_header(const std::uint8_t* header,
                                            std::string* error) {
  std::uint32_t magic;
  std::memcpy(&magic, header, 4);
  PcapFormat fmt;
  if (magic == kMagicNative) {
  } else if (magic == kMagicSwapped) {
    fmt.swap = true;
  } else if (magic == kMagicNativeNs) {
    fmt.nanos = true;
  } else if (magic == kMagicSwappedNs) {
    fmt.swap = true;
    fmt.nanos = true;
  } else {
    set_error(error, "pcap: bad magic number");
    return std::nullopt;
  }
  // Any linktype is accepted here; frames under one the decoder does
  // not understand are counted per-frame (unsupported_linktype) at
  // decode time, so the capture-layer accounting still runs.
  fmt.linktype = detail::pcap_load32(header + 20, fmt.swap);
  return fmt;
}

std::optional<Trace> decode_pcap(BytesView data, std::string* error) {
  Trace trace;
  BufferWindow window(data);
  if (!walk_pcap(
          window, trace.ingest(), error,
          [&](const PcapFormat& fmt) { trace.set_linktype(fmt.linktype); },
          [&](double ts, const std::uint8_t* payload, std::uint32_t incl,
              std::uint32_t orig) {
            trace.add_frame(ts, BytesView{payload, incl}).orig_len = orig;
          }))
    return std::nullopt;
  return trace;
}

std::optional<Trace> decode_pcap_zero_copy(BytesView data,
                                           std::shared_ptr<void> keepalive,
                                           std::string* error) {
  Trace trace;
  const std::uint64_t base = trace.adopt_buffer(data, std::move(keepalive));
  BufferWindow window(data);
  if (!walk_pcap(
          window, trace.ingest(), error,
          [&](const PcapFormat& fmt) { trace.set_linktype(fmt.linktype); },
          [&](double ts, const std::uint8_t* payload, std::uint32_t incl,
              std::uint32_t orig) {
            const auto off = static_cast<std::uint64_t>(payload - data.data());
            trace.add_frame(Frame{ts, base + off, incl, orig});
          }))
    return std::nullopt;
  return trace;
}

std::optional<Trace> decode_pcap_owned(Bytes data, std::string* error) {
  auto owner = std::make_shared<Bytes>(std::move(data));
  return decode_pcap_zero_copy(BytesView{*owner}, owner, error);
}

std::optional<Trace> read_pcap(const std::string& path, std::string* error) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> fp(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!fp) {
    set_error(error, "pcap: cannot open file");
    return std::nullopt;
  }
#ifdef RTCC_HAS_MMAP
  const int fd = ::fileno(fp.get());
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    const auto len = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      // The mapping outlives the descriptor; the trace unmaps it.
      std::shared_ptr<void> unmapper(map,
                                     [len](void* p) { ::munmap(p, len); });
      return decode_pcap_zero_copy(
          BytesView{static_cast<const std::uint8_t*>(map), len},
          std::move(unmapper), error);
    }
  }
#endif
  // Whole-file read into one buffer the trace then owns: the fallback
  // for files mmap cannot map (empty files, pipes, unusual filesystems).
  Bytes data;
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), fp.get())) > 0)
    data.insert(data.end(), buf, buf + n);
  return decode_pcap_owned(std::move(data), error);
}

bool write_pcap(const std::string& path, const Trace& trace,
                std::string* error) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> fp(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (!fp) {
    set_error(error, "pcap: cannot open file for writing");
    return false;
  }
  Bytes data = encode_pcap(trace);
  if (std::fwrite(data.data(), 1, data.size(), fp.get()) != data.size()) {
    set_error(error, "pcap: short write");
    return false;
  }
  return true;
}

}  // namespace rtcc::net
