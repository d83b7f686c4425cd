// `service`: rtccd churn. One thread pushes pre-built frames into a
// stream::StreamingAnalyzer configured as rtccd is deployed (keep-all
// filter, 1 s epochs, 0.5 s idle timeout, 8192 flows), each epoch
// written through service::VerdictWriter. Timed passes push a fixed
// prefix of the schedule back to back (closed loop, on one thread: see
// measured_options in workload.hpp). The traced run also offers the
// schedule open loop at fixed rates on a ladder of 25k, 50k, 100k and
// 200k frames/s, for the per-frame latency and the sustained rate.
//
// The traffic is a fixed schedule of 12.5k frames per capture second:
// every other slot belongs to one of 32 long-lived RTP+RTCP flows that
// last the whole run, the rest to short churn flows (a STUN binding
// exchange, then 4 RTP packets) that start 512 at a time. Each rung
// replays a prefix of that schedule faster than capture time, as rtccd
// ingests dropped pcaps, so rungs differ only in offered rate. p99 is
// set by the pushes that close an epoch, so the capture clock runs at a
// quarter of the 50k rung's rate: four epochs per wall second give the
// rung enough of them for a steady p99.
//
// Why every other slot: with churn flows in 15 of every 16 slots, whole
// runs fell into a state about 1.7x slower than others on a shared host
// while a run of this mix started right after them did not, so the
// run-to-run spread of that mix stayed near the benchmark's bound.
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <optional>

#include "closed_loop.hpp"
#include "net/headers.hpp"
#include "net/pcap.hpp"
#include "proto/rtcp/rtcp.hpp"
#include "proto/rtp/rtp.hpp"
#include "proto/stun/stun.hpp"
#include "service/daemon.hpp"
#include "service/verdict_writer.hpp"
#include "stream/engine.hpp"
#include "stream/stream_mode.hpp"
#include "testkit/meta.hpp"

namespace rtccbench {

namespace {

namespace net = rtcc::net;
namespace report = rtcc::report;
namespace stream = rtcc::stream;
using rtcc::util::Bytes;
using rtcc::util::BytesView;

constexpr double kCaptureFps = 12500.0;  // capture-clock rate of the schedule
constexpr std::size_t kLongFlows = 32;
constexpr std::size_t kLongEvery = 2;     // slot share of long-lived flows
constexpr std::size_t kChurnWindow = 512;  // churn flows in flight together
constexpr std::size_t kChurnPackets = 6;   // STUN req + resp, 4 RTP
constexpr std::uint64_t kRtcpEvery = 50;   // per long-flow direction
/// Frames of one timed pass: 16 capture seconds, so 16 epochs and
/// about 17k churn flows, most of them evicted.
constexpr std::size_t kPassFrames = 200000;

struct Rung {
  double fps;
  double share;  // of --seconds
};
constexpr Rung kRungs[] = {
    {25000.0, 0.05}, {50000.0, 0.6}, {100000.0, 0.05}, {200000.0, 0.05}};
constexpr std::size_t kLatencyRung = 1;  // service.p50_ms and p99_ms at 50k
constexpr double kP99LimitMs = 50.0;
/// A rung's backlog grows when the median lateness over its last tenth
/// exceeds that over its first tenth by more than this.
constexpr double kBacklogGrowthMs = 10.0;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The schedule: frame k is due at capture time k / kCaptureFps and is
/// a pure function of (seed, k), so any prefix can be built on demand.
class Traffic {
 public:
  explicit Traffic(std::uint64_t seed) : seed_(mix(seed)) {}

  static double ts(std::size_t k) {
    return static_cast<double>(k) / kCaptureFps;
  }

  [[nodiscard]] Bytes frame(std::size_t k) const {
    if (k % kLongEvery == 0) return long_frame(k / kLongEvery);
    const std::size_t j = k - k / kLongEvery - 1;  // churn slot index
    const std::size_t group = j / (kChurnWindow * kChurnPackets);
    const std::size_t within = j % (kChurnWindow * kChurnPackets);
    return churn_frame(group * kChurnWindow + within % kChurnWindow,
                       within / kChurnWindow);
  }

 private:
  [[nodiscard]] std::uint64_t h(std::uint64_t a, std::uint64_t b) const {
    return mix(seed_ ^ mix(a * 0x100000001b3ULL + b));
  }

  [[nodiscard]] Bytes long_frame(std::size_t m) const {
    const std::size_t flow = m % kLongFlows;
    const std::size_t nth = m / kLongFlows;
    const int dir = static_cast<int>(nth % 2);
    const std::uint64_t seq = nth / 2;
    net::FrameSpec device;
    device.src = net::IpAddr::v4(10, 1, 0, static_cast<std::uint8_t>(1 + flow));
    device.src_port = static_cast<std::uint16_t>(50000 + flow);
    device.dst = net::IpAddr::v4(203, 0, 113, static_cast<std::uint8_t>(1 + flow % 8));
    device.dst_port = 3479;
    net::FrameSpec spec = device;
    if (dir == 1) {
      std::swap(spec.src, spec.dst);
      std::swap(spec.src_port, spec.dst_port);
    }
    const auto ssrc = static_cast<std::uint32_t>(h(1, flow * 2 + dir));
    if (seq % kRtcpEvery == kRtcpEvery - 1) {
      rtcc::proto::rtcp::SenderReport sr;
      sr.sender_ssrc = ssrc;
      sr.ntp_timestamp = seq << 20;
      sr.rtp_timestamp = static_cast<std::uint32_t>(seq * 960);
      sr.packet_count = static_cast<std::uint32_t>(seq);
      sr.octet_count = static_cast<std::uint32_t>(seq * 600);
      rtcc::proto::rtcp::Sdes sdes;
      rtcc::proto::rtcp::SdesChunk chunk;
      chunk.ssrc = ssrc;
      chunk.items.push_back({1, Bytes{'r', 't', 'c', 'c'}});
      sdes.chunks.push_back(chunk);
      rtcc::proto::rtcp::Compound c;
      c.packets.push_back(rtcc::proto::rtcp::make_sender_report(sr));
      c.packets.push_back(rtcc::proto::rtcp::make_sdes(sdes));
      const auto wire = rtcc::proto::rtcp::encode_compound(c);
      return net::build_frame(spec, BytesView{wire});
    }
    rtcc::proto::rtp::PacketBuilder b;
    b.payload_type(96)
        .seq(static_cast<std::uint16_t>(seq))
        .timestamp(static_cast<std::uint32_t>(seq * 960))
        .ssrc(ssrc)
        .payload_fill(0x5A, 200 + h(2, m) % 800);
    const auto wire = b.build();
    return net::build_frame(spec, BytesView{wire});
  }

  [[nodiscard]] Bytes churn_frame(std::size_t flow, std::size_t p) const {
    net::FrameSpec spec;
    const auto client = net::IpAddr::v4(
        10, static_cast<std::uint8_t>(64 + ((flow >> 16) & 63)),
        static_cast<std::uint8_t>((flow >> 8) & 255),
        static_cast<std::uint8_t>(flow & 255));
    const auto client_port = static_cast<std::uint16_t>(40000 + flow % 20000);
    const auto server = net::IpAddr::v4(198, 51, 100,
                                        static_cast<std::uint8_t>(1 + flow % 16));
    spec.src = client;
    spec.src_port = client_port;
    spec.dst = server;
    spec.dst_port = 3478;
    const std::uint64_t r = h(3, flow);
    if (p < 2) {
      rtcc::proto::stun::TransactionId txid{};
      for (std::size_t i = 0; i < txid.size(); ++i)
        txid[i] = static_cast<std::uint8_t>(h(4, flow * 16 + i));
      namespace stun = rtcc::proto::stun;
      if (p == 0) {
        const auto wire = stun::MessageBuilder(stun::kBindingRequest)
                              .transaction_id(txid)
                              .attribute_u32(stun::attr::kPriority,
                                             static_cast<std::uint32_t>(r))
                              .fingerprint()
                              .build();
        return net::build_frame(spec, BytesView{wire});
      }
      std::swap(spec.src, spec.dst);
      std::swap(spec.src_port, spec.dst_port);
      const auto wire = stun::MessageBuilder(stun::kBindingSuccess)
                            .transaction_id(txid)
                            .xor_address(stun::attr::kXorMappedAddress, client,
                                         client_port)
                            .fingerprint()
                            .build();
      return net::build_frame(spec, BytesView{wire});
    }
    const std::size_t n = p - 2;
    rtcc::proto::rtp::PacketBuilder b;
    b.payload_type(111)
        .seq(static_cast<std::uint16_t>(r + n))
        .timestamp(static_cast<std::uint32_t>((r >> 16) + 960 * n))
        .ssrc(static_cast<std::uint32_t>(r >> 32))
        .payload_fill(0xA5, 80 + (r >> 8) % 120);
    const auto wire = b.build();
    return net::build_frame(spec, BytesView{wire});
  }

  std::uint64_t seed_;
};

/// Frames [0, n) of the schedule in one contiguous buffer.
struct Frames {
  std::vector<std::uint8_t> blob;
  std::vector<std::size_t> off{0};

  Frames(const Traffic& traffic, std::size_t n) {
    off.reserve(n + 1);
    for (std::size_t k = 0; k < n; ++k) {
      const Bytes f = traffic.frame(k);
      blob.insert(blob.end(), f.begin(), f.end());
      off.push_back(blob.size());
    }
  }
  [[nodiscard]] BytesView operator[](std::size_t k) const {
    return BytesView{blob.data() + off[k], off[k + 1] - off[k]};
  }
};

stream::StreamOptions deployed_stream_options() {
  stream::StreamOptions sopts;
  sopts.idle_timeout_s = 0.5;
  sopts.max_flows = 8192;
  return sopts;
}

/// One engine run over a prefix of the schedule: the epoch sink's
/// conservation bookkeeping, VerdictWriter output, and the finish()
/// analysis.
class EngineRun {
 public:
  EngineRun(const report::AnalysisOptions& aopts, const std::string& jsonl,
            Tracer* tracer)
      : tracer_(tracer), path_(jsonl) {
    std::remove(path_.c_str());
    writer_.emplace(path_);
    if (!writer_->ok()) throw std::runtime_error("cannot open " + path_);
    const auto fcfg = rtcc::service::keep_all_filter_config();
    const auto sopts = deployed_stream_options();
    {
      std::optional<Scope> span;
      if (tracer_ != nullptr) span.emplace(*tracer_, "stream.init");
      engine_.emplace(net::kLinkEthernet, fcfg, aopts, sopts);
    }
    engine_->set_epoch(1.0, [this](const stream::EpochReport& ep) {
      sink(ep);
    });
  }
  ~EngineRun() {
    engine_.reset();
    writer_.reset();
    std::remove(path_.c_str());
  }
  EngineRun(const EngineRun&) = delete;
  EngineRun& operator=(const EngineRun&) = delete;

  /// Pushes one frame; true when the push closed an epoch.
  bool push(BytesView frame, double ts) {
    fired_ = false;
    if (tracer_ != nullptr) {
      Scope span(*tracer_, "stream.push");
      engine_->push_frame(frame, ts);
      if (fired_) span.rename("stream.emit");
    } else {
      engine_->push_frame(frame, ts);
    }
    ++pushed_;
    return fired_;
  }

  /// Ends the run: finish() (the final epoch) and the engine teardown.
  void finish() {
    std::optional<Scope> span;
    if (tracer_ != nullptr) span.emplace(*tracer_, "stream.finish");
    merged_ = engine_->finish(&per_stream_);
    engine_.reset();
  }

  /// After finish(): the digest of the finish() compliance signature
  /// when every conservation identity held (each ordinal emitted once
  /// with amends=false, epoch frames summing to the frames pushed),
  /// else 0.
  [[nodiscard]] std::uint64_t signature() const {
    const std::uint64_t flows = merged_.flows.flows_seen;
    const auto once = static_cast<std::uint64_t>(
        std::count(seen_.begin(), seen_.end(), std::uint8_t{1}));
    const bool conserved = duplicates_ == 0 && seen_.size() == flows &&
                           once == flows && epoch_frames_ == pushed_;
    return conserved ? digest(rtcc::testkit::meta::compliance_signature(
                           merged_, per_stream_))
                     : 0;
  }

  [[nodiscard]] const report::CallAnalysis& merged() const { return merged_; }
  [[nodiscard]] std::uint64_t verdicts() const { return verdicts_; }
  [[nodiscard]] std::uint64_t amendments() const { return amendments_; }

 private:
  void sink(const stream::EpochReport& ep) {
    fired_ = true;
    {
      std::optional<Scope> span;
      if (tracer_ != nullptr) span.emplace(*tracer_, "bench.sink");
      epoch_frames_ += ep.frames;
      for (const auto& v : ep.verdicts) {
        ++verdicts_;
        if (v.amends) {
          ++amendments_;
          continue;
        }
        if (v.ordinal >= seen_.size()) seen_.resize(v.ordinal + 1, 0);
        if (seen_[v.ordinal] != 0) ++duplicates_;
        seen_[v.ordinal] = 1;
      }
    }
    std::optional<Scope> span;
    if (tracer_ != nullptr) span.emplace(*tracer_, "service.write");
    writer_->write_epoch(ep);
  }

  Tracer* tracer_;
  std::string path_;
  std::optional<rtcc::service::VerdictWriter> writer_;
  std::optional<stream::StreamingAnalyzer> engine_;
  bool fired_ = false;
  std::uint64_t pushed_ = 0;
  std::uint64_t epoch_frames_ = 0;
  std::vector<std::uint8_t> seen_;  // ordinal emitted with amends=false
  std::uint64_t duplicates_ = 0;
  std::uint64_t verdicts_ = 0;
  std::uint64_t amendments_ = 0;
  report::CallAnalysis merged_;
  std::vector<report::CallAnalysis> per_stream_;
};

void sleep_until(double t) {
  const double whole = std::floor(t);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(whole);
  ts.tv_nsec = static_cast<long>((t - whole) * 1e9);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// One paced rung: per-frame latency from scheduled send time to the
/// return of push_frame, and generator lateness.
struct RungResult {
  bool ok = false;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;       // push start minus due time
  std::vector<double> wake_late_ms;  // same, for frames due while idle
  std::vector<double> emit_ms;       // pushes that closed an epoch
};

class Service final : public Workload {
 public:
  explicit Service(const Options& opts)
      : opts_(opts),
        traffic_(opts.seed),
        jsonl_(opts.workdir + "/verdicts-" + std::to_string(opts.seed) +
               ".jsonl") {
    pass_frames_ = opts.tiny ? kPassFrames / 10 : kPassFrames;
    for (const auto& r : kRungs)
      rung_frames_.push_back(std::max<std::size_t>(
          1000, static_cast<std::size_t>(r.fps * r.share * opts.seconds)));
  }

  void setup() override { prepare({pass_frames_}); }

  /// The cold first pass: engine construction and one pass's frames
  /// (built before timing, so peak RSS includes them) through finish().
  ColdResult cold() override {
    const std::size_t n = pass_frames_;
    const Frames frames(traffic_, n);
    ColdResult out;
    const double t0 = now_s();
    EngineRun run(measured_options(), cold_jsonl(), nullptr);
    for (std::size_t k = 0; k < n; ++k) run.push(frames[k], Traffic::ts(k));
    run.finish();
    out.setup_s = now_s() - t0;
    out.peak_rss_mb = vmhwm_mb();
    out.digest = run.signature();
    return out;
  }

  [[nodiscard]] std::uint64_t cold_reference(int) const override {
    return reference_.at(pass_frames_);
  }

  Outcome measure() override {
    return measure_closed_loop(opts_, [&] {
      return unpaced_pass(pass_frames_, measured_options());
    });
  }

  Outcome traced(Tracer& tracer) override {
    prepare(rung_frames_);
    LayerReport rep;
    Outcome ladder = run_ladder(rep);
    const std::size_t n = pass_frames_;
    const std::uint64_t ref = reference_.at(n);
    Outcome out = trace_closed_loop(
        opts_, tracer,
        [&](Tracer& t, LayerReport* counts) {
          std::optional<Scope> root;
          root.emplace(t, "bench.pass");
          EngineRun run(measured_options(), jsonl_, &t);
          for (std::size_t k = 0; k < n; ++k)
            run.push((*frames_)[k], Traffic::ts(k));
          run.finish();
          root.reset();
          const bool ok = run.signature() == ref;
          if (counts != nullptr) {
            const auto& a = run.merged();
            counts->frames = static_cast<double>(n);
            count_analysis(*counts, a);
            counts->flows_seen = static_cast<double>(a.flows.flows_seen);
            counts->evictions = static_cast<double>(a.flows.evictions);
            counts->live_peak_mb =
                static_cast<double>(a.flows.live_peak_bytes) / 1e6;
            counts->verdicts = static_cast<double>(run.verdicts());
            counts->amendments = static_cast<double>(run.amendments());
          }
          return ok;
        },
        [&] { return unpaced_pass(n, measured_options()); },
        [&] { return unpaced_pass(n, report::AnalysisOptions{}); }, rep);
    out.attempted += ladder.attempted;
    out.failed += ladder.failed;
    out.notes.insert(out.notes.begin(), ladder.notes.begin(),
                     ladder.notes.end());
    return out;
  }

 private:
  /// Builds the schedule up to the longest of `sizes` and the batch
  /// reference of each prefix in `sizes`, growing one trace. Untimed.
  void prepare(std::vector<std::size_t> sizes) {
    std::sort(sizes.begin(), sizes.end());
    const std::size_t n = std::max(sizes.back(), pass_frames_);
    if (!frames_ || frames_->off.size() <= n) frames_.emplace(traffic_, n);
    const rtcc::stream::StreamModeGuard batch_path(false);
    const auto fcfg = rtcc::service::keep_all_filter_config();
    net::Trace trace;
    trace.reserve(sizes.back());
    for (const std::size_t size : sizes) {
      if (reference_.count(size) != 0) continue;
      while (trace.size() < size)
        trace.add_frame(Traffic::ts(trace.size()), (*frames_)[trace.size()]);
      std::vector<report::CallAnalysis> per_stream;
      const auto a =
          report::analyze_trace(trace, fcfg, measured_options(), &per_stream);
      reference_[size] =
          digest(rtcc::testkit::meta::compliance_signature(a, per_stream));
    }
  }

  /// The open-loop ladder: every rung paced, its verdict in the notes,
  /// the 50k rung's latency and the highest sustained rung into `rep`.
  Outcome run_ladder(LayerReport& rep) {
    Outcome out;
    // Sleep precisely: the generator never spins, and a coarse timer
    // slack would add itself to every frame's latency.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    bool all_pass = true;
    char buf[256];
    for (std::size_t r = 0; r < std::size(kRungs); ++r) {
      RungResult res = paced_rung(r, measured_options());
      ++out.attempted;
      if (!res.ok) ++out.failed;
      const Quantile p99 = resolved_tail(res.latency_ms, 0.99, 10);
      const double growth = backlog_growth_ms(res.late_ms);
      const bool pass = p99.value <= kP99LimitMs && growth <= kBacklogGrowthMs;
      all_pass = all_pass && pass;
      if (all_pass) rep.max_rate_fps = kRungs[r].fps;
      std::snprintf(buf, sizeof buf,
                    "rung %.0f fps: frames=%zu p99_ms=%.3f (rank %zu of %zu) "
                    "backlog_growth_ms=%.3f gen_late_p50_ms=%.4f %s",
                    kRungs[r].fps, res.latency_ms.size(), p99.value, p99.rank,
                    p99.n, growth, median(res.wake_late_ms),
                    pass ? "sustained" : "not sustained");
      out.notes.push_back(buf);
      std::string emits = "  epoch-closing pushes (ms):";
      for (const double ms : res.emit_ms) {
        std::snprintf(buf, sizeof buf, " %.1f", ms);
        emits += buf;
      }
      out.notes.push_back(emits);
      if (r != kLatencyRung) continue;
      rep.p50_ms = quantile(res.latency_ms, 0.50).value;
      rep.p99_ms = p99.value;
      rep.gen_late_ms = median(res.wake_late_ms);
    }
    std::snprintf(buf, sizeof buf,
                  "ladder: highest sustained rung %.0f fps (p99 <= %.0f ms, "
                  "backlog growth <= %.0f ms)",
                  rep.max_rate_fps, kP99LimitMs, kBacklogGrowthMs);
    out.notes.push_back(buf);
    return out;
  }

  [[nodiscard]] std::string cold_jsonl() const {
    return opts_.workdir + "/verdicts-cold-" + std::to_string(opts_.seed) +
           ".jsonl";
  }

  /// The schedule's first n frames pushed back to back; the engine is
  /// built before the timed region, finish() is inside it.
  PassTime unpaced_pass(std::size_t n,
                        const report::AnalysisOptions& aopts) const {
    EngineRun run(aopts, jsonl_, nullptr);
    PassTime t = timed_pass(
        [&] {
          for (std::size_t k = 0; k < n; ++k)
            run.push((*frames_)[k], Traffic::ts(k));
          run.finish();
          return true;
        },
        [&](bool) { return run.signature() == reference_.at(n); });
    t.input_mb = static_cast<double>(frames_->off[n]) / 1e6;
    return t;
  }

  RungResult paced_rung(std::size_t r, const report::AnalysisOptions& aopts) {
    const std::size_t n = rung_frames_[r];
    const double fps = kRungs[r].fps;
    RungResult res;
    res.latency_ms.resize(n);
    res.late_ms.resize(n);
    res.wake_late_ms.reserve(n);
    EngineRun run(aopts, jsonl_, nullptr);
    const double t0 = now_s() + 1e-3;
    double prev_end = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const double due = t0 + static_cast<double>(k) / fps;
      if (now_s() < due) sleep_until(due);
      const double start = now_s();
      const BytesView f = (*frames_)[k];
      const bool emitted = run.push(f, Traffic::ts(k));
      const double end = now_s();
      if (emitted) res.emit_ms.push_back((end - start) * 1e3);
      res.latency_ms[k] = (end - due) * 1e3;
      res.late_ms[k] = (start - due) * 1e3;
      if (prev_end <= due) res.wake_late_ms.push_back((start - due) * 1e3);
      prev_end = end;
    }
    run.finish();
    res.ok = run.signature() == reference_.at(n);
    return res;
  }

  static double backlog_growth_ms(const std::vector<double>& late_ms) {
    const std::size_t tenth = std::max<std::size_t>(1, late_ms.size() / 10);
    const std::vector<double> head(late_ms.begin(), late_ms.begin() + tenth);
    const std::vector<double> tail(late_ms.end() - tenth, late_ms.end());
    return median(tail) - median(head);
  }

  Options opts_;
  Traffic traffic_;
  std::string jsonl_;
  std::size_t pass_frames_;
  std::vector<std::size_t> rung_frames_;
  std::optional<Frames> frames_;
  std::map<std::size_t, std::uint64_t> reference_;  // prefix -> digest
};

}  // namespace

std::unique_ptr<Workload> make_service(const Options& opts) {
  return std::make_unique<Service>(opts);
}

}  // namespace rtccbench
