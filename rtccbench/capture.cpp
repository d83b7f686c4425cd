// `capture`: one large capture per pass. Each run writes three SFU
// conference captures from its seed (20 participants, 2 simulcast
// layers, background traffic, ~155 MB each) to pcap files; each pass
// runs read_pcap -> analyze_trace -> to_json on one of them, as
// examples/analyze_pcap does, closed loop, rotating through the three.
// No emul work is timed. Timed passes run on one thread (see
// measured_options in workload.hpp).
//
// Why three, and why 20 participants: each participant is one RTC flow,
// and the default sharded analysis (run in the traced run) hashes flows
// onto shard workers, so its wall time and peak RSS depend on how the
// flows happen to land; ~20 flows per capture and three captures per
// run keep the run's medians a property of the program rather than of
// one capture.
#include <cstdio>
#include <optional>

#include "closed_loop.hpp"
#include "emul/background.hpp"
#include "emul/sfu.hpp"
#include "net/pcap.hpp"
#include "report/json_export.hpp"
#include "stream/stream_mode.hpp"
#include "testkit/meta.hpp"

namespace rtccbench {

namespace {

namespace report = rtcc::report;

constexpr int kCaptures = 3;

struct PassOutput {
  report::CallAnalysis merged;
  std::vector<report::CallAnalysis> per_stream;
  std::size_t json_bytes = 0;
};

std::uint64_t signature_digest(const PassOutput& p) {
  return digest(rtcc::testkit::meta::compliance_signature(p.merged,
                                                          p.per_stream));
}

/// One capture file and what a pass over it must reproduce.
struct CaptureFile {
  std::string stem;  // path without extension
  rtcc::filter::FilterConfig fcfg;
  std::uint64_t reference = 0;
  double input_mb = 0.0;
};

class Capture final : public Workload {
 public:
  explicit Capture(const Options& opts)
      : opts_(opts), media_scale_(opts.tiny ? 0.005 : 0.045) {
    for (int i = 0; i < kCaptures; ++i)
      files_.push_back(CaptureFile{opts.workdir + "/capture-" +
                                       std::to_string(opts.seed) + "-" +
                                       std::to_string(i),
                                   {}, 0, 0.0});
  }

  ~Capture() override {
    if (!owner_) return;
    for (const auto& f : files_) {
      std::remove((f.stem + ".pcap").c_str());
      std::remove((f.stem + ".cfg").c_str());
    }
  }
  Capture(const Capture&) = delete;
  Capture& operator=(const Capture&) = delete;

  void setup() override {
    owner_ = true;
    for (int i = 0; i < kCaptures; ++i) {
      CaptureFile& f = files_[static_cast<std::size_t>(i)];
      {
        rtcc::emul::SfuConfig cfg;
        cfg.participants = 20;
        cfg.simulcast_layers = 2;
        cfg.background = true;
        cfg.media_scale = media_scale_;
        cfg.seed = opts_.seed * kCaptures + static_cast<std::uint64_t>(i);
        const auto call = rtcc::emul::emulate_sfu_call(cfg);
        f.fcfg = rtcc::emul::sfu_filter_config(call);
        std::string error;
        if (!rtcc::net::write_pcap(f.stem + ".pcap", call.trace, &error))
          throw std::runtime_error("write_pcap: " + error);
      }
      write_config(f);
      const rtcc::stream::StreamModeGuard batch_path(false);
      const auto trace = read(f);
      PassOutput ref;
      ref.merged = report::analyze_trace(trace, f.fcfg, measured_options(),
                                         &ref.per_stream);
      f.reference = signature_digest(ref);
      f.input_mb = static_cast<double>(trace.total_bytes()) / 1e6;
    }
  }

  ColdResult cold() override {
    CaptureFile& f = files_[static_cast<std::size_t>(opts_.cold_index % kCaptures)];
    read_config(f);
    ColdResult out;
    const double t0 = now_s();
    const auto p = run_pass(f, measured_options());
    out.setup_s = now_s() - t0;
    out.peak_rss_mb = vmhwm_mb();
    out.digest = signature_digest(p);
    return out;
  }

  [[nodiscard]] std::uint64_t cold_reference(int index) const override {
    return files_[static_cast<std::size_t>(index % kCaptures)].reference;
  }

  Outcome measure() override {
    std::size_t n = 0;
    return measure_closed_loop(opts_, [&] {
      return pass(files_[n++ % kCaptures], measured_options());
    });
  }

  Outcome traced(Tracer& tracer) override {
    LayerReport rep;
    std::size_t n = 0;
    return trace_closed_loop(
        opts_, tracer,
        [&](Tracer& t, LayerReport* counts) {
          return replay(files_[n % kCaptures], t, counts);
        },
        [&] { return pass(files_[n % kCaptures], measured_options()); },
        [&] { return pass(files_[n++ % kCaptures], report::AnalysisOptions{}); },
        rep);
  }

 private:
  static rtcc::net::Trace read(const CaptureFile& f) {
    std::string error;
    auto trace = rtcc::net::read_pcap(f.stem + ".pcap", &error);
    if (!trace) throw std::runtime_error("read_pcap: " + error);
    return std::move(*trace);
  }

  /// The timed region of a pass: bytes on disk to JSON report.
  static PassOutput run_pass(const CaptureFile& f,
                             const report::AnalysisOptions& aopts) {
    PassOutput p;
    const auto trace = read(f);
    p.merged = report::analyze_trace(trace, f.fcfg, aopts, &p.per_stream);
    p.json_bytes = report::to_json(p.merged).size();
    return p;
  }

  static PassTime pass(const CaptureFile& f,
                       const report::AnalysisOptions& aopts) {
    PassTime t = timed_pass([&] { return run_pass(f, aopts); },
                            [&](const PassOutput& p) {
                              return p.json_bytes > 0 &&
                                     signature_digest(p) == f.reference;
                            });
    t.input_mb = f.input_mb;
    return t;
  }

  static bool replay(const CaptureFile& f, Tracer& t, LayerReport* counts) {
    PassOutput p;
    double frames = 0.0;
    {
      Scope root(t, "bench.pass");
      std::optional<rtcc::net::Trace> trace;
      {
        Scope span(t, "net.read");
        trace = read(f);
      }
      frames = static_cast<double>(trace->size());
      p.merged = replay_analysis(*trace, f.fcfg, t, &p.per_stream);
      {
        Scope span(t, "report.emit");
        p.json_bytes = report::to_json(p.merged).size();
      }
      Scope span(t, "net.read");  // unmapping the capture
      trace.reset();
    }
    if (counts != nullptr) {
      counts->frames = frames;
      count_analysis(*counts, p.merged);
    }
    return p.json_bytes > 0 && signature_digest(p) == f.reference;
  }

  /// The filter config travels to cold child processes in a side file:
  /// the call window and the device addresses (the blocklist and port
  /// list are the emulator's fixed ones).
  static void write_config(const CaptureFile& f) {
    std::FILE* out = std::fopen((f.stem + ".cfg").c_str(), "w");
    if (out == nullptr) throw std::runtime_error("cannot write capture config");
    const auto& s = f.fcfg.schedule;
    std::fprintf(out, "%.17g %.17g %.17g %.17g %.17g\n", s.capture_start,
                 s.call_start, s.call_end, s.capture_end, s.slack);
    for (const auto& ip : f.fcfg.device_ips)
      std::fprintf(out, "%s\n", ip.to_string().c_str());
    std::fclose(out);
  }

  static void read_config(CaptureFile& f) {
    std::FILE* in = std::fopen((f.stem + ".cfg").c_str(), "r");
    if (in == nullptr) throw std::runtime_error("cannot read capture config");
    auto& s = f.fcfg.schedule;
    const int n = std::fscanf(in, "%lf %lf %lf %lf %lf", &s.capture_start,
                              &s.call_start, &s.call_end, &s.capture_end,
                              &s.slack);
    char ip[64];
    while (n == 5 && std::fscanf(in, "%63s", ip) == 1)
      if (const auto addr = rtcc::net::IpAddr::parse(ip))
        f.fcfg.device_ips.push_back(*addr);
    std::fclose(in);
    if (n != 5) throw std::runtime_error("bad capture config");
    f.fcfg.sni_blocklist = rtcc::emul::background_sni_blocklist();
    f.fcfg.excluded_ports = rtcc::filter::default_excluded_ports();
  }

  Options opts_;
  double media_scale_;
  bool owner_ = false;  // the parent process removes the files
  std::vector<CaptureFile> files_;
};

}  // namespace

std::unique_ptr<Workload> make_capture(const Options& opts) {
  return std::make_unique<Capture>(opts);
}

}  // namespace rtccbench
