// `corpus`: the paper-reproduction path. report::run_corpus over the
// 6 apps x 3 networks x 5 repeats matrix (300 s calls, media_scale
// 0.02) plus one pass of the scenario catalogue, closed loop, run on
// one thread (see measured_options in workload.hpp).
#include <optional>

#include "closed_loop.hpp"
#include "emul/scenario.hpp"
#include "report/corpus.hpp"
#include "stream/stream_mode.hpp"
#include "testkit/meta.hpp"

namespace rtccbench {

namespace {

namespace report = rtcc::report;
namespace emul = rtcc::emul;

/// Digest of every per-app and per-scenario compliance signature.
std::uint64_t corpus_digest(const report::CorpusResult& r) {
  std::string all;
  for (const auto& [app, a] : r.per_app)
    all += emul::to_string(app) + "=" +
           rtcc::testkit::meta::compliance_signature(a, {});
  for (const auto& [name, a] : r.per_scenario)
    all += name + "=" + rtcc::testkit::meta::compliance_signature(a, {});
  return digest(all);
}

class Corpus final : public Workload {
 public:
  explicit Corpus(const Options& opts) : opts_(opts) {
    auto& exp = copts_.experiment;
    exp.repeats = 5;
    exp.seed = opts.seed;
    copts_.scenario_repeats = 1;
    if (opts.tiny) {
      exp.repeats = 1;
      exp.call_s = 20.0;
    }
    measured_ = copts_;
    measured_.experiment.exec = report::ExecMode::kSerial;
    measured_.experiment.analysis = measured_options();
  }

  void setup() override {
    const rtcc::stream::StreamModeGuard batch_path(false);
    const auto r = report::run_corpus(measured_);
    reference_ = corpus_digest(r);
    input_mb_ = static_cast<double>(r.total_trace_bytes) / 1e6;
  }

  ColdResult cold() override {
    ColdResult out;
    const double t0 = now_s();
    const auto r = report::run_corpus(measured_);
    out.setup_s = now_s() - t0;
    out.peak_rss_mb = vmhwm_mb();
    out.digest = corpus_digest(r);
    return out;
  }

  [[nodiscard]] std::uint64_t cold_reference(int) const override {
    return reference_;
  }

  Outcome measure() override {
    return measure_closed_loop(opts_, [&] { return pass(measured_); });
  }

  Outcome traced(Tracer& tracer) override {
    LayerReport rep;
    return trace_closed_loop(
        opts_, tracer,
        [&](Tracer& t, LayerReport* counts) { return replay(t, counts); },
        [&] { return pass(measured_); }, [&] { return pass(copts_); }, rep);
  }

 private:
  PassTime pass(const report::CorpusOptions& copts) const {
    PassTime t = timed_pass([&] { return report::run_corpus(copts); },
                            [&](const report::CorpusResult& r) {
                              return corpus_digest(r) == reference_;
                            });
    t.input_mb = input_mb_;
    return t;
  }

  /// run_corpus replayed serially, call by call and layer by layer,
  /// with run_corpus's matrix order, seeds and scenario seeds.
  bool replay(Tracer& t, LayerReport* counts) const {
    const auto& exp = copts_.experiment;
    report::CorpusResult r;
    double frames = 0.0;
    std::optional<Scope> root;
    root.emplace(t, "bench.pass");
    const auto analyze = [&](const rtcc::net::Trace& trace,
                             const rtcc::filter::FilterConfig& fcfg,
                             report::CallAnalysis& into) {
      frames += static_cast<double>(trace.size());
      const auto a = replay_analysis(trace, fcfg, t, nullptr);
      Scope span(t, "report.merge");
      report::merge(into, a);
    };
    for (const auto app : exp.apps)
      for (const auto network : exp.networks)
        for (int repeat = 0; repeat < exp.repeats; ++repeat) {
          emul::CallConfig cc;
          cc.app = app;
          cc.network = network;
          cc.media_scale = exp.media_scale;
          cc.call_s = exp.call_s;
          cc.background = exp.background;
          cc.seed = exp.seed;
          cc.call_index = repeat;
          std::optional<emul::EmulatedCall> call;
          rtcc::filter::FilterConfig fcfg;
          {
            Scope span(t, "emul");
            call = emul::emulate_call(cc);
            fcfg = emul::filter_config_for(*call);
          }
          analyze(call->trace, fcfg, r.per_app[app]);
          Scope span(t, "emul");  // the trace's teardown
          call.reset();
        }
    for (const auto& spec : emul::scenario_catalogue())
      for (int repeat = 0; repeat < copts_.scenario_repeats; ++repeat) {
        emul::ScenarioOptions sopts;
        sopts.media_scale = exp.media_scale;
        sopts.call_s = exp.call_s;
        sopts.seed = exp.seed + 9000 + static_cast<std::uint64_t>(repeat);
        std::optional<emul::Scenario> scen;
        {
          Scope span(t, "emul");
          scen = spec.build(sopts);
        }
        analyze(scen->trace, scen->cfg, r.per_scenario[spec.name]);
        Scope span(t, "emul");
        scen.reset();
      }
    root.reset();
    if (counts != nullptr) {
      counts->frames = frames;
      for (const auto& [app, a] : r.per_app) count_analysis(*counts, a);
      for (const auto& [name, a] : r.per_scenario) count_analysis(*counts, a);
    }
    return corpus_digest(r) == reference_;
  }

  Options opts_;
  report::CorpusOptions copts_;     // the program's defaults
  report::CorpusOptions measured_;  // the same matrix on one thread
  std::uint64_t reference_ = 0;
  double input_mb_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_corpus(const Options& opts) {
  return std::make_unique<Corpus>(opts);
}

}  // namespace rtccbench
