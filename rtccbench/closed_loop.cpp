#include "closed_loop.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "stats.hpp"

namespace rtccbench {

namespace {

constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kTailBeyond = 10;  // samples beyond a reported tail
constexpr double kMinCoverage = 0.95;

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

/// Self time of every program layer in one pass (spans not named
/// "bench.*" — the benchmark's own glue and bookkeeping).
double program_self_s(const Tracer& tracer, int pass) {
  double sum = 0.0;
  for (const auto& [name, s] : self_times(tracer.spans(), pass))
    if (name.rfind("bench.", 0) != 0) sum += s;
  return sum;
}

}  // namespace

Outcome measure_closed_loop(const Options& opts,
                            const std::function<PassTime()>& pass) {
  Outcome out;
  std::vector<double> walls_ms, mbps, cpu_gb;
  double input_mb = 0.0;
  const double t_end = now_s() + opts.seconds;
  while (now_s() < t_end || walls_ms.size() < kMinPasses) {
    const PassTime t = pass();
    ++out.attempted;
    if (!t.ok) ++out.failed;
    input_mb += t.input_mb;
    walls_ms.push_back(t.wall_s * 1e3);
    mbps.push_back(t.input_mb / t.wall_s);
    cpu_gb.push_back(t.cpu_s / (t.input_mb / 1e3));
  }
  // The fastest pass: on a shared host other tenants only ever slow a
  // pass down, by up to 1.6x for seconds at a time, so the best pass of
  // a run is the steadiest estimate of what the program itself costs.
  out.metrics = {
      {"mb_per_s", *std::max_element(mbps.begin(), mbps.end()), "MB/s"},
      {"cpu_s_per_gb", *std::min_element(cpu_gb.begin(), cpu_gb.end()),
       "s/GB"},
  };
  out.notes.push_back(fmt("passes=%.0f mean input_mb=%.3f",
                          static_cast<double>(walls_ms.size()),
                          input_mb / static_cast<double>(walls_ms.size())));
  std::string walls = "pass_ms in order:", cpus = "cpu_s_per_gb in order:";
  for (std::size_t i = 0; i < walls_ms.size(); ++i) {
    walls += fmt(" %.1f", walls_ms[i]);
    cpus += fmt(" %.3f", cpu_gb[i]);
  }
  out.notes.push_back(walls);
  out.notes.push_back(cpus);
  std::vector<double> sorted = walls_ms;
  const Quantile p50 = quantile(sorted, 0.50);
  const Quantile tail = resolved_tail(sorted, 0.99, kTailBeyond);
  out.notes.push_back(fmt("pass_ms median=%.3f of %.0f passes", p50.value,
                          static_cast<double>(p50.n)));
  out.notes.push_back(fmt("pass_ms tail=%.3f: rank %.0f, %.0f beyond",
                          tail.value, static_cast<double>(tail.rank),
                          static_cast<double>(tail.beyond)));
  return out;
}

Outcome trace_closed_loop(
    const Options& opts, Tracer& tracer,
    const std::function<bool(Tracer&, LayerReport* counts)>& traced,
    const std::function<PassTime()>& serial,
    const std::function<PassTime()>& dflt, LayerReport& rep) {
  Outcome out;
  std::vector<double> traced_wall, serial_wall, dflt_wall, dflt_cpu, work;
  const double t_end = now_s() + opts.seconds;
  int passes = 0;
  do {
    tracer.begin_pass(passes);
    const std::size_t first = tracer.spans().size();
    const bool ok = traced(tracer, passes == 0 ? &rep : nullptr);
    for (std::size_t i = first; i < tracer.spans().size(); ++i)
      if (tracer.spans()[i].parent < 0)
        traced_wall.push_back(tracer.spans()[i].end - tracer.spans()[i].start);
    work.push_back(program_self_s(tracer, passes));
    const PassTime s = serial();
    const PassTime d = dflt();
    serial_wall.push_back(s.wall_s);
    dflt_wall.push_back(d.wall_s);
    dflt_cpu.push_back(d.cpu_s);
    out.attempted += 3;
    out.failed += (ok ? 0 : 1) + (s.ok ? 0 : 1) + (d.ok ? 0 : 1);
    ++passes;
  } while (now_s() < t_end);

  summarize_spans(tracer, passes, rep);
  rep.trace_overhead = median(traced_wall) / median(serial_wall) - 1.0;
  rep.cpu_overhead = median(dflt_cpu) / median(work);
  rep.speedup = median(work) / median(dflt_wall);
  ++out.attempted;
  if (rep.span_coverage < kMinCoverage) ++out.failed;
  out.metrics = layer_metrics(rep);
  out.notes.push_back(fmt("traced cycles=%.0f span coverage=%.4f",
                          static_cast<double>(passes), rep.span_coverage));
  return out;
}

}  // namespace rtccbench
