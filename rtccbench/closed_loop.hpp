// Pass loops shared by the closed-loop workloads (corpus, capture).
#pragma once

#include <functional>

#include "stats.hpp"
#include "workload.hpp"

namespace rtccbench {

/// One timed pass: wall and process CPU of the timed region, whether
/// its output matched the reference, and the size of its input.
struct PassTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  bool ok = false;
  double input_mb = 0.0;
};

/// Times `body` (wall and process CPU); `check` then judges its result
/// outside the timed region.
template <class Body, class Check>
PassTime timed_pass(Body&& body, Check&& check) {
  const double w0 = now_s();
  const double c0 = process_cpu_s();
  auto result = body();
  PassTime t;
  t.wall_s = now_s() - w0;
  t.cpu_s = process_cpu_s() - c0;
  t.ok = check(result);
  return t;
}

/// Runs steady passes for opts.seconds (at least three) and reports
/// mb_per_s and cpu_s_per_gb of the run's best pass (highest and
/// lowest).
Outcome measure_closed_loop(const Options& opts,
                            const std::function<PassTime()>& pass);

/// The traced run of a closed-loop workload. Each cycle runs the
/// traced serial replay, an untraced serial pass and an untraced
/// default pass, until opts.seconds are used (at least one cycle).
/// `traced` wraps its replay in one root span named "bench.pass",
/// checks the output after closing it, and fills `counts` when non-null
/// (the first cycle). `rep` receives the per-layer figures.
Outcome trace_closed_loop(
    const Options& opts, Tracer& tracer,
    const std::function<bool(Tracer&, LayerReport* counts)>& traced,
    const std::function<PassTime()>& serial,
    const std::function<PassTime()>& dflt, LayerReport& rep);

}  // namespace rtccbench
