// Shared scaffolding for the table/figure reproduction benches.
//
// Every bench runs the same experiment matrix the paper used (6 apps ×
// 3 network configs × N repeats of 5-minute calls) on the emulator,
// then renders one table or figure. RTCC_SCALE / RTCC_REPEATS / RTCC_SEED
// environment variables trade fidelity for speed without recompiling.
#pragma once

#include <chrono>
#include <cstdio>

#include "report/corpus.hpp"
#include "report/figures.hpp"
#include "report/tables.hpp"

namespace rtcc::bench {

inline report::AppResults run_matrix(const char* banner) {
  auto cfg = report::experiment_config_from_env();
  std::printf("%s\n", banner);
  std::printf("experiment: %zu apps x %zu networks x %d repeats, "
              "media_scale=%.3f\n\n",
              cfg.apps.size(), cfg.networks.size(), cfg.repeats,
              cfg.media_scale);
  const auto start = std::chrono::steady_clock::now();
  auto results = report::run_experiment(cfg);
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  std::uint64_t frames = 0;
  for (const auto& [app, a] : results)
    frames += a.raw_udp_datagrams + a.raw_tcp_segments;
  std::printf("[generated+analyzed %llu packets in %.2f s]\n\n",
              static_cast<unsigned long long>(frames), elapsed);
  return results;
}

}  // namespace rtcc::bench
