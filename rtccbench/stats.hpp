// Sample statistics and process accounting for the benchmark.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

namespace rtccbench {

struct Quantile {
  double value = 0.0;
  std::size_t n = 0;       // samples
  std::size_t rank = 0;    // 1-based rank of the reported sample
  std::size_t beyond = 0;  // samples strictly above that rank
};

/// Nearest-rank quantile: the sample at 1-based rank ceil(q * n) of the
/// sorted samples, so at least a share q of the samples are at or below
/// it. Sorts `samples` in place. An empty set gives a zero Quantile.
inline Quantile quantile(std::vector<double>& samples, double q) {
  Quantile out;
  out.n = samples.size();
  if (out.n == 0) return out;
  std::sort(samples.begin(), samples.end());
  const double exact = q * static_cast<double>(out.n);
  // Shave float noise so q * n landing on an integer (0.99 * 100)
  // keeps that integer rank instead of rounding up past it.
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, out.n);
  out.rank = rank;
  out.beyond = out.n - rank;
  out.value = samples[rank - 1];
  return out;
}

/// The tail a sample set resolves: the nearest-rank quantile q when at
/// least `min_beyond` samples lie above it, else the highest rank that
/// keeps `min_beyond` above it, but never below the median's rank. A
/// timing's tail is only as good as the samples beyond it; with 600k
/// frames this is the p99 itself, with 40 passes it is about p75.
inline Quantile resolved_tail(std::vector<double>& samples, double q,
                              std::size_t min_beyond) {
  Quantile out = quantile(samples, q);
  if (out.n == 0 || out.beyond >= min_beyond) return out;
  const std::size_t floor_rank = (out.n + 1) / 2;
  out.rank = out.n > min_beyond ? std::max(out.n - min_beyond, floor_rank)
                                : floor_rank;
  out.beyond = out.n - out.rank;
  out.value = samples[out.rank - 1];  // sorted by quantile()
  return out;
}

/// Middle value; the mean of the two middle values for an even count.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// User + system CPU seconds of the whole process (all threads).
inline double process_cpu_s() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident set (VmHWM) of this process in MB; 0 if unreadable.
inline double vmhwm_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  std::fclose(f);
  return static_cast<double>(kib) * 1024.0 / 1e6;
}

}  // namespace rtccbench
