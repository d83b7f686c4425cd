// Kept only because the benchmark harness (rtccbench/) still reports it
// on its context line; the streaming engine has no shard workers.
#pragma once

#include <cstddef>

namespace rtcc::report {

/// Always 1: flows are analyzed on the shared thread pool.
[[nodiscard]] inline std::size_t shard_count() { return 1; }

}  // namespace rtcc::report
