// Scenario catalogue — every workload beyond the 6×3 app matrix, in
// one registry that the oracles iterate automatically.
//
// A Scenario is a generated trace plus the filter config that analyzes
// it; a ScenarioSpec is its catalogue entry (name, summary, builder).
// Registration here is what makes a new workload real: the metamorphic
// driver (testkit::meta) runs every catalogue entry through the
// transform × oracle grid, test_scenario_matrix pins streaming (serial
// and pooled) parity per entry, the corpus runner appends per-scenario rows to the
// compliance matrix (CorpusOptions::scenario_repeats), and
// examples/scenario_pcap writes any entry as a pcap for `rtccd` — so a
// scenario is born with oracle coverage or it doesn't exist.
//
// The first kTier1Scenarios entries are the tier-1 slice (one per
// scenario family: SFU conference, mobility, weather); the full set
// runs in the nightly/full sweeps.
#pragma once

#include <string>

#include "emul/app_model.hpp"

namespace rtcc::emul {

struct Scenario {
  std::string name;
  rtcc::net::Trace trace;
  /// Ground-truth labels per frame; empty when the generator cannot
  /// label (weather-composed scenarios drop/duplicate frames, which
  /// invalidates positional labels).
  std::vector<TruthKind> truth;
  rtcc::filter::FilterConfig cfg;
};

/// Generation knobs shared by every catalogue builder; defaults are
/// sized for tests (the corpus runner passes its experiment's scale).
struct ScenarioOptions {
  double media_scale = 0.02;
  double call_s = 45.0;
  double pre_call_s = 5.0;
  double post_call_s = 5.0;
  std::uint64_t seed = 2026;
};

struct ScenarioSpec {
  std::string name;
  std::string summary;
  Scenario (*build)(const ScenarioOptions&) = nullptr;
};

/// Catalogue entries 0..kTier1Scenarios-1 are the tier-1 slice.
inline constexpr std::size_t kTier1Scenarios = 3;

[[nodiscard]] const std::vector<ScenarioSpec>& scenario_catalogue();
[[nodiscard]] const ScenarioSpec* find_scenario(const std::string& name);

}  // namespace rtcc::emul
