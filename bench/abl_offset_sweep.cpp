// Ablation for §4.1.1's offset-limit claim: sweeping the candidate-
// extraction limit k and reporting the validated-message count per
// application. The paper found k=200 reproduces full-payload
// extraction; with our workloads the knee sits at the deepest
// proprietary-header depth (Zoom's 24-39 bytes), after which the curve
// is flat — the same qualitative result.
#include <cstdio>
#include <vector>

#include "report/corpus.hpp"
#include "util/strings.hpp"

int main() {
  using namespace rtcc;
  std::printf("=== Ablation: candidate-extraction offset limit k "
              "(Algorithm 1) ===\n\n");

  const std::vector<std::size_t> ks = {0, 4, 8, 16, 24, 32, 64, 128, 200,
                                       400};
  auto base = report::experiment_config_from_env();

  std::printf("%-13s", "Application");
  for (auto k : ks) std::printf("%10zu", k);
  std::printf("\n%s\n", std::string(13 + 10 * ks.size(), '-').c_str());

  for (auto app : emul::all_apps()) {
    std::printf("%-13s", emul::to_string(app).c_str());
    for (auto k : ks) {
      auto cfg = base;
      cfg.apps = {app};
      cfg.repeats = 1;
      cfg.analysis.scan.max_offset = k;
      auto results = report::run_experiment(cfg);
      std::printf("%10llu",
                  static_cast<unsigned long long>(
                      results.at(app).total_messages()));
    }
    std::printf("\n");
  }
  std::printf(
      "\npaper shape: counts rise until k covers the deepest proprietary\n"
      "header (Zoom 24-39 B, FaceTime 8-19 B) and are flat beyond — the\n"
      "k=200 default equals full-payload extraction.\n");
  return 0;
}
