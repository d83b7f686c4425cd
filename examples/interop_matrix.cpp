// interop_matrix — the paper's §6 discussion made quantitative: if two
// applications had to interoperate (as the EU Digital Markets Act
// demands by 2028), how much of what each one *sends* would the other
// side fail to interpret under a strictly spec-compliant parser?
//
// For every ordered pair (sender, receiver) we compute the fraction of
// the sender's observed messages that are non-compliant — exactly the
// traffic a by-the-RFC receiver implementation cannot be assumed to
// handle — plus the count of distinct quirk types a receiver would need
// bespoke handling for.
#include <cstdio>

#include "report/corpus.hpp"

int main() {
  using namespace rtcc;
  auto cfg = report::experiment_config_from_env();
  std::printf("computing per-app quirk profiles (%d repeats, scale %.3f)"
              "...\n\n",
              cfg.repeats, cfg.media_scale);
  const auto results = report::run_experiment(cfg);

  std::printf("%-13s %18s %22s\n", "Application", "non-compliant msgs",
              "quirk message types");
  std::printf("%s\n", std::string(56, '-').c_str());
  for (const auto& [app, a] : results) {
    std::size_t quirk_types = 0;
    for (const auto& [proto, stats] : a.protocols)
      quirk_types += stats.total_types() - stats.compliant_types();
    const double frac =
        1.0 - static_cast<double>(a.total_compliant()) /
                  static_cast<double>(a.total_messages());
    std::printf("%-13s %17.2f%% %22zu\n", emul::to_string(app).c_str(),
                100.0 * frac, quirk_types);
  }

  // Pairwise view: bespoke adaptation cost ~ quirk types of the sender
  // the receiver must special-case; media interop additionally breaks
  // whenever a sender's RTP itself is non-compliant.
  std::printf("\nadaptation matrix — rows send, columns receive; cell = "
              "quirk types the\nreceiver must special-case to parse the "
              "sender (— on the diagonal):\n\n");
  std::printf("%-13s", "");
  for (const auto& [app, a] : results)
    std::printf("%12.10s", emul::to_string(app).c_str());
  std::printf("\n");
  for (const auto& [sender, sa] : results) {
    std::printf("%-13s", emul::to_string(sender).c_str());
    std::size_t quirks = 0;
    for (const auto& [proto, stats] : sa.protocols)
      quirks += stats.total_types() - stats.compliant_types();
    for (const auto& [receiver, ra] : results) {
      if (sender == receiver) {
        std::printf("%12s", "-");
      } else {
        std::printf("%12zu", quirks);
      }
    }
    std::printf("\n");
  }

  std::printf(
      "\nreading: Discord/FaceTime rows are the hardest senders to accept\n"
      "(every RTP message deviates), matching §6's conclusion that each\n"
      "application would need bespoke parsers for every other's quirks.\n");
  return 0;
}
