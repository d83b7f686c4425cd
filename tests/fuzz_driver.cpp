// Deterministic fuzz / conformance driver (registered in ctest).
//
//   fuzz_driver --seed N --iters M [--corpus DIR]   seeded fuzz budget
//   fuzz_driver --replay DIR                        corpus regression replay
//   fuzz_driver --golden FILE                       golden-matrix check
//   fuzz_driver --update-golden FILE                refresh the snapshot
//   fuzz_driver --meta | --meta-full                metamorphic invariants
//   fuzz_driver --meta-corpus DIR                   save minimized violations
//   fuzz_driver --report-golden FILE                report-surface snapshot
//   fuzz_driver --update-report-golden FILE         refresh that snapshot
//
// Modes compose: a single invocation can replay the corpus, run a fuzz
// budget and check the golden snapshot; the exit code is non-zero if
// any stage found a violation. All randomness derives from --seed, so
// any CI failure reproduces locally with the same flags.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "dpi/simd_dispatch.hpp"
#include "stream/stream_mode.hpp"
#include "testkit/driver.hpp"
#include "testkit/golden.hpp"
#include "testkit/meta.hpp"
#include "testkit/seeds.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--iters M] [--stream-stride K]\n"
               "          [--corpus DIR] [--replay DIR] [--save-seeds DIR]\n"
               "          [--golden FILE] [--update-golden FILE]\n"
               "          [--meta] [--meta-full] [--meta-corpus DIR]\n"
               "          [--report-golden FILE] "
               "[--update-report-golden FILE]\n",
               argv0);
  return 2;
}

/// Runs the metamorphic driver twice (the double-run determinism
/// requirement: byte-identical reports) and fails on any violation.
int run_meta(const rtcc::testkit::meta::MetaOptions& opts) {
  const auto stats1 = rtcc::testkit::meta::run_meta_driver(opts);
  const auto stats2 = rtcc::testkit::meta::run_meta_driver(opts);
  std::fputs(stats1.report.c_str(), stdout);
  if (stats1.report != stats2.report) {
    std::fprintf(stderr,
                 "meta: determinism violation — two runs with identical "
                 "options produced different reports\n");
    return 1;
  }
  if (!stats1.violations.empty()) {
    for (const auto& v : stats1.violations) {
      if (v.datagrams.empty()) continue;
      std::fprintf(stderr, "minimized reproducer (%s under %s):\n",
                   v.oracle.c_str(), v.transform.c_str());
      for (const auto& d : v.datagrams)
        std::fprintf(stderr, "  %s\n",
                     rtcc::util::to_hex(rtcc::util::BytesView{d}).c_str());
    }
    return 1;
  }
  return 0;
}

int replay_corpus(const std::string& dir) {
  const auto files = rtcc::testkit::list_corpus_files(dir);
  std::size_t violations = 0;
  for (const auto& file : files) {
    std::string error;
    const auto datagrams = rtcc::testkit::load_corpus_file(file, &error);
    if (!datagrams) {
      std::fprintf(stderr, "corpus load failed: %s\n", error.c_str());
      ++violations;
      continue;
    }
    if (auto err = rtcc::testkit::replay_corpus_entry(*datagrams)) {
      std::fprintf(stderr, "REGRESSION %s: %s\n", file.c_str(), err->c_str());
      ++violations;
    }
  }
  std::printf("corpus replay: %zu entries from %s, %zu violations\n",
              files.size(), dir.c_str(), violations);
  return violations == 0 ? 0 : 1;
}

// Writes one clean seed stream per family as a corpus exemplar; the
// replay path then doubles as a conformance check over every wire
// format (the "golden corpus" part of the harness).
int save_seed_exemplars(const std::string& dir) {
  using namespace rtcc::testkit;
  std::filesystem::create_directories(dir);
  rtcc::util::Rng rng(0xc0ffee);
  for (const auto family : all_seed_families()) {
    FuzzFinding f;
    f.description = "clean " + to_string(family) + " seed stream exemplar";
    f.mutator = "none";
    f.seed_family = to_string(family);
    f.datagrams = make_seed_stream(family, rng, 4).datagrams;
    const auto path =
        (std::filesystem::path(dir) / corpus_file_name(f)).string();
    if (!save_corpus_file(path, f)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

int run_fuzz(const rtcc::testkit::DriverOptions& opts) {
  const auto stats = rtcc::testkit::run_fuzz_driver(opts);
  std::printf("fuzz: %llu iterations (seed %llu): %llu buffer checks, "
              "%llu stream checks, %llu strict-subset checks\n",
              static_cast<unsigned long long>(stats.iterations),
              static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(stats.buffer_checks),
              static_cast<unsigned long long>(stats.stream_checks),
              static_cast<unsigned long long>(stats.strict_subset_checks));
  for (const auto& [family, count] : stats.mutations_per_family)
    std::printf("  mutations %-18s %llu\n", family.c_str(),
                static_cast<unsigned long long>(count));
  for (const auto& f : stats.findings) {
    std::fprintf(stderr,
                 "FINDING (iteration %llu, %s seed, %s mutator): %s\n",
                 static_cast<unsigned long long>(f.iteration),
                 f.seed_family.c_str(), f.mutator.c_str(),
                 f.description.c_str());
    for (const auto& d : f.datagrams)
      std::fprintf(stderr, "  %s\n",
                   rtcc::util::to_hex(rtcc::util::BytesView{d}).c_str());
  }
  if (!stats.findings.empty()) {
    std::fprintf(stderr, "fuzz: %zu distinct oracle violations\n",
                 stats.findings.size());
    return 1;
  }
  std::printf("fuzz: zero oracle violations\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Golden snapshots include the per-node pipeline counters, whose
  // prefilter lane popcount is zero at the scalar level (the prefilter
  // node is a pass-through without a kernel). Pin the kernel to the
  // detected level so the snapshots stay byte-identical under RTCC_SIMD
  // overrides (the parity oracles — not the goldens — cover knob
  // equivalence; kernel levels stage identical masks by design).
  const rtcc::dpi::SimdModeGuard simd_guard(rtcc::dpi::detected_simd_level());
  // Streaming pinned off likewise: RTCC_STREAM=1 adds the knob-dependent
  // "flows" diagnostic to report JSON. The stream-parity oracle (a
  // chunk-size / eviction-budget sweep inside run_stream_oracles) covers
  // batch/streaming equivalence.
  const rtcc::stream::StreamModeGuard stream_guard(false);
  rtcc::testkit::DriverOptions opts;
  opts.iters = 0;  // fuzz only when --iters is given
  std::string replay_dir;
  std::string save_seeds_dir;
  std::string golden_path;
  std::string update_golden_path;
  std::string report_golden_path;
  std::string update_report_golden_path;
  bool meta = false;
  rtcc::testkit::meta::MetaOptions meta_opts;

  for (int i = 1; i < argc; ++i) {
    const auto arg = std::string(argv[i]);
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") opts.seed = std::strtoull(value(), nullptr, 10);
    else if (arg == "--iters") opts.iters = std::strtoull(value(), nullptr, 10);
    else if (arg == "--stream-stride")
      opts.stream_stride = std::strtoull(value(), nullptr, 10);
    else if (arg == "--corpus") opts.corpus_dir = value();
    else if (arg == "--replay") replay_dir = value();
    else if (arg == "--save-seeds") save_seeds_dir = value();
    else if (arg == "--golden") golden_path = value();
    else if (arg == "--update-golden") update_golden_path = value();
    else if (arg == "--meta") meta = true;
    else if (arg == "--meta-full") { meta = true; meta_opts.full = true; }
    else if (arg == "--meta-corpus") { meta = true; meta_opts.corpus_dir = value(); }
    else if (arg == "--report-golden") report_golden_path = value();
    else if (arg == "--update-report-golden")
      update_report_golden_path = value();
    else return usage(argv[0]);
  }
  if (replay_dir.empty() && opts.iters == 0 && golden_path.empty() &&
      update_golden_path.empty() && save_seeds_dir.empty() && !meta &&
      report_golden_path.empty() && update_report_golden_path.empty())
    return usage(argv[0]);

  int rc = 0;
  if (!save_seeds_dir.empty()) rc |= save_seed_exemplars(save_seeds_dir);
  if (!replay_dir.empty()) rc |= replay_corpus(replay_dir);
  if (opts.iters > 0) rc |= run_fuzz(opts);
  if (meta) {
    meta_opts.seed = opts.seed != 1 ? opts.seed : meta_opts.seed;
    rc |= run_meta(meta_opts);
  }
  if (!update_report_golden_path.empty()) {
    if (auto err =
            rtcc::testkit::update_report_golden(update_report_golden_path)) {
      std::fprintf(stderr, "update-report-golden: %s\n", err->c_str());
      rc |= 1;
    } else {
      std::printf("report golden snapshot refreshed: %s\n",
                  update_report_golden_path.c_str());
    }
  }
  if (!report_golden_path.empty()) {
    if (auto err = rtcc::testkit::check_report_golden(report_golden_path)) {
      std::fprintf(stderr, "report-golden: %s\n", err->c_str());
      rc |= 1;
    } else {
      std::printf("report golden matches (determinism verified on two "
                  "consecutive runs)\n");
    }
  }
  if (!update_golden_path.empty()) {
    if (auto err = rtcc::testkit::update_golden(update_golden_path)) {
      std::fprintf(stderr, "update-golden: %s\n", err->c_str());
      rc |= 1;
    } else {
      std::printf("golden snapshot refreshed: %s\n",
                  update_golden_path.c_str());
    }
  }
  if (!golden_path.empty()) {
    if (auto err = rtcc::testkit::check_golden(golden_path)) {
      std::fprintf(stderr, "golden: %s\n", err->c_str());
      rc |= 1;
    } else {
      std::printf("golden snapshot matches (determinism verified on two "
                  "consecutive runs)\n");
    }
  }
  return rc;
}
