// rtccbench — the rtcc benchmark: one command per workload run.
//
//   rtccbench --workload corpus|capture|service --seed N --seconds S
//             --trace 0|1 --workdir DIR [--tiny] [--commit C]
//             [--source-digest D]
//
// Prints a context line (build, machine, every RTCC_* knob), notes, and
// as its last line one JSON result {correct, attempted, failed,
// metrics}. --trace 0 gives the end-to-end metrics, --trace 1 the
// per-layer metrics of the traced serial replay (the first traced
// pass's spans are written to DIR/spans-<workload>.tsv). The benchmark sets no RTCC_* variable, so
// the program runs at its defaults. See README.md.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dpi/simd_dispatch.hpp"
#include "net/arena.hpp"
#include "net/packet_batch.hpp"
#include "report/corpus.hpp"
#include "report/shard.hpp"
#include "service/daemon.hpp"
#include "stats.hpp"
#include "stream/stream_mode.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

extern char** environ;

namespace rtccbench {
namespace {

/// Fresh child processes per run that time the cold first pass;
/// setup_s is the fastest of them (see measure_closed_loop), peak_rss_mb
/// their median.
constexpr int kColdRuns = 5;

struct Args {
  std::string workload;
  Options opts;
  bool trace = false;
  bool cold = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::vector<std::string> argv;  // as given, for cold children
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rtccbench: %s\nusage: rtccbench --workload corpus|capture|"
               "service --seed N --seconds S --trace 0|1 --workdir DIR "
               "[--tiny] [--commit C] [--source-digest D]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    a.argv.push_back(k);
    if (k == "--tiny") {
      a.opts.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    a.argv.push_back(v);
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.opts.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (k == "--seconds") {
      a.opts.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && a.opts.seconds > 0.0;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--workdir") {
      a.opts.workdir = v;
    } else if (k == "--cold") {
      a.cold = true;
      a.opts.cold_index = std::atoi(v.c_str());
    } else if (k == "--commit") {
      a.commit = v;
    } else if (k == "--source-digest") {
      a.source_digest = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (!have_seed) usage("--seed needs a whole number");
  if (!have_seconds) usage("--seconds needs a positive number");
  if (a.opts.workdir.empty()) usage("--workdir is required");
  return a;
}

std::unique_ptr<Workload> make(const Args& a) {
  if (a.workload == "corpus") return make_corpus(a.opts);
  if (a.workload == "capture") return make_capture(a.opts);
  if (a.workload == "service") return make_service(a.opts);
  usage(("unknown workload '" + a.workload + "'").c_str());
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Every RTCC_* knob: its environment value (null when unset) and the
/// value the library actually resolves.
std::string knob_context() {
  namespace report = rtcc::report;
  const auto exp = report::experiment_config_from_env();
  const auto corpus = report::corpus_options_from_env();
  const auto sopts = rtcc::stream::stream_options_from_env();
  const std::vector<std::pair<const char*, std::string>> knobs = {
      {"RTCC_SCALE", num(exp.media_scale)},
      {"RTCC_REPEATS", num(corpus.experiment.repeats)},
      {"RTCC_SEED", num(static_cast<double>(exp.seed))},
      {"RTCC_PARALLEL", exp.exec == report::ExecMode::kSerial ? "0" : "1"},
      {"RTCC_THREADS",
       num(rtcc::util::ThreadPool::shared().worker_count())},
      {"RTCC_MAX_LIVE", num(static_cast<double>(corpus.max_live_traces))},
      {"RTCC_SCENARIOS", num(corpus.scenario_repeats)},
      {"RTCC_ARENA", rtcc::net::arena_enabled() ? "1" : "0"},
      {"RTCC_BATCH", num(static_cast<double>(rtcc::net::batch_size()))},
      {"RTCC_SIMD", json_string(rtcc::dpi::to_string(rtcc::dpi::simd_level()))},
      {"RTCC_SHARDS", num(static_cast<double>(report::shard_count()))},
      {"RTCC_STREAM", rtcc::stream::stream_enabled() ? "1" : "0"},
      {"RTCC_STREAM_FLOWS", num(static_cast<double>(sopts.max_flows))},
      {"RTCC_STREAM_IDLE", num(sopts.idle_timeout_s)},
      {"RTCC_STREAM_CHUNK", num(static_cast<double>(sopts.chunk_bytes))},
      {"RTCC_SERVICE_EPOCH", num(rtcc::service::service_epoch_from_env())},
      {"RTCC_PREFETCH_AHEAD",
       num(static_cast<double>(rtcc::net::kPrefetchAhead))},
  };
  std::string out = "{";
  for (const auto& [name, effective] : knobs) {
    const char* env = std::getenv(name);
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"env\": " +
           (env != nullptr ? json_string(env) : "null") +
           ", \"effective\": " + effective + "}";
  }
  return out + "}";
}

void print_context(const Args& a) {
  std::printf(
      "{\"context\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"tiny\": %s, \"commit\": %s, \"source_digest\": %s, "
      "\"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
      "\"cxx_flags\": %s, \"knobs\": %s}}\n",
      json_string(a.workload).c_str(),
      static_cast<unsigned long long>(a.opts.seed),
      num(a.opts.seconds).c_str(), a.trace ? 1 : 0,
      a.opts.tiny ? "true" : "false", json_string(a.commit).c_str(),
      json_string(a.source_digest).c_str(),
      std::thread::hardware_concurrency(),
      json_string(RTCCBENCH_COMPILER).c_str(),
      json_string(RTCCBENCH_BUILD_TYPE).c_str(),
      json_string(RTCCBENCH_CXX_FLAGS).c_str(), knob_context().c_str());
  std::fflush(stdout);
}

/// Runs this binary again with --cold and parses its result line.
ColdResult run_cold_child(const Args& a, int index) {
  std::vector<std::string> args = {"/proc/self/exe"};
  args.insert(args.end(), a.argv.begin(), a.argv.end());
  args.emplace_back("--cold");
  args.emplace_back(std::to_string(index));
  std::vector<char*> cargs;
  for (auto& s : args) cargs.push_back(s.data());
  cargs.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, cargs[0], &fa, nullptr, cargs.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  std::string text;
  if (rc == 0) {
    char buf[4096];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) > 0)
      text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (rc != 0) throw std::runtime_error("cannot start cold child");
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("cold child failed");
  ColdResult r;
  unsigned long long dig = 0;
  const auto at = text.rfind("cold ");
  if (at == std::string::npos ||
      std::sscanf(text.c_str() + at, "cold %lf %lf %llu", &r.setup_s,
                  &r.peak_rss_mb, &dig) != 3)
    throw std::runtime_error("cold child printed no result");
  r.digest = dig;
  return r;
}

void print_result(const Outcome& out, const std::vector<Metric>& metrics) {
  for (const auto& note : out.notes) std::printf("# %s\n", note.c_str());
  std::string m;
  for (const auto& metric : metrics) {
    if (!m.empty()) m += ", ";
    m += json_string(metric.name) + ": {\"value\": " + num(metric.value) +
         ", \"unit\": " + json_string(metric.unit) + "}";
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), m.c_str());
}

int run(const Args& a) {
  auto w = make(a);
  if (a.cold) {
    const ColdResult r = w->cold();
    std::printf("cold %.17g %.17g %llu\n", r.setup_s, r.peak_rss_mb,
                static_cast<unsigned long long>(r.digest));
    return 0;
  }
  print_context(a);
  w->setup();
  Outcome out;
  std::vector<Metric> metrics;
  if (a.trace) {
    Tracer tracer;
    out = w->traced(tracer);
    metrics = out.metrics;
    const std::string spans = a.opts.workdir + "/spans-" + a.workload + ".tsv";
    if (!tracer.write(spans, 0)) throw std::runtime_error("cannot write " + spans);
  } else {
    std::vector<double> setup_s, rss_mb;
    for (int i = 0; i < kColdRuns; ++i) {
      const ColdResult r = run_cold_child(a, i);
      setup_s.push_back(r.setup_s);
      rss_mb.push_back(r.peak_rss_mb);
      ++out.attempted;
      if (r.digest != w->cold_reference(i)) ++out.failed;
    }
    Outcome steady = w->measure();
    out.attempted += steady.attempted;
    out.failed += steady.failed;
    out.notes = steady.notes;
    out.notes.push_back("cold runs=" + std::to_string(kColdRuns));
    // End-to-end metrics in BENCHMARK.json order.
    const auto find = [&](const char* name) {
      for (const auto& m : steady.metrics)
        if (m.name == name) return m;
      throw std::logic_error(std::string("workload lacks metric ") + name);
    };
    metrics = {find("mb_per_s"),
               find("cpu_s_per_gb"),
               {"peak_rss_mb", median(rss_mb), "MB"},
               {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()),
                "s"}};
  }
  for (auto& m : metrics) {
    if (std::isfinite(m.value)) continue;
    out.notes.push_back("metric " + m.name + " is not finite");
    m.value = 0.0;
    ++out.failed;
  }
  print_result(out, metrics);
  return 0;
}

}  // namespace
}  // namespace rtccbench

int main(int argc, char** argv) {
  const auto args = rtccbench::parse(argc, argv);
  try {
    return rtccbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtccbench: %s\n", e.what());
    return 1;
  }
}
