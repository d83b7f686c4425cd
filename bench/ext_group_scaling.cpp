// Extension (the paper's §2 future work): compliance analysis of
// N-party SFU group calls. Prints the per-participant-count scaling of
// streams, messages and compliance — a table the paper defers to future
// work, generated here from the group-call emulator.
#include <cstdio>
#include <cstdlib>

#include "emul/sfu.hpp"
#include "report/metrics.hpp"

int main() {
  double scale = 0.02;
  if (const char* env = std::getenv("RTCC_SCALE"))
    scale = std::strtod(env, nullptr);

  std::printf("=== Extension: group-call (SFU) compliance scaling ===\n");
  std::printf("(media_scale=%.3f, one participant churns per call)\n\n",
              scale);
  std::printf("%12s %12s %12s %12s %12s %10s\n", "participants",
              "RTC streams", "datagrams", "messages", "RTCP msgs",
              "compliant");
  std::printf("%s\n", std::string(76, '-').c_str());

  for (int n : {3, 4, 5, 6, 8}) {
    rtcc::emul::SfuConfig cfg;
    cfg.participants = n;
    cfg.media_scale = scale;
    cfg.seed = 99;
    const auto call = rtcc::emul::emulate_sfu_call(cfg);
    const auto a = rtcc::report::analyze_trace(
        call.trace, rtcc::emul::sfu_filter_config(call));
    std::uint64_t rtcp = 0;
    auto it = a.protocols.find(rtcc::proto::Protocol::kRtcp);
    if (it != a.protocols.end()) rtcp = it->second.messages;
    std::printf("%12d %12zu %12llu %12llu %12llu %9.1f%%\n", n,
                a.rtc_udp.streams,
                static_cast<unsigned long long>(a.rtc_udp.packets),
                static_cast<unsigned long long>(a.total_messages()),
                static_cast<unsigned long long>(rtcp),
                100.0 * static_cast<double>(a.total_compliant()) /
                    static_cast<double>(a.total_messages()));
  }
  std::printf(
      "\nexpected shape: streams grow with participants; RTCP grows\n"
      "super-linearly (every member reports on every other member's\n"
      "sources); the standards-compliant baseline stays at 100%%.\n");
  return 0;
}
