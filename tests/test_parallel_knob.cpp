// RTCC_PARALLEL reaches every analysis the tools run, not only the
// experiment config: analyze_pcap, scenario_pcap, group_call and rtccd
// build AnalysisOptions{} (rtccd through DaemonOptions{}) directly, so
// the knob must be the default of parallel_streams itself. ctest runs
// this binary with RTCC_PARALLEL=0 (tests/CMakeLists.txt); run by hand
// it checks whatever the environment holds.
#include <gtest/gtest.h>

#include "report/metrics.hpp"
#include "service/daemon.hpp"
#include "util/env_knob.hpp"

namespace {

namespace report = rtcc::report;

TEST(ParallelKnob, EveryDefaultAnalysisFollowsTheKnob) {
  const bool on = rtcc::util::env_knob_bool("RTCC_PARALLEL", true);
  EXPECT_EQ(report::AnalysisOptions{}.parallel_streams, on);
  EXPECT_EQ(rtcc::service::DaemonOptions{}.analysis.parallel_streams, on);
  const auto cfg = report::experiment_config_from_env();
  EXPECT_EQ(cfg.analysis.parallel_streams, on);
  EXPECT_EQ(cfg.exec, on ? report::ExecMode::kPooled
                         : report::ExecMode::kSerial);
}

}  // namespace
