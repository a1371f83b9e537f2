// Real-clock stall smoke test. The deterministic stall-vs-deadline
// verdicts live in test_pipelined_executor.cc under SimClock; this keeps
// one wall-clock variant alive so the RealClock wait/interrupt plumbing
// (std::condition_variable timeouts, real watchdog pacing) stays
// exercised. It asserts only load-tolerant facts — the run completes and
// the stalled camera degrades — never exact counters, and it is
// registered serially under a ctest RESOURCE_LOCK so suite parallelism
// cannot starve its deadlines.

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "sim/scenario.h"

namespace dievent {
namespace {

// Sanitizer builds run the pipeline several times slower; the deadline
// scales so a healthy read still fits its budget.
#ifndef __has_feature
#define __has_feature(x) 0  // GCC signals sanitizers via __SANITIZE_*__
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__) || \
    __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr double kTimingSlack = 10.0;
#else
constexpr double kTimingSlack = 1.0;
#endif

TEST(StallSmoke, RealClockDeadlineCutsOffAStalledCamera) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt;
  opt.mode = PipelineMode::kFullVision;
  opt.frame_stride = 100;  // 7 synchronized reads
  opt.eye_contact.angular_tolerance_deg = 12.0;
  opt.analyze_emotions = false;
  opt.parse_video = false;
  opt.camera_faults.resize(4);
  opt.camera_faults[1].stall_probability = 1.0;
  opt.camera_faults[1].stall_duration_s = 0.5 * kTimingSlack;
  opt.acquisition.read_deadline_s = 0.03 * kTimingSlack;
  opt.acquisition.retry_budget = 0;
  opt.num_threads = 2;

  MetadataRepository repo;
  auto report = DiEventPipeline(&scene, opt).Run(&repo);
  ASSERT_TRUE(report.ok()) << report.status();
  // Load-tolerant assertions only: every frame was analyzed (the other
  // three cameras always deliver), and the stalled camera degraded at
  // least one set. Exact miss counts belong to the SimClock tests.
  EXPECT_EQ(report.value().frames_processed, 7);
  EXPECT_GT(report.value().degradation.frames_degraded, 0);
  EXPECT_GT(report.value().degradation.deadline_misses, 0);
}

}  // namespace
}  // namespace dievent
