// Run-loop schedule tests: with worker threads enabled (num_threads > 1),
// the pipeline's pooled window must produce byte-identical
// reports and repository contents to the inline (sequential reference)
// schedule — on clean runs, under injected faults, and on the failure
// paths (a below-quorum collapse or a cancellation must stop at the same
// frame with the same message). Both schedules are also checked against
// a replay built from public calls only, which shares no executor code.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/cancellation.h"
#include "core/frame_analyzer.h"
#include "core/pipeline.h"
#include "sim/scenario.h"

namespace dievent {
namespace {

PipelineOptions BaseOptions() {
  PipelineOptions opt;
  opt.mode = PipelineMode::kFullVision;
  opt.frame_stride = 10;  // 61 frames
  opt.eye_contact.angular_tolerance_deg = 12.0;
  opt.analyze_emotions = false;
  opt.parse_video = false;
  return opt;
}

/// One shared recognizer so no run pays for training (and all runs agree
/// on the network bit for bit).
const EmotionRecognizer& SharedRecognizer() {
  static const EmotionRecognizer* recognizer = [] {
    EmotionRecognizerOptions opt;
    opt.hidden_units = 16;
    opt.samples_per_class = 24;
    opt.train.epochs = 6;
    Rng rng(42);
    auto trained = EmotionRecognizer::Train(opt, &rng);
    EXPECT_TRUE(trained.ok()) << trained.status();
    return new EmotionRecognizer(std::move(trained).TakeValue());
  }();
  return *recognizer;
}

struct RunResult {
  DiEventReport report;
  MetadataRepository repo;
};

RunResult RunPipeline(const DiningScene& scene, PipelineOptions opt,
                      int threads) {
  opt.num_threads = threads;
  RunResult out;
  auto report = DiEventPipeline(&scene, opt).Run(&out.repo);
  EXPECT_TRUE(report.ok()) << report.status();
  if (report.ok()) out.report = std::move(report).TakeValue();
  return out;
}

/// Stage timings are wall-clock and differ run to run by construction;
/// everything else in the summary must match byte for byte.
void ZeroTimings(DiEventReport* report) { report->timings = StageTimings{}; }

/// Supervisor mechanism counters (deadline misses, watchdog interrupts,
/// reader restarts, queue depth) measure wall-clock behavior of stalled
/// reads, not folded outcomes; under stall faults they are the only
/// fields allowed to differ between executors.
void ZeroMechanismCounters(DiEventReport* report) {
  report->degradation.deadline_misses = 0;
  report->degradation.watchdog_interrupts = 0;
  report->degradation.reader_restarts = 0;
  report->degradation.max_queue_depth = 0;
}

void ExpectSameRepository(const MetadataRepository& a,
                          const MetadataRepository& b) {
  ASSERT_EQ(a.lookat_records().size(), b.lookat_records().size());
  for (size_t i = 0; i < a.lookat_records().size(); ++i) {
    const LookAtRecord& x = a.lookat_records()[i];
    const LookAtRecord& y = b.lookat_records()[i];
    EXPECT_EQ(x.frame, y.frame) << "lookat record " << i;
    EXPECT_EQ(x.timestamp_s, y.timestamp_s) << "lookat record " << i;
    EXPECT_TRUE(x.cells == y.cells) << "lookat record " << i;
  }
  ASSERT_EQ(a.emotion_records().size(), b.emotion_records().size());
  for (size_t i = 0; i < a.emotion_records().size(); ++i) {
    const EmotionRecord& x = a.emotion_records()[i];
    const EmotionRecord& y = b.emotion_records()[i];
    EXPECT_EQ(x.frame, y.frame) << "emotion record " << i;
    EXPECT_EQ(x.participant, y.participant) << "emotion record " << i;
    EXPECT_EQ(x.emotion, y.emotion) << "emotion record " << i;
    EXPECT_EQ(x.confidence, y.confidence) << "emotion record " << i;
  }
  ASSERT_EQ(a.overall_records().size(), b.overall_records().size());
  for (size_t i = 0; i < a.overall_records().size(); ++i) {
    const OverallEmotionRecord& x = a.overall_records()[i];
    const OverallEmotionRecord& y = b.overall_records()[i];
    EXPECT_EQ(x.frame, y.frame) << "overall record " << i;
    EXPECT_EQ(x.overall_happiness, y.overall_happiness)
        << "overall record " << i;
    EXPECT_EQ(x.mean_valence, y.mean_valence) << "overall record " << i;
    EXPECT_EQ(x.observed, y.observed) << "overall record " << i;
  }
}

void ExpectSameRun(RunResult reference, RunResult candidate) {
  ZeroTimings(&reference.report);
  ZeroTimings(&candidate.report);
  EXPECT_EQ(reference.report.Summary(), candidate.report.Summary());
  EXPECT_EQ(reference.report.frames_processed,
            candidate.report.frames_processed);
  EXPECT_EQ(reference.report.accuracy.lookat_cell_accuracy,
            candidate.report.accuracy.lookat_cell_accuracy);
  EXPECT_EQ(reference.report.accuracy.mean_gaze_error_deg,
            candidate.report.accuracy.mean_gaze_error_deg);
  EXPECT_EQ(reference.report.accuracy.emotion_accuracy,
            candidate.report.accuracy.emotion_accuracy);
  EXPECT_EQ(reference.report.degradation.frames_degraded,
            candidate.report.degradation.frames_degraded);
  EXPECT_EQ(reference.report.degradation.frames_skipped,
            candidate.report.degradation.frames_skipped);
  ExpectSameRepository(reference.repo, candidate.repo);
}

TEST(PipelinedExecutor, CleanRunMatchesSequentialBitForBit) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = BaseOptions();
  opt.analyze_emotions = true;
  opt.recognizer = &SharedRecognizer();
  opt.parse_video = true;

  RunResult sequential = RunPipeline(scene, opt, /*threads=*/1);
  EXPECT_GT(sequential.repo.emotion_records().size(), 0u);
  EXPECT_GT(sequential.report.structure.num_frames, 0);
  // The smallest pooled window (2) and a wider one must both reproduce
  // the sequential run exactly.
  for (int threads : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ExpectSameRun(sequential, RunPipeline(scene, opt, threads));
  }
}

TEST(PipelinedExecutor, OutageAndDropFaultsMatchSequential) {
  // Fault folding (retries, hold-last-good, breaker transitions) is part
  // of the determinism contract: the pooled window admits frames through
  // the identical admission/read/fold sequence, in frame order, so even
  // degraded runs match exactly.
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = BaseOptions();
  opt.camera_faults.resize(4);
  opt.camera_faults[1].seed = 404;
  opt.camera_faults[1].drop_probability = 0.2;
  opt.camera_faults[2].flaky_windows = {{15, 35}};
  opt.camera_faults[3].outage_after_frame = 400;
  opt.acquisition.retry_budget = 1;
  opt.acquisition.min_camera_quorum = 2;
  opt.acquisition.quarantine_after = 2;

  RunResult sequential = RunPipeline(scene, opt, 1);
  EXPECT_GT(sequential.report.degradation.frames_degraded, 0);
  RunResult pipelined = RunPipeline(scene, opt, 4);
  EXPECT_EQ(sequential.report.degradation.camera_drops,
            pipelined.report.degradation.camera_drops);
  EXPECT_EQ(sequential.report.degradation.retries_spent,
            pipelined.report.degradation.retries_spent);
  EXPECT_EQ(sequential.report.degradation.quarantine_events,
            pipelined.report.degradation.quarantine_events);
  ExpectSameRun(std::move(sequential), std::move(pipelined));
}

TEST(PipelinedExecutor, StallFaultsMatchSequentialOutcomes) {
  // A stalled camera is cut off by the read deadline in both executors.
  // The folded outcomes (missing slots, degraded frames, breaker state)
  // must match; only the mechanism counters may differ. Every run gets a
  // fresh auto-advancing SimClock, so the stall and the deadline are
  // simulated: the 0.5s stall costs no wall time, and the verdicts no
  // longer depend on machine load (this test was the suite's one flake
  // under parallel ctest).
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = BaseOptions();
  opt.frame_stride = 100;  // 7 synchronized reads
  opt.camera_faults.resize(4);
  opt.camera_faults[1].stall_probability = 1.0;
  opt.camera_faults[1].stall_duration_s = 0.5;
  opt.acquisition.read_deadline_s = 0.03;
  opt.acquisition.retry_budget = 0;

  auto run_simulated = [&](int threads) {
    SimClock::Options sim_options;
    sim_options.auto_advance = true;
    SimClock sim(sim_options);
    PipelineOptions sim_opt = opt;
    sim_opt.clock = &sim;
    return RunPipeline(scene, sim_opt, threads);
  };
  RunResult sequential = run_simulated(1);
  RunResult pipelined = run_simulated(4);
  EXPECT_GT(sequential.report.degradation.frames_degraded, 0);
  ZeroMechanismCounters(&sequential.report);
  ZeroMechanismCounters(&pipelined.report);
  ExpectSameRun(std::move(sequential), std::move(pipelined));
}

TEST(PipelinedExecutor, CollapseFailsAtTheSameFrameWithTheSameMessage) {
  // Below-quorum collapse: the pipelined executor must drain in-flight
  // frames and surface the identical error — same frame index, same
  // quarantine snapshot — as the sequential one.
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = BaseOptions();
  opt.camera_faults.resize(4);
  for (auto& spec : opt.camera_faults) spec.outage_after_frame = 100;
  opt.acquisition.min_camera_quorum = 2;
  opt.acquisition.quarantine_after = 2;
  opt.acquisition.readmit_after = 0;  // cameras never come back
  opt.acquisition.max_consecutive_below_quorum = 5;

  auto fail = [&](int threads) {
    PipelineOptions run = opt;
    run.num_threads = threads;
    MetadataRepository repo;
    auto report = DiEventPipeline(&scene, run).Run(&repo);
    EXPECT_FALSE(report.ok());
    return report.status();
  };
  Status sequential = fail(1);
  EXPECT_EQ(sequential.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(sequential.message().find("collapsed"), std::string::npos);
  for (int threads : {2, 4}) {
    Status pipelined = fail(threads);
    EXPECT_EQ(pipelined.code(), sequential.code());
    EXPECT_EQ(pipelined.message(), sequential.message())
        << "threads=" << threads;
  }
}

TEST(PipelinedExecutor, RejectsThreadCountBelowOne) {
  // num_threads below 1 is rejected, not clamped to 1.
  DiningScene scene = MakeMeetingScenario();
  for (int threads : {0, -1}) {
    PipelineOptions opt = BaseOptions();
    opt.num_threads = threads;
    MetadataRepository repo;
    auto report = DiEventPipeline(&scene, opt).Run(&repo);
    ASSERT_FALSE(report.ok()) << "threads=" << threads;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
        << "threads=" << threads;
  }
}

TEST(PipelinedExecutor, CancelFromCommitHookStopsAfterTheSameFrame) {
  // A cancel fired from on_frame_committed at frame k must name the first
  // frame not committed, k + stride, whatever the window size, and leave
  // exactly the frames up to k in the repository.
  constexpr int kCancelAt = 200;
  const std::string expected =
      "run cancelled before frame " + std::to_string(kCancelAt + 10);
  DiningScene scene = MakeMeetingScenario();
  auto cancelled_run = [&](PipelineOptions opt, int threads) {
    CancellationToken cancel;
    opt.num_threads = threads;
    opt.cancel = &cancel;
    opt.on_frame_committed = [&cancel](int frame, double) {
      if (frame == kCancelAt) cancel.Cancel();
    };
    MetadataRepository repo;
    auto report = DiEventPipeline(&scene, opt).Run(&repo);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(report.status().message(), expected) << "threads=" << threads;
    EXPECT_EQ(repo.lookat_records().size(), size_t{kCancelAt / 10 + 1});
    if (!repo.lookat_records().empty()) {
      EXPECT_EQ(repo.lookat_records().back().frame, kCancelAt);
    }
    return repo;
  };

  PipelineOptions opt = BaseOptions();
  opt.analyze_emotions = true;
  opt.recognizer = &SharedRecognizer();
  const MetadataRepository inline_repo = cancelled_run(opt, 1);
  EXPECT_EQ(inline_repo.overall_records().size(), size_t{kCancelAt / 10 + 1});
  for (int threads : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ExpectSameRepository(inline_repo, cancelled_run(opt, threads));
  }

  // Ground truth feeds the same loop, so it stops at the same frame.
  PipelineOptions gt = opt;
  gt.mode = PipelineMode::kGroundTruth;
  gt.recognizer = nullptr;
  const MetadataRepository gt_repo = cancelled_run(gt, 1);
  EXPECT_EQ(gt_repo.overall_records().size(), size_t{kCancelAt / 10 + 1});
  ExpectSameRepository(gt_repo, cancelled_run(gt, 4));
}

/// The crop the pipeline hands the emotion recognizer: a square around
/// the detection matching the training-crop geometry.
ImageRgb EmotionCrop(const ImageRgb& frame, const FaceDetection& det) {
  const double half = det.radius_px / 0.92;
  const int size = std::max(8, static_cast<int>(2.0 * half));
  return frame.Crop(static_cast<int>(det.center_px.x - half),
                    static_cast<int>(det.center_px.y - half), size, size);
}

/// Rebuilds a clean full-vision run's records from public calls only —
/// render each view, analyze each camera, commit the frame, recognize
/// each participant's largest frontal face, smooth the overall emotion —
/// sharing no code with the pipeline's run loop.
MetadataRepository ReplayFullVision(const DiningScene& scene,
                                    const PipelineOptions& opt) {
  MetadataRepository repo;
  const int n = scene.NumParticipants();
  const int num_cameras = scene.rig().NumCameras();
  std::vector<int> cameras;
  std::vector<std::unique_ptr<SyntheticVideoSource>> sources;
  for (int c = 0; c < num_cameras; ++c) {
    cameras.push_back(c);
    sources.push_back(std::make_unique<SyntheticVideoSource>(
        &scene, c, opt.render, opt.scripts));
  }
  FrameAnalyzerOptions engine_options;
  engine_options.vision = opt.vision;
  engine_options.recognizer_reject_distance = opt.recognizer_reject_distance;
  engine_options.tracker = opt.tracker;
  engine_options.fusion = opt.fusion;
  engine_options.eye_contact = opt.eye_contact;
  std::vector<ParticipantProfile> profiles;
  for (const auto& p : scene.participants()) profiles.push_back(p.profile);
  auto created = FrameAnalyzer::Create(&scene.rig(), std::move(profiles),
                                       engine_options, cameras);
  EXPECT_TRUE(created.ok()) << created.status();
  if (!created.ok()) return repo;
  FrameAnalyzer engine = std::move(created).TakeValue();
  OverallEmotionEstimator overall(opt.overall_emotion);
  CameraAnalysisScratch scratch;
  const std::vector<CameraFrameQuality> quality(num_cameras,
                                                CameraFrameQuality::kFresh);

  for (int f = 0; f < scene.num_frames(); f += opt.frame_stride) {
    const double t = scene.TimeOfFrame(f);
    std::vector<ImageRgb> frames;
    std::vector<CameraVision> vision;
    for (int c = 0; c < num_cameras; ++c) {
      auto frame = sources[c]->GetFrame(f);
      EXPECT_TRUE(frame.ok()) << frame.status();
      if (!frame.ok()) return repo;
      frames.push_back(std::move(frame.value().image));
      vision.push_back(engine.AnalyzeCameraStateless(
          c, frames.back(), CameraFrameQuality::kFresh, &scratch));
    }
    auto analysis = engine.CommitFrame(f, std::move(vision), quality);
    EXPECT_TRUE(analysis.ok()) << analysis.status();
    if (!analysis.ok()) return repo;
    EXPECT_TRUE(repo.AddLookAt(LookAtRecord::FromMatrix(
                                   f, t, analysis.value().lookat))
                    .ok());

    std::vector<EmotionObservation> emotions(n);
    for (int i = 0; i < n; ++i) {
      emotions[i].participant = i;
      const FaceObservation* best = nullptr;
      int best_cam = -1;
      for (int c = 0; c < num_cameras; ++c) {
        for (const FaceObservation& o : analysis.value().per_camera[c]) {
          if (o.identity == i && o.detection.front_facing &&
              (best == nullptr ||
               o.detection.radius_px > best->detection.radius_px)) {
            best = &o;
            best_cam = c;
          }
        }
      }
      if (best == nullptr || best->detection.radius_px < 8.0) continue;
      const EmotionPrediction p = opt.recognizer->Recognize(
          EmotionCrop(frames[best_cam], best->detection));
      emotions[i].emotion = p.emotion;
      emotions[i].confidence = p.confidence;
      EXPECT_TRUE(
          repo.AddEmotion({f, t, i, p.emotion, p.confidence}).ok());
    }
    const OverallEmotion oe = overall.Update(f, t, emotions);
    EXPECT_TRUE(repo.AddOverallEmotion({f, t, oe.overall_happiness,
                                        oe.mean_valence, oe.observed})
                    .ok());
  }
  return repo;
}

TEST(PipelinedExecutor, InlineAndPooledMatchAnIndependentReplay) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt = BaseOptions();
  opt.analyze_emotions = true;
  opt.recognizer = &SharedRecognizer();

  const MetadataRepository replay = ReplayFullVision(scene, opt);
  ASSERT_EQ(replay.lookat_records().size(), 61u);
  EXPECT_GT(replay.emotion_records().size(), 0u);
  {
    SCOPED_TRACE("inline (1 thread)");
    ExpectSameRepository(replay, RunPipeline(scene, opt, 1).repo);
  }
  {
    SCOPED_TRACE("pooled (4 threads)");
    ExpectSameRepository(replay, RunPipeline(scene, opt, 4).repo);
  }
}

TEST(PipelinedExecutor, GroundTruthModeIgnoresTheKnobs) {
  DiningScene scene = MakeMeetingScenario();
  PipelineOptions opt;
  opt.mode = PipelineMode::kGroundTruth;
  opt.parse_video = false;
  opt.frame_stride = 5;
  opt.num_threads = 4;
  MetadataRepository repo;
  auto report = DiEventPipeline(&scene, opt).Run(&repo);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().frames_processed, 122);
}

}  // namespace
}  // namespace dievent
