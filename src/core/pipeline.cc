#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "common/cancellation.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/frame_analyzer.h"
#include "geometry/ray.h"
#include "metadata/durable_store.h"
#include "video/acquisition_supervisor.h"

namespace dievent {

namespace {

/// Adds the elapsed seconds since construction to `*sink`. Reads the
/// injected clock, so stage timings are simulated under SimClock and
/// wall-clock in production.
class StageTimer {
 public:
  StageTimer(VirtualClock* clock, double* sink)
      : clock_(clock), sink_(sink), start_(clock->Now()) {}
  ~StageTimer() { *sink_ += VirtualClock::ToSeconds(clock_->Now() - start_); }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  VirtualClock* clock_;
  double* sink_;
  VirtualClock::TimePoint start_;
};

EventContext ContextFromScene(const DiningScene& scene) {
  EventContext ctx;
  ctx.event_id = "dievent-run";
  ctx.location = "simulated dining room";
  ctx.occasion = "dining event";
  ctx.num_participants = scene.NumParticipants();
  for (const auto& p : scene.participants()) {
    ctx.participant_names.push_back(p.profile.name);
  }
  return ctx;
}

/// Square crop around a detection matching the training-crop geometry
/// (face radius = 0.46 * crop size). Writes into `*out` so hot loops can
/// reuse one crop buffer instead of allocating per face.
void CropFaceInto(const ImageRgb& frame, const FaceDetection& det,
                  ImageRgb* out) {
  double half = det.radius_px / 0.92;
  int size = std::max(8, static_cast<int>(2.0 * half));
  int x0 = static_cast<int>(det.center_px.x - half);
  int y0 = static_cast<int>(det.center_px.y - half);
  frame.CropInto(x0, y0, size, size, out);
}

}  // namespace

std::string DegradationStats::ToString() const {
  std::string out = StrFormat(
      "frames: %d healthy, %d degraded, %d skipped (below quorum); "
      "retries %lld, held frames %lld, quarantine events %d, "
      "readmissions %d\n",
      frames_fully_healthy, frames_degraded, frames_skipped, retries_spent,
      frames_held, quarantine_events, readmissions);
  for (size_t c = 0; c < camera_drops.size(); ++c) {
    long long corruptions =
        c < camera_corruptions.size() ? camera_corruptions[c] : 0;
    if (camera_drops[c] == 0 && corruptions == 0) continue;
    out += StrFormat("  camera %zu: %lld dropped reads, %lld corrupted\n",
                     c, camera_drops[c], corruptions);
  }
  if (!cameras_quarantined.empty()) {
    out += "  quarantined at end of run:";
    for (int c : cameras_quarantined) out += StrFormat(" %d", c);
    out += "\n";
  }
  if (deadline_misses > 0 || watchdog_interrupts > 0 ||
      reader_restarts > 0) {
    out += StrFormat(
        "  supervisor: %lld deadline misses, %d watchdog interrupts, "
        "%d reader restarts\n",
        deadline_misses, watchdog_interrupts, reader_restarts);
  }
  if (resync_corrections > 0) {
    out += StrFormat(
        "  clock resync: %lld corrections (%lld misalignments), worst "
        "jitter %.4fs\n",
        resync_corrections, resync_misalignments, max_timestamp_jitter_s);
  }
  if (resync_retunes > 0) {
    out += StrFormat("  drift feedback: %lld master-clock retunes\n",
                     resync_retunes);
  }
  if (parse_signatures_missing > 0 || parse_reference_switches > 0) {
    out += StrFormat(
        "  parsing: %d missing signatures (%d filled by interpolation), "
        "%d frames signed by a fallback camera\n",
        parse_signatures_missing, parse_signatures_interpolated,
        parse_reference_switches);
  }
  if (deadline_tightened > 0 || deadline_relaxed > 0) {
    out += StrFormat(
        "  adaptive deadline: %lld tightened, %lld relaxed transitions\n",
        deadline_tightened, deadline_relaxed);
  }
  if (journal_records > 0 || checkpoints_committed > 0 ||
      resumed_from_frame >= 0) {
    out += StrFormat(
        "  durability: %lld journal records (%lld bytes), %d checkpoints\n",
        journal_records, journal_bytes, checkpoints_committed);
  }
  if (resumed_from_frame >= 0) {
    out += StrFormat(
        "  resume: continued after durable frame %d (%d stored frame "
        "records reused)\n",
        resumed_from_frame, resume_reused_frames);
  }
  return out;
}

std::string DiEventReport::Summary() const {
  std::string out;
  out += StrFormat("frames processed: %d\n", frames_processed);
  out += "look-at summary:\n" + summary.ToString(participant_names);
  std::string dominant =
      dominant_participant >= 0 &&
              dominant_participant <
                  static_cast<int>(participant_names.size())
          ? participant_names[dominant_participant]
          : StrFormat("P%d", dominant_participant + 1);
  out += StrFormat("dominant participant: %s\n", dominant.c_str());
  out += StrFormat("eye-contact episodes: %zu\n",
                   eye_contact_episodes.size());
  out += StrFormat("mean overall happiness: %.3f, mean valence: %.3f\n",
                   mean_overall_happiness, mean_valence);
  out += StrFormat(
      "timings (s): acquire %.2f, detect %.2f, fuse %.2f, eye-contact "
      "%.3f, emotion %.2f, parse %.2f, store %.3f\n",
      timings.acquisition, timings.detection, timings.fusion,
      timings.eye_contact, timings.emotion, timings.parsing,
      timings.storage);
  if (degradation.Degraded()) {
    out += "acquisition degradation:\n" + degradation.ToString();
  }
  return out;
}

namespace {

/// One full-vision frame in flight. Admission fills the frame set and
/// the per-frame setup, the vision stage the per-camera results and the
/// parse signature, and the ordered commit consumes it. Vision tasks only
/// ever touch their own frame's FrameWork.
struct FrameWork {
  int f = 0;
  double t = 0;
  SynchronizedFrameSet set;
  bool analyzable = false;
  std::vector<ParticipantState> gt;
  std::vector<ImageRgb> frames;
  std::vector<CameraFrameQuality> quality;
  std::vector<CameraVision> vision;
  int parse_ref = -1;  ///< lowest usable camera; signs the timeline
  std::optional<Histogram> signature;
  /// Speculative emotion predictions per (camera slot, observation),
  /// filled by pooled vision tasks for every candidate the commit stage
  /// could possibly select; empty when vision runs inline.
  std::vector<std::vector<std::optional<EmotionPrediction>>> emotion_cache;
  std::vector<double> vision_seconds;   // per camera, stateless stage
  std::vector<double> emotion_seconds;  // per camera, speculation
  double signature_seconds = 0;         // the parse-signature task
};

/// Vision-vs-ground-truth tallies behind PipelineAccuracy (kFullVision).
struct AccuracyTally {
  long long cell_agree = 0, cell_total = 0;
  long long edge_tp = 0, edge_fp = 0, edge_fn = 0;
  double pos_err_sum = 0, gaze_err_sum = 0;
  long long gaze_have = 0, detect_have = 0, pf_total = 0;
  long long emo_correct = 0, emo_total = 0;

  void ScoreParticipants(const std::vector<FusedParticipant>& fused,
                         const std::vector<ParticipantGeometry>& geometry,
                         const std::vector<ParticipantState>& gt) {
    for (size_t i = 0; i < fused.size(); ++i) {
      ++pf_total;
      if (fused[i].num_views > 0) {
        ++detect_have;
        pos_err_sum +=
            (fused[i].geometry.head_position - gt[i].head_position).Norm();
      }
      if (geometry[i].gaze_direction) {
        ++gaze_have;
        gaze_err_sum += RadToDeg(
            AngleBetween(*geometry[i].gaze_direction, gt[i].gaze_direction));
      }
    }
  }

  void ScoreLookAt(const LookAtMatrix& lookat,
                   const std::vector<std::vector<bool>>& truth) {
    const int n = static_cast<int>(truth.size());
    for (int x = 0; x < n; ++x) {
      for (int y = 0; y < n; ++y) {
        if (x == y) continue;
        const bool est = lookat.At(x, y);
        ++cell_total;
        if (est == truth[x][y]) ++cell_agree;
        if (est && truth[x][y]) ++edge_tp;
        if (est && !truth[x][y]) ++edge_fp;
        if (!est && truth[x][y]) ++edge_fn;
      }
    }
  }

  PipelineAccuracy Finish() const {
    auto ratio = [](double num, long long den) {
      return den > 0 ? num / den : 0.0;
    };
    PipelineAccuracy acc;
    acc.lookat_cell_accuracy = ratio(cell_agree, cell_total);
    acc.edge_precision = ratio(edge_tp, edge_tp + edge_fp);
    acc.edge_recall = ratio(edge_tp, edge_tp + edge_fn);
    acc.mean_position_error_m = ratio(pos_err_sum, detect_have);
    acc.mean_gaze_error_deg = ratio(gaze_err_sum, gaze_have);
    acc.gaze_coverage = ratio(gaze_have, pf_total);
    acc.detection_coverage = ratio(detect_have, pf_total);
    acc.emotion_accuracy = ratio(emo_correct, emo_total);
    return acc;
  }
};

/// Everything one Run() carries from frame to frame, with one method per
/// stage of the per-frame flow (paper Fig. 1). All three schedules —
/// inline full vision, the pooled window, and ground truth — go through
/// the one ordered loop in RunFrames and the one commit tail, CommitTail.
///
/// Determinism contract: every mutation of report, repository, tracker
/// and accumulator state happens in the ordered stages (Retire and what
/// it calls), on the calling thread, in frame order. Pooled vision tasks
/// only fill their own FrameWork, so a pooled run is bit-identical to
/// the inline one at equal options and seeds.
class RunState {
 public:
  RunState(const DiningScene& scene, const PipelineOptions& options,
           MetadataRepository* repository)
      : scene_(scene),
        options_(options),
        repository_(repository),
        store_(options.store),
        clock_(options.clock != nullptr ? options.clock : RealClock::Get()),
        n_(scene.NumParticipants()),
        full_(options.mode == PipelineMode::kFullVision),
        pooled_(full_ && options.num_threads > 1),
        cameras_(options.camera_subset),
        recognizer_(options.recognizer),
        ec_detector_(options.eye_contact),
        overall_(options.overall_emotion),
        signature_maker_(options.parsing.shot) {
    if (cameras_.empty()) {  // empty subset = the whole rig
      for (int c = 0; c < scene.rig().NumCameras(); ++c) cameras_.push_back(c);
    }
    num_cameras_ = static_cast<int>(cameras_.size());
    report_.summary = LookAtSummary(n_);
    for (const auto& p : scene.participants()) {
      report_.participant_names.push_back(p.profile.name);
    }
  }

  // Pooled vision tasks hold `this`.
  RunState(const RunState&) = delete;
  RunState& operator=(const RunState&) = delete;

  Status Validate() const {
    if (repository_ == nullptr) {
      return Status::InvalidArgument("repository must not be null");
    }
    if (options_.frame_stride < 1) {
      return Status::InvalidArgument("frame_stride must be >= 1");
    }
    if (options_.num_threads < 1) {
      return Status::InvalidArgument("num_threads must be >= 1");
    }
    for (int c : cameras_) {
      if (c < 0 || c >= scene_.rig().NumCameras()) {
        return Status::InvalidArgument(
            StrFormat("camera %d not in the rig", c));
      }
    }
    if (!options_.camera_faults.empty() &&
        static_cast<int>(options_.camera_faults.size()) != num_cameras_) {
      return Status::InvalidArgument(StrFormat(
          "camera_faults has %zu entries but %d cameras are active",
          options_.camera_faults.size(), num_cameras_));
    }
    if (store_ != nullptr && options_.checkpoint_every_frames < 0) {
      return Status::InvalidArgument("checkpoint_every_frames must be >= 0");
    }
    return Status::OK();
  }

  /// Opens the durable store; when it already holds frame records, finds
  /// the last whole frame to resume after.
  Status OpenStore() {
    if (store_ != nullptr) {
      DIEVENT_RETURN_NOT_OK(store_->broken());
      const std::vector<LookAtRecord>& durable =
          store_->repository().lookat_records();
      if (!durable.empty()) resume_after_frame_ = durable.back().frame;
      if (resume_after_frame_ >= 0 && options_.analyze_emotions) {
        // A frame is committed by its overall-emotion record — the last
        // record StoreFrame journals for it. A look-at record past the
        // last overall record is the partial tail of a crash mid-frame:
        // durably rewind to the last whole frame so it is reprocessed
        // complete instead of resumed half-written (which would drop its
        // remaining records or duplicate the ones already journaled).
        const std::vector<OverallEmotionRecord>& committed =
            store_->repository().overall_records();
        const int last_complete =
            committed.empty() ? -1 : committed.back().frame;
        if (last_complete < resume_after_frame_) {
          DIEVENT_RETURN_NOT_OK(store_->RewindToFrame(last_complete));
          resume_after_frame_ = last_complete;
        }
      }
      if (resume_after_frame_ >= 0) {
        if (full_) {
          return Status::FailedPrecondition(
              "durable store already holds frame records; full-vision "
              "runs cannot resume (tracker state is not checkpointed) — "
              "open a fresh store directory or resume in ground-truth "
              "mode");
        }
        if (resume_after_frame_ % options_.frame_stride != 0) {
          return Status::FailedPrecondition(StrFormat(
              "durable frame %d is not aligned to frame_stride %d; the "
              "store was written by a run with different options",
              resume_after_frame_, options_.frame_stride));
        }
      }
    }
    if (resume_after_frame_ >= 0) {
      // Resume: adopt the recovered repository — context, fps, and every
      // acknowledged record — instead of starting over.
      *repository_ = store_->repository();
      return Status::OK();
    }
    *repository_ = MetadataRepository();
    repository_->SetContext(ContextFromScene(scene_));
    repository_->set_fps(scene_.fps());
    if (store_ != nullptr) {
      DIEVENT_RETURN_NOT_OK(store_->SetContext(repository_->context()));
      DIEVENT_RETURN_NOT_OK(store_->SetFps(scene_.fps()));
    }
    return Status::OK();
  }

  /// Trains the emotion recognizer when none is shared, and builds the
  /// frame sources and the vision engine.
  Status OpenSources() {
    if (options_.analyze_emotions && full_ && recognizer_ == nullptr) {
      StageTimer timer(clock_, &report_.timings.training);
      Rng rng(options_.seed);
      DIEVENT_ASSIGN_OR_RETURN(
          EmotionRecognizer trained,
          EmotionRecognizer::Train(options_.emotion, &rng));
      owned_recognizer_ =
          std::make_unique<EmotionRecognizer>(std::move(trained));
      recognizer_ = owned_recognizer_.get();
    }
    auto make_source = [&](int c) -> std::unique_ptr<VideoSource> {
      return std::make_unique<SyntheticVideoSource>(
          &scene_, cameras_[c], options_.render, options_.scripts,
          options_.noise_seed == 0
              ? 0
              : options_.noise_seed + static_cast<uint64_t>(c) * 7919);
    };
    report_.degradation.camera_drops.assign(num_cameras_, 0);
    report_.degradation.camera_corruptions.assign(num_cameras_, 0);
    if (!full_) {
      parse_source_ = make_source(0);
      return Status::OK();
    }

    injectors_.assign(num_cameras_, nullptr);
    std::vector<std::unique_ptr<VideoSource>> cam_sources;
    for (int c = 0; c < num_cameras_; ++c) {
      std::unique_ptr<VideoSource> src = make_source(c);
      if (!options_.camera_faults.empty() &&
          options_.camera_faults[c].HasFaults()) {
        auto faulty = std::make_unique<FaultyVideoSource>(
            std::move(src), options_.camera_faults[c], options_.clock);
        injectors_[c] = faulty.get();
        src = std::move(faulty);
      }
      cam_sources.push_back(std::move(src));
    }
    AcquisitionPolicy acquisition = options_.acquisition;
    if (acquisition.clock == nullptr) acquisition.clock = options_.clock;
    DIEVENT_ASSIGN_OR_RETURN(
        MultiCameraSource multi,
        MultiCameraSource::Create(std::move(cam_sources), acquisition));
    multi_ = std::make_unique<MultiCameraSource>(std::move(multi));

    FrameAnalyzerOptions engine_options;
    engine_options.vision = options_.vision;
    engine_options.recognizer_reject_distance =
        options_.recognizer_reject_distance;
    engine_options.tracker = options_.tracker;
    engine_options.fusion = options_.fusion;
    if (options_.seat_prior_from_scene &&
        engine_options.fusion.seat_prior.empty()) {
      for (const auto& p : scene_.participants()) {
        engine_options.fusion.seat_prior.push_back(p.seat_head_position);
      }
    }
    engine_options.eye_contact = options_.eye_contact;
    // The run loop owns all parallelism (per-(frame, camera) fan-out);
    // the engine's internal per-camera pool would only oversubscribe it.
    engine_options.num_threads = 1;
    std::vector<ParticipantProfile> profiles;
    for (const auto& p : scene_.participants()) profiles.push_back(p.profile);
    DIEVENT_ASSIGN_OR_RETURN(
        FrameAnalyzer engine,
        FrameAnalyzer::Create(&scene_.rig(), std::move(profiles),
                              engine_options, cameras_));
    engine_ = std::make_unique<FrameAnalyzer>(std::move(engine));
    return Status::OK();
  }

  /// On resume, rebuilds every piece of streaming state the recovered
  /// records cover, so the loop continues exactly where the dead run
  /// stopped: running look-at summary, overall-emotion EWMA (the stored
  /// values are the smoothed values, so re-seeding reproduces the
  /// uninterrupted timeline bit for bit), and — because parse signatures
  /// are not persisted — re-decoded camera-0 signatures for the already
  /// durable frames.
  Status Resume() {
    if (resume_after_frame_ < 0) return Status::OK();
    start_frame_ = resume_after_frame_ + options_.frame_stride;
    report_.summary = repository_->Summarize();
    report_.frames_processed =
        static_cast<int>(repository_->lookat_records().size());
    std::vector<OverallEmotion> timeline;
    for (const OverallEmotionRecord& r : repository_->overall_records()) {
      timeline.push_back({r.frame, r.timestamp_s, r.overall_happiness,
                          r.mean_valence, r.observed});
    }
    overall_.Restore(std::move(timeline));
    if (options_.parse_video) {
      for (int f = 0; f < start_frame_ && f < scene_.num_frames();
           f += options_.frame_stride) {
        DIEVENT_RETURN_NOT_OK(SignCameraZero(f));
      }
    }
    report_.degradation.resumed_from_frame = resume_after_frame_;
    report_.degradation.resume_reused_frames = report_.frames_processed;
    return Status::OK();
  }

  /// The ordered frame loop of every schedule: admit frames into the
  /// window, retire the head frame through the commit. Full vision keeps
  /// num_threads frames in flight; above 1, per-(frame, camera) vision
  /// tasks fan out on a pool of num_threads workers, while at 1 (and in
  /// ground truth) every stage runs inline on the calling thread.
  Status RunFrames() {
    const int end = scene_.num_frames();
    const int window = pooled_ ? options_.num_threads : 1;
    if (pooled_) {
      pool_ = std::make_unique<ThreadPool>(options_.num_threads);
      for (int i = 0; i < window; ++i) {
        groups_.push_back(std::make_unique<TaskGroup>(pool_.get()));
      }
    }
    if (full_) ring_.resize(window);

    // Frame positions [retired, admitted) are in flight; every position
    // before `retired` is committed (or skipped below quorum).
    int admitted = 0, retired = 0;
    Status admit_status, status;
    while (true) {
      // Cooperative cancellation, polled between commits only, so a
      // cancelled run always stops between committed frames (the durable
      // store never sees a partial frame from cancellation).
      if (options_.cancel != nullptr && options_.cancel->cancelled()) {
        status = Status::Cancelled(
            StrFormat("run cancelled before frame %d", FrameAt(retired)));
        break;
      }
      while (admit_status.ok() && admitted - retired < window &&
             FrameAt(admitted) < end) {
        admit_status = Admit(admitted);
        if (admit_status.ok()) ++admitted;
      }
      // A failed admission surfaces once every earlier frame is
      // committed, exactly where the inline schedule stops.
      if (retired == admitted) {
        status = admit_status;
        break;
      }
      status = Retire(retired++);
      if (!status.ok()) break;
    }
    // On error, wait out in-flight vision tasks before anything else
    // touches their FrameWork slots.
    for (auto& group : groups_) group->Wait();
    return status;
  }

  /// Video composition analysis over the signature timeline.
  Status Parse() {
    if (!options_.parse_video || signatures_.empty()) return Status::OK();
    StageTimer timer(clock_, &report_.timings.parsing);
    VideoParser parser(options_.parsing);
    SparseSignatureInfo sparse_info;
    report_.structure = parser.ParseFromSparseHistograms(
        signatures_, scene_.fps() / options_.frame_stride, &sparse_info);
    report_.degradation.parse_signatures_missing = sparse_info.missing;
    report_.degradation.parse_signatures_interpolated =
        sparse_info.interpolated + sparse_info.extrapolated;
    repository_->SetVideoStructure(report_.structure);
    if (store_ != nullptr) {
      DIEVENT_RETURN_NOT_OK(store_->SetVideoStructure(report_.structure));
    }
    return Status::OK();
  }

  /// Folds the acquisition layer's counters into the report.
  Status AccountDegradation() {
    if (!full_) return Status::OK();
    DegradationStats& deg = report_.degradation;
    for (int c = 0; c < num_cameras_; ++c) {
      const CameraHealth& health = multi_->health(c);
      deg.camera_drops[c] = health.failures;
      deg.retries_spent += health.retries;
      deg.frames_held += health.held;
      deg.quarantine_events += health.quarantine_events;
      deg.readmissions += health.readmissions;
      if (injectors_[c] != nullptr) {
        deg.camera_corruptions[c] = injectors_[c]->counters().corruptions;
      }
      if (multi_->supervisor() != nullptr) {
        const AcquisitionSupervisor::ReaderStats reader_stats =
            multi_->supervisor()->stats(c);
        deg.deadline_misses += reader_stats.deadline_misses;
        deg.watchdog_interrupts += reader_stats.watchdog_interrupts;
        deg.reader_restarts += reader_stats.restarts;
        deg.max_queue_depth =
            std::max(deg.max_queue_depth, reader_stats.max_queue_depth);
        const AdaptiveDeadlineController* deadline =
            multi_->supervisor()->deadline_controller(c);
        if (deadline != nullptr) {
          deg.deadline_tightened += deadline->tightened();
          deg.deadline_relaxed += deadline->relaxed();
        }
      }
      const TimestampResampler::Stats& resync = multi_->resampler(c).stats();
      deg.resync_corrections += resync.corrections;
      deg.resync_misalignments += resync.misalignments;
      deg.max_timestamp_jitter_s =
          std::max(deg.max_timestamp_jitter_s, resync.max_jitter_s);
      deg.resync_retunes += resync.retunes;
    }
    deg.cameras_quarantined = multi_->QuarantinedCameras();
    if (report_.frames_processed == 0 && deg.frames_skipped > 0) {
      return Status::FailedPrecondition(StrFormat(
          "no frame set reached the camera quorum (%d of %d cameras "
          "required): %d frame sets skipped",
          options_.acquisition.min_camera_quorum, num_cameras_,
          deg.frames_skipped));
    }
    return Status::OK();
  }

  /// Final durable checkpoint and report assembly.
  Result<DiEventReport> Finish() {
    // The checkpoint folds everything the run journaled (including the
    // parse structure) into one snapshot, so a clean exit leaves a
    // compact store.
    if (store_ != nullptr) {
      {
        StageTimer timer(clock_, &report_.timings.storage);
        DIEVENT_RETURN_NOT_OK(store_->Checkpoint());
      }
      const DurableStoreStats stats = store_->stats();
      DegradationStats& deg = report_.degradation;
      deg.journal_records = static_cast<long long>(stats.records_appended);
      deg.journal_bytes = static_cast<long long>(stats.bytes_appended);
      deg.checkpoints_committed = static_cast<int>(stats.checkpoints);
    }
    report_.dominant_participant = report_.summary.DominantParticipant();
    // Records are frame_stride apart, so the inter-record spacing itself
    // must not break an episode; allowing one missing record bridges
    // brief detector dropouts exactly as max_gap=1 does at stride 1.
    report_.eye_contact_episodes = repository_->EyeContactEpisodes(
        /*min_length=*/2, /*max_gap=*/2 * options_.frame_stride - 1);
    // Episodes bridging degraded or below-quorum stretches carry lowered
    // confidence instead of looking as trustworthy as fully observed ones.
    AnnotateEpisodeAcquisition(&report_.eye_contact_episodes,
                               health_timeline_);
    report_.emotion_timeline = overall_.timeline();
    report_.mean_overall_happiness = overall_.MeanHappiness();
    report_.mean_valence = overall_.MeanValence();
    if (full_) report_.accuracy = accuracy_.Finish();
    return std::move(report_);
  }

 private:
  int FrameAt(int k) const { return start_frame_ + k * options_.frame_stride; }

  // Acquires one full-vision frame, then the cheap per-frame setup
  // (quorum verdict, quality flags, frame extraction, parse-reference
  // pick), and hands its cameras and parse signature to the vision
  // stage: queued on the pool, or run now.
  Status Admit(int position) {
    if (!full_) return Status::OK();  // ground truth reads at commit
    FrameWork& w = ring_[position % ring_.size()];
    w = FrameWork();
    w.f = FrameAt(position);
    w.t = scene_.TimeOfFrame(w.f);
    {
      StageTimer timer(clock_, &report_.timings.acquisition);
      DIEVENT_ASSIGN_OR_RETURN(w.set, multi_->GetFrames(w.f));
    }
    w.gt = scene_.StateAt(w.t);
    w.analyzable =
        w.set.NumUsable() >= options_.acquisition.min_camera_quorum;
    if (!w.analyzable) return Status::OK();
    w.quality.assign(num_cameras_, CameraFrameQuality::kAbsent);
    w.frames.assign(num_cameras_, ImageRgb());
    for (int c = 0; c < num_cameras_; ++c) {
      CameraFrame& slot = w.set.cameras[c];
      if (!slot.usable()) continue;
      w.quality[c] = slot.status == CameraFrameStatus::kHeld
                         ? CameraFrameQuality::kStale
                         : CameraFrameQuality::kFresh;
      w.frames[c] = std::move(slot.frame.image);
    }
    if (options_.parse_video) {
      // Camera 0 is the nominal parsing reference; when it missed this
      // frame, sign the timeline from the lowest-index usable camera
      // rather than dropping the slot (which would compact the timeline
      // and shift every later shot boundary).
      for (int c = 0; c < num_cameras_ && w.parse_ref < 0; ++c) {
        if (w.quality[c] != CameraFrameQuality::kAbsent) w.parse_ref = c;
      }
    }
    w.vision.resize(num_cameras_);
    w.emotion_cache.resize(num_cameras_);
    w.vision_seconds.assign(num_cameras_, 0.0);
    w.emotion_seconds.assign(num_cameras_, 0.0);

    TaskGroup* group =
        pooled_ ? groups_[position % groups_.size()].get() : nullptr;
    auto run = [group](auto task) {
      if (group == nullptr) return task();
      group->Submit(std::move(task));
    };
    for (int c = 0; c < num_cameras_; ++c) {
      if (w.quality[c] == CameraFrameQuality::kAbsent) continue;
      run([this, &w, c] { AnalyzeCamera(w, c); });
    }
    if (options_.parse_video && w.parse_ref >= 0) {
      run([this, &w] {
        StageTimer timer(clock_, &w.signature_seconds);
        w.signature = signature_maker_.Signature(w.frames[w.parse_ref]);
      });
    }
    return Status::OK();
  }

  // Stateless per-camera stage: detection + landmarks + gaze + appearance
  // identity, plus (pooled only) speculative emotion predictions.
  // Candidates are every frontal observation with radius >= 8 px — a
  // superset of what commit can select, since the tracker backfill there
  // only changes identities, never geometry.
  void AnalyzeCamera(FrameWork& w, int c) {
    const VirtualClock::TimePoint start = clock_->Now();
    w.vision[c] =
        engine_->AnalyzeCameraStateless(c, w.frames[c], w.quality[c]);
    const VirtualClock::TimePoint mid = clock_->Now();
    w.vision_seconds[c] = VirtualClock::ToSeconds(mid - start);
    if (!pooled_ || !options_.analyze_emotions || recognizer_ == nullptr) {
      return;
    }
    auto& cache = w.emotion_cache[c];
    cache.assign(w.vision[c].obs.size(), std::nullopt);
    thread_local ImageRgb crop;
    for (size_t oi = 0; oi < w.vision[c].obs.size(); ++oi) {
      const FaceDetection& det = w.vision[c].obs[oi].detection;
      if (!det.front_facing || det.radius_px < 8.0) continue;
      CropFaceInto(w.frames[c], det, &crop);
      cache[oi] = recognizer_->Recognize(crop);
    }
    w.emotion_seconds[c] = VirtualClock::ToSeconds(clock_->Now() - mid);
  }

  // Commits the frame at `position` from its geometry source.
  Status Retire(int position) {
    if (!full_) return CommitGroundTruth(FrameAt(position));
    if (pooled_) groups_[position % groups_.size()]->Wait();
    FrameWork& w = ring_[position % ring_.size()];
    DIEVENT_ASSIGN_OR_RETURN(bool analyze, AccountAcquisition(w));
    if (!analyze) return Status::OK();
    return CommitVision(w);
  }

  // Ordered acquisition bookkeeping: skip/health tallies and the collapse
  // check. Returns false when the frame is skipped. Uses the set's
  // quarantine snapshot (not the source's live state) so the collapse
  // message is identical whether or not the pooled window has already
  // admitted later frames.
  Result<bool> AccountAcquisition(const FrameWork& w) {
    if (!w.analyzable) {
      ++report_.degradation.frames_skipped;
      health_timeline_.push_back({w.f, AcquisitionFrameHealth::kSkipped});
      if (options_.parse_video) signatures_.push_back(std::nullopt);
      ++consecutive_below_quorum_;
      if (consecutive_below_quorum_ >
          options_.acquisition.max_consecutive_below_quorum) {
        std::string quarantined;
        for (int c : w.set.quarantined_after) {
          quarantined += StrFormat(" %d", c);
        }
        return Status::FailedPrecondition(StrFormat(
            "acquisition collapsed at frame %d: %d consecutive frame sets "
            "below quorum (%d usable of %d cameras, quorum %d; "
            "quarantined:%s)",
            w.f, consecutive_below_quorum_, w.set.NumUsable(), num_cameras_,
            options_.acquisition.min_camera_quorum,
            quarantined.empty() ? " none" : quarantined.c_str()));
      }
      return false;  // no analysis, no records for this frame
    }
    consecutive_below_quorum_ = 0;
    if (w.set.FullyHealthy()) {
      ++report_.degradation.frames_fully_healthy;
      health_timeline_.push_back({w.f, AcquisitionFrameHealth::kHealthy});
    } else {
      ++report_.degradation.frames_degraded;
      health_timeline_.push_back({w.f, AcquisitionFrameHealth::kDegraded});
    }
    return true;
  }

  // The vision geometry source: tracking + fusion, parse-signature and
  // emotion publication, accuracy bookkeeping, then the commit tail.
  Status CommitVision(FrameWork& w) {
    FrameAnalysis analysis;
    {
      StageTimer timer(clock_, &report_.timings.detection);
      DIEVENT_ASSIGN_OR_RETURN(
          analysis,
          engine_->CommitFrame(w.f, std::move(w.vision), w.quality));
    }
    for (double s : w.vision_seconds) report_.timings.detection += s;
    for (double s : w.emotion_seconds) report_.timings.emotion += s;
    report_.timings.parsing += w.signature_seconds;
    std::vector<ParticipantGeometry> geometry = ToGeometry(analysis.fused);
    for (int i = 0; i < n_; ++i) {
      if (analysis.fused[i].num_views == 0) geometry[i].gaze_direction.reset();
    }
    if (options_.parse_video) {
      if (w.parse_ref > 0) ++report_.degradation.parse_reference_switches;
      signatures_.push_back(std::move(w.signature));
    }
    std::vector<EmotionObservation> emotions;
    if (options_.analyze_emotions && recognizer_ != nullptr) {
      StageTimer timer(clock_, &report_.timings.emotion);
      emotions = PickEmotions(w, analysis.per_camera);
    }
    accuracy_.ScoreParticipants(analysis.fused, geometry, w.gt);
    return CommitTail(w.f, w.t, geometry, emotions);
  }

  // Each participant's emotion from their largest frontal view of at
  // least 8 px: the pooled vision stage's speculative prediction when
  // there is one, computed now otherwise.
  std::vector<EmotionObservation> PickEmotions(
      const FrameWork& w,
      const std::vector<std::vector<FaceObservation>>& per_camera) {
    std::vector<EmotionObservation> emotions;
    for (int i = 0; i < n_; ++i) {
      EmotionObservation eo;
      eo.participant = i;
      const FaceObservation* best = nullptr;
      int best_cam = -1;
      size_t best_idx = 0;
      for (int c = 0; c < num_cameras_; ++c) {
        for (size_t oi = 0; oi < per_camera[c].size(); ++oi) {
          const FaceObservation& o = per_camera[c][oi];
          if (o.identity == i && o.detection.front_facing &&
              (best == nullptr ||
               o.detection.radius_px > best->detection.radius_px)) {
            best = &o;
            best_cam = c;
            best_idx = oi;
          }
        }
      }
      if (best != nullptr && best->detection.radius_px >= 8.0) {
        const auto& cache = w.emotion_cache[best_cam];
        EmotionPrediction p;
        if (best_idx < cache.size() && cache[best_idx].has_value()) {
          p = *cache[best_idx];
        } else {
          CropFaceInto(w.frames[best_cam], best->detection, &crop_);
          p = recognizer_->Recognize(crop_);
        }
        eo.emotion = p.emotion;
        eo.confidence = p.confidence;
        if (eo.emotion == w.gt[i].emotion) ++accuracy_.emo_correct;
        ++accuracy_.emo_total;
      }
      emotions.push_back(eo);
    }
    return emotions;
  }

  // The ground-truth geometry source: the simulator's exact geometry and
  // scripted emotions; only camera 0 is decoded, and only for parsing.
  Status CommitGroundTruth(int f) {
    const double t = scene_.TimeOfFrame(f);
    std::vector<ParticipantState> gt = scene_.StateAt(t);
    std::vector<ParticipantGeometry> geometry(n_);
    std::vector<EmotionObservation> emotions;
    {
      StageTimer timer(clock_, &report_.timings.fusion);
      for (int i = 0; i < n_; ++i) {
        geometry[i].head_position = gt[i].head_position;
        geometry[i].gaze_direction = gt[i].gaze_direction;
      }
    }
    if (options_.analyze_emotions) {
      for (int i = 0; i < n_; ++i) emotions.push_back({i, gt[i].emotion, 1.0});
    }
    if (options_.parse_video) DIEVENT_RETURN_NOT_OK(SignCameraZero(f));
    return CommitTail(f, t, geometry, emotions);
  }

  // Decodes camera 0's frame `f` (acquisition) and appends its parse
  // signature (parsing): the ground-truth signature timeline.
  Status SignCameraZero(int f) {
    VideoFrame vf;
    {
      StageTimer timer(clock_, &report_.timings.acquisition);
      DIEVENT_ASSIGN_OR_RETURN(vf, parse_source_->GetFrame(f));
    }
    StageTimer timer(clock_, &report_.timings.parsing);
    signatures_.push_back(signature_maker_.Signature(vf.image));
    return Status::OK();
  }

  // The commit tail every geometry source feeds: the Eq. 1–5 look-at
  // test, the running summary, look-at accuracy (kFullVision), and the
  // repository writes.
  Status CommitTail(int f, double t,
                    const std::vector<ParticipantGeometry>& geometry,
                    const std::vector<EmotionObservation>& emotions) {
    LookAtMatrix lookat;
    {
      StageTimer timer(clock_, &report_.timings.eye_contact);
      lookat = ec_detector_.ComputeLookAt(geometry);
    }
    DIEVENT_RETURN_NOT_OK(report_.summary.Accumulate(lookat));
    if (full_) accuracy_.ScoreLookAt(lookat, scene_.GroundTruthLookAt(t));
    DIEVENT_RETURN_NOT_OK(StoreFrame(f, t, lookat, emotions));
    ++report_.frames_processed;
    return Status::OK();
  }

  // Repository + overall-emotion writes for one committed frame. With a
  // durable store attached, every record is journaled before the frame
  // is acknowledged, and the repository is checkpointed every
  // `checkpoint_every_frames` committed frames.
  Status StoreFrame(int f, double t, const LookAtMatrix& lookat,
                    const std::vector<EmotionObservation>& emotions) {
    StageTimer timer(clock_, &report_.timings.storage);
    const LookAtRecord lar = LookAtRecord::FromMatrix(f, t, lookat);
    DIEVENT_RETURN_NOT_OK(repository_->AddLookAt(lar));
    if (store_ != nullptr) DIEVENT_RETURN_NOT_OK(store_->AddLookAt(lar));
    if (options_.analyze_emotions) {
      OverallEmotion oe = overall_.Update(f, t, emotions);
      for (const EmotionObservation& eo : emotions) {
        if (!eo.emotion) continue;
        const EmotionRecord er{f, t, eo.participant, *eo.emotion,
                               eo.confidence};
        DIEVENT_RETURN_NOT_OK(repository_->AddEmotion(er));
        if (store_ != nullptr) DIEVENT_RETURN_NOT_OK(store_->AddEmotion(er));
      }
      const OverallEmotionRecord orec{f, t, oe.overall_happiness,
                                      oe.mean_valence, oe.observed};
      DIEVENT_RETURN_NOT_OK(repository_->AddOverallEmotion(orec));
      if (store_ != nullptr) {
        DIEVENT_RETURN_NOT_OK(store_->AddOverallEmotion(orec));
      }
    }
    if (store_ != nullptr && options_.checkpoint_every_frames > 0 &&
        ++frames_since_checkpoint_ >= options_.checkpoint_every_frames) {
      DIEVENT_RETURN_NOT_OK(store_->Checkpoint());
      frames_since_checkpoint_ = 0;
    }
    // The frame is acknowledged (and durable, when a store is attached):
    // tell the progress observer, on the committing thread, in order.
    if (options_.on_frame_committed) options_.on_frame_committed(f, t);
    return Status::OK();
  }

  const DiningScene& scene_;
  const PipelineOptions& options_;
  MetadataRepository* const repository_;
  DurableEventStore* const store_;
  VirtualClock* const clock_;
  const int n_;
  const bool full_;
  /// Full vision with num_threads > 1 runs vision on a pool with a window
  /// of num_threads frames in flight; otherwise everything is inline.
  const bool pooled_;
  std::vector<int> cameras_;  ///< resolved camera subset
  int num_cameras_ = 0;

  DiEventReport report_;
  int resume_after_frame_ = -1;
  int start_frame_ = 0;

  const EmotionRecognizer* recognizer_;
  std::unique_ptr<EmotionRecognizer> owned_recognizer_;
  /// Full-vision acquisition goes through the degradation-aware
  /// synchronized reader, with fault injectors (when configured) between
  /// it and the renderer. Ground truth only decodes camera 0 for parsing.
  std::unique_ptr<MultiCameraSource> multi_;
  std::vector<const FaultyVideoSource*> injectors_;
  std::unique_ptr<VideoSource> parse_source_;
  std::unique_ptr<FrameAnalyzer> engine_;

  EyeContactDetector ec_detector_;
  OverallEmotionEstimator overall_;
  ShotBoundaryDetector signature_maker_;
  /// Parsing signature timeline: one slot per processed frame position,
  /// empty when no camera could deliver that frame. Keeping empty slots
  /// in place (instead of omitting them) preserves shot/scene timing; the
  /// parser interpolates across the gaps.
  std::vector<std::optional<Histogram>> signatures_;
  /// Per-frame acquisition health, folded into episode confidence later.
  std::vector<FrameHealthRecord> health_timeline_;
  AccuracyTally accuracy_;
  int consecutive_below_quorum_ = 0;
  int frames_since_checkpoint_ = 0;
  ImageRgb crop_;  ///< the commit stage's emotion crop

  /// The window: frame position k lives in ring_[k % window], with its
  /// TaskGroup groups_[k % window] when pooled. Declared before pool_ so
  /// no queued task can outlive the FrameWork it references.
  std::vector<FrameWork> ring_;
  std::vector<std::unique_ptr<TaskGroup>> groups_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace

DiEventPipeline::DiEventPipeline(const DiningScene* scene,
                                 PipelineOptions options)
    : scene_(scene), options_(std::move(options)) {}

Result<DiEventReport> DiEventPipeline::Run(MetadataRepository* repository) {
  RunState state(*scene_, options_, repository);
  DIEVENT_RETURN_NOT_OK(state.Validate());
  DIEVENT_RETURN_NOT_OK(state.OpenStore());
  DIEVENT_RETURN_NOT_OK(state.OpenSources());
  DIEVENT_RETURN_NOT_OK(state.Resume());
  DIEVENT_RETURN_NOT_OK(state.RunFrames());
  DIEVENT_RETURN_NOT_OK(state.Parse());
  DIEVENT_RETURN_NOT_OK(state.AccountDegradation());
  return state.Finish();
}

}  // namespace dievent
