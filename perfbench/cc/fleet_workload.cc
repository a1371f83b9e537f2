// fleet_ingest: sixteen ground-truth tenants through the fleet scheduler
// at nproc runners, each into its own durable store at the dievent_fleet
// defaults (checkpoint every 8 frames, fsync every record), registered
// into an event corpus that is then queried serially. Every round loads
// the tenants afresh, so set-up is sampled across the whole run.

#include <memory>

#include "checks.h"
#include "core/pipeline.h"
#include "fleet/scheduler.h"
#include "inputs.h"
#include "metadata/corpus.h"
#include "metadata/durable_store.h"
#include "ram_fs.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dievent::MetadataRepository;

constexpr int kCheckpointEveryFrames = 8;
// One set-up sample is this many back-to-back tenant loads, about 100 ms,
// so that a sample is not one 6 ms load at the mercy of the host's
// sub-second speed swings; setup_s is the time of one load.
constexpr int kSetupBatch = 16;
constexpr double kHardStopSeconds = 150;
const char kRoot[] = "/ram/fleet";

dievent::PipelineOptions TenantOptions() {
  dievent::PipelineOptions o;
  o.mode = dievent::PipelineMode::kGroundTruth;
  o.parse_video = false;  // dievent_fleet's default
  return o;
}

/// One fleet ingest into a fresh RAM filesystem. Members are destroyed in
/// reverse order: scheduler, then corpus, then the filesystem under both.
struct FleetRound {
  RamFileSystem fs;
  std::unique_ptr<dievent::EventCorpus> corpus;
  std::unique_ptr<dievent::EventScheduler> scheduler;
  std::vector<int> job_ids;
  std::vector<std::vector<Clock::time_point>> commits;  ///< per tenant
  double wall_s = 0;
};

std::unique_ptr<FleetRound> RunRound(const FleetInputs& in, int runners,
                                     RunResult* result) {
  auto round = std::make_unique<FleetRound>();
  dievent::CorpusOptions corpus_options;
  corpus_options.fs = &round->fs;
  auto corpus = dievent::EventCorpus::Open(kRoot, corpus_options);
  if (!corpus.ok()) {
    result->Attempt(false, "fleet corpus: " + corpus.status().ToString());
    return nullptr;
  }
  round->corpus = std::move(corpus).TakeValue();
  dievent::SchedulerOptions so;
  so.max_concurrent = runners;
  so.checkpoint_every_frames = kCheckpointEveryFrames;
  so.corpus = round->corpus.get();
  round->scheduler = std::make_unique<dievent::EventScheduler>(so);
  round->commits.resize(in.tenants.size());

  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < in.tenants.size(); ++i) {
    const TenantInput& tenant = in.tenants[i];
    std::vector<Clock::time_point>* stamps = &round->commits[i];
    stamps->reserve(tenant.scene.num_frames());
    dievent::EventJobSpec spec;
    spec.name = tenant.name;
    spec.scene = &tenant.scene;
    spec.pipeline = TenantOptions();
    spec.store_dir = dievent::JoinPath(kRoot, tenant.name);
    RamFileSystem* fs = &round->fs;
    spec.fs_for_attempt = [fs](int) -> dievent::FileSystem* { return fs; };
    spec.post_frame_hook = [stamps](int, double) {
      stamps->push_back(Clock::now());
    };
    round->job_ids.push_back(round->scheduler->Submit(std::move(spec)));
  }
  const dievent::Status drained = round->scheduler->RunUntilDrained();
  round->wall_s = Seconds(t0, Clock::now());
  if (!drained.ok()) {
    result->Attempt(false, "fleet drain: " + drained.ToString());
    return nullptr;
  }
  return round;
}

/// Solo in-memory runs: the repository each tenant must end up with.
std::vector<MetadataRepository> SoloOracles(const FleetInputs& in,
                                            RunResult* result) {
  std::vector<MetadataRepository> oracles(in.tenants.size());
  for (size_t i = 0; i < in.tenants.size(); ++i) {
    auto report = dievent::DiEventPipeline(&in.tenants[i].scene,
                                           TenantOptions())
                      .Run(&oracles[i]);
    if (!report.ok()) {
      result->Attempt(false, "solo oracle " + in.tenants[i].name + ": " +
                                 report.status().ToString());
    }
  }
  return oracles;
}

/// Every tenant completed, is registered, and its in-memory and durable
/// state equal its solo oracle; meetings keep the paper's Fig. 9 facts.
void CheckRound(const FleetInputs& in,
                const std::vector<MetadataRepository>& oracles,
                FleetRound* round, RunResult* result) {
  const dievent::FleetStats stats = round->scheduler->stats();
  for (size_t i = 0; i < in.tenants.size(); ++i) {
    const TenantInput& tenant = in.tenants[i];
    const int id = round->job_ids[i];
    const dievent::EventJobResult* job = round->scheduler->result(id);
    std::string why;
    bool ok = job != nullptr && stats.jobs[id].registered_in_corpus;
    if (!ok) why = "not completed and registered";
    ok = ok && SameRecords(oracles[i], job->repository, &why);
    if (ok) {
      auto durable = dievent::DurableEventStore::LoadState(
          &round->fs, dievent::JoinPath(kRoot, tenant.name));
      ok = durable.ok() && SameRecords(oracles[i], durable.value(), &why);
      if (!durable.ok()) why = durable.status().ToString();
    }
    if (ok && tenant.kind == TenantKind::kMeeting) {
      const dievent::DiEventReport& r = job->report;
      ok = r.summary.At(0, 2) == 357 && r.dominant_participant == 0;
      if (!ok) why = "Fig. 9 facts: (P1,P3) != 357 or P1 not dominant";
    }
    result->Attempt(ok, "tenant " + tenant.name + ": " + why);
  }
}

}  // namespace

void RunFleetIngest(const RunOptions& options, RunResult* result) {
  CorpusOracle corpus_oracle;
  std::vector<MetadataRepository> oracles;
  // A round is a set-up (kSetupBatch tenant generations and scene-file
  // parses, timed as setup_s), one fleet ingest, its checks, and one pass
  // over the query mix. The first round warms caches and the heap and is
  // not recorded.
  RunResult warmup;
  RunResult* samples = &warmup;
  const Clock::time_point start = Clock::now();
  while ((Seconds(start, Clock::now()) < options.seconds ||
          result->series["query_ms"].size() < kMinTailSamples) &&
         Seconds(start, Clock::now()) < kHardStopSeconds) {
    const Clock::time_point t0 = Clock::now();
    auto in = MakeFleetInputs(options.seed);
    for (int k = 1; k < kSetupBatch && in.ok(); ++k) {
      in = MakeFleetInputs(options.seed);
    }
    samples->setup_s.push_back(Seconds(t0, Clock::now()) / kSetupBatch);
    if (!in.ok()) {
      result->Attempt(false, "fleet inputs: " + in.status().ToString());
      return;
    }
    if (oracles.empty()) {
      oracles = SoloOracles(in.value(), result);
      CellTally cells;
      for (size_t i = 0; i < oracles.size(); ++i) {
        TallyCells(in.value().tenants[i].scene, oracles[i], &cells);
      }
      result->values["lookat_cell_accuracy"] =
          static_cast<double>(cells.agree) / cells.total;
    }
    std::unique_ptr<FleetRound> round =
        RunRound(in.value(), options.threads, result);
    if (round == nullptr) return;
    CheckRound(in.value(), oracles, round.get(), result);
    long long frames = 0;
    for (const auto& stamps : round->commits) {
      frames += static_cast<long long>(stamps.size());
      for (size_t i = 1; i < stamps.size(); ++i) {
        samples->Add("commit_gap_ms", Ms(stamps[i - 1], stamps[i]));
      }
    }
    samples->Add("frames_per_s", frames / round->wall_s);

    // The user then questions the freshly ingested corpus. The shards
    // are evaluated serially: fanned out over nproc threads, a 3 ms query
    // of 16 shards has a p99 set by thread wake-ups on a shared host, not
    // by the program (corpus_query measures the fan-out).
    dievent::CorpusOptions query_options;
    query_options.fs = &round->fs;
    RecordQueryPass(RunQueryPass(in.value().queries, kRoot, query_options,
                                 &corpus_oracle, result),
                    samples);
    samples = result;
  }
}

void CensusFleetIngest(const RunOptions& options, Tracer* tracer,
                       RunResult* result) {
  auto made = MakeFleetInputs(options.seed);
  if (!made.ok()) {
    result->Attempt(false, "fleet inputs: " + made.status().ToString());
    return;
  }
  const FleetInputs& in = made.value();

  // Scheduler-level layer figures come from an untraced fleet round, the
  // last of four: a fresh process needs about three rounds of heap growth
  // before its rounds settle at the steady-state speed.
  std::unique_ptr<FleetRound> round;
  for (int r = 0; r < 4; ++r) {
    round.reset();
    round = RunRound(in, options.threads, result);
    if (round == nullptr) return;
  }
  const dievent::FleetStats stats = round->scheduler->stats();
  double busy_s = 0;
  long long attempts = 0;
  long long journal_records = 0;
  long long journal_bytes = 0;
  for (const dievent::JobStats& job : stats.jobs) {
    result->Add("fleet.queue_wait_ms",
                1e3 * (job.attempt_started_at_s.front() - job.admitted_at_s));
    const double attempt_s =
        job.completed_at_s - job.attempt_started_at_s.back();
    result->Add("fleet.attempt_ms", 1e3 * attempt_s);
    busy_s += attempt_s;
    attempts += job.attempts;
    journal_records += job.degradation.journal_records;
    journal_bytes += job.degradation.journal_bytes;
  }
  const double frames = static_cast<double>(stats.frames_committed);
  result->values["fleet.runner_busy_ratio"] =
      busy_s / (options.threads * round->wall_s);
  result->values["fleet.attempts_per_job"] =
      static_cast<double>(attempts) / stats.jobs.size();
  result->values["io.journal_records_per_frame"] = journal_records / frames;
  result->values["io.journal_bytes_per_frame"] = journal_bytes / frames;
  round.reset();

  // Per-call figures come from a sequential replay of each tenant: an
  // in-memory ground-truth run, then its records appended to a fresh
  // durable store at the same checkpoint cadence, then registration.
  RamFileSystem fs;
  const std::string root = "/ram/replay";
  dievent::CorpusOptions corpus_options;
  corpus_options.fs = &fs;
  auto corpus = dievent::EventCorpus::Open(root, corpus_options);
  if (!corpus.ok()) {
    result->Attempt(false, "replay corpus: " + corpus.status().ToString());
    return;
  }
  std::vector<MetadataRepository> runs(in.tenants.size());
  long long replay_frames = 0;
  {
    Tracer::Scope root_span(tracer, "replay.fleet");
    for (size_t i = 0; i < in.tenants.size(); ++i) {
      const TenantInput& tenant = in.tenants[i];
      MetadataRepository& repo = runs[i];
      dievent::Status status = dievent::Status::OK();
      {
        Tracer::Scope span(tracer, "core.gt_run", static_cast<int64_t>(i));
        status = dievent::DiEventPipeline(&tenant.scene, TenantOptions())
                     .Run(&repo)
                     .status();
      }
      replay_frames += static_cast<long long>(repo.lookat_records().size());
      const std::string dir = dievent::JoinPath(root, tenant.name);
      dievent::DurableStoreOptions store_options;
      store_options.fs = &fs;
      std::unique_ptr<dievent::DurableEventStore> store;
      if (status.ok()) {
        Tracer::Scope span(tracer, "metadata.store_open",
                           static_cast<int64_t>(i));
        auto opened = dievent::DurableEventStore::Open(dir, store_options);
        status = opened.status();
        if (opened.ok()) store = std::move(opened).TakeValue();
      }
      auto append = [&](int64_t frame, auto&& write) {
        if (!status.ok()) return;
        Tracer::Scope span(tracer, "metadata.append", frame);
        status = write();
      };
      append(-1, [&] { return store->SetContext(repo.context()); });
      append(-1, [&] { return store->SetFps(repo.fps()); });
      const auto& emotions = repo.emotion_records();
      const auto& overall = repo.overall_records();
      size_t e = 0;
      int since_checkpoint = 0;
      for (size_t k = 0; k < repo.lookat_records().size() && status.ok();
           ++k) {
        const dievent::LookAtRecord& lar = repo.lookat_records()[k];
        append(lar.frame, [&] { return store->AddLookAt(lar); });
        for (; e < emotions.size() && emotions[e].frame == lar.frame; ++e) {
          append(lar.frame, [&] { return store->AddEmotion(emotions[e]); });
        }
        append(lar.frame,
               [&] { return store->AddOverallEmotion(overall[k]); });
        if (status.ok() && ++since_checkpoint >= kCheckpointEveryFrames) {
          Tracer::Scope span(tracer, "metadata.checkpoint", lar.frame);
          status = store->Checkpoint();
          since_checkpoint = 0;
        }
      }
      if (status.ok()) {
        Tracer::Scope span(tracer, "metadata.checkpoint");
        status = store->Checkpoint();
      }
      if (status.ok()) {
        Tracer::Scope span(tracer, "metadata.store_close");
        status = store->Close();
      }
      if (status.ok()) {
        Tracer::Scope span(tracer, "metadata.register",
                           static_cast<int64_t>(i));
        status = corpus.value()->RegisterShard(dir);
      }
      result->Attempt(status.ok(),
                      "replay " + tenant.name + ": " + status.ToString());
    }
  }
  for (size_t i = 0; i < in.tenants.size(); ++i) {
    auto durable = dievent::DurableEventStore::LoadState(
        &fs, dievent::JoinPath(root, in.tenants[i].name));
    std::string why = durable.ok() ? "" : durable.status().ToString();
    result->Attempt(
        durable.ok() && SameRecords(runs[i], durable.value(), &why),
        "replayed store " + in.tenants[i].name + ": " + why);
  }
  result->values["fleet.replay_frames"] = static_cast<double>(replay_frames);
}

}  // namespace perfbench
