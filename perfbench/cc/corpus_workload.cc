// corpus_query: a corpus of seeded ground-truth events is built during
// set-up; then one client runs the seeded query mix, opening the corpus
// afresh for every query as dievent_query does, with shard fan-out over a
// pool of nproc threads. Every round sets up afresh, so set-up and build
// figures are sampled across the whole run, not only at its start.

#include <memory>
#include <optional>

#include "checks.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "inputs.h"
#include "metadata/corpus.h"
#include "metadata/durable_store.h"
#include "metadata/query_parser.h"
#include "ram_fs.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dievent::MetadataRepository;

constexpr double kHardStopSeconds = 150;
const char kRoot[] = "/ram/corpus";

struct BuiltCorpus {
  CorpusInputs in;
  std::unique_ptr<RamFileSystem> fs;
};

/// Ingests every event through a ground-truth pipeline run into its own
/// corpus shard and seals it under the event's context, one event after
/// another: with events built concurrently, the commit-gap tail measured
/// the build threads contending for the host. Records the build's frame
/// rate, commit gaps and look-at agreement in `samples`.
dievent::Result<BuiltCorpus> Build(uint64_t seed, RunResult* samples) {
  BuiltCorpus built;
  built.in = MakeCorpusInputs(seed);
  built.fs = std::make_unique<RamFileSystem>();
  dievent::CorpusOptions corpus_options;
  corpus_options.fs = built.fs.get();
  DIEVENT_ASSIGN_OR_RETURN(
      std::unique_ptr<dievent::EventCorpus> corpus,
      dievent::EventCorpus::Open(kRoot, corpus_options));
  const std::vector<CorpusEventInput>& events = built.in.events;
  std::vector<std::vector<Clock::time_point>> commits(events.size());
  std::vector<MetadataRepository> repos(events.size());
  std::vector<dievent::Status> status(events.size());
  const Clock::time_point t0 = Clock::now();
  for (size_t e = 0; e < events.size(); ++e) {
    const CorpusEventInput& ev = events[e];
    auto store = corpus->BeginShard(ev.context.event_id);
    status[e] = store.status();
    if (!status[e].ok()) break;
    dievent::PipelineOptions o;
    o.mode = dievent::PipelineMode::kGroundTruth;
    o.parse_video = false;
    o.store = store.value();
    std::vector<Clock::time_point>* stamps = &commits[e];
    stamps->reserve(ev.scene.num_frames());
    o.on_frame_committed = [stamps](int, double) {
      stamps->push_back(Clock::now());
    };
    status[e] = dievent::DiEventPipeline(&ev.scene, o).Run(&repos[e]).status();
    if (status[e].ok()) status[e] = store.value()->SetContext(ev.context);
    if (status[e].ok()) status[e] = corpus->SealShard(ev.context.event_id);
  }
  const double wall_s = Seconds(t0, Clock::now());
  CellTally cells;
  long long frames = 0;
  for (size_t e = 0; e < events.size(); ++e) {
    DIEVENT_RETURN_NOT_OK(status[e]);
    frames += static_cast<long long>(commits[e].size());
    for (size_t i = 1; i < commits[e].size(); ++i) {
      samples->Add("commit_gap_ms", Ms(commits[e][i - 1], commits[e][i]));
    }
    TallyCells(events[e].scene, repos[e], &cells);
  }
  samples->Add("frames_per_s", frames / wall_s);
  samples->values["lookat_cell_accuracy"] =
      static_cast<double>(cells.agree) / cells.total;
  return built;
}

}  // namespace

std::vector<double> RunQueryPass(const std::vector<std::string>& queries,
                                 const std::string& root,
                                 const dievent::CorpusOptions& options,
                                 CorpusOracle* oracle, RunResult* result) {
  std::vector<double> times;
  for (const std::string& text : queries) {
    const Clock::time_point a = Clock::now();
    auto spec = dievent::ParseCorpusQuery(text);
    auto corpus = dievent::EventCorpus::Open(root, options);
    dievent::Result<dievent::CorpusQueryResult> got =
        !spec.ok()     ? dievent::Result<dievent::CorpusQueryResult>(
                             spec.status())
        : !corpus.ok() ? dievent::Result<dievent::CorpusQueryResult>(
                             corpus.status())
                       : corpus.value()->Query(spec.value());
    times.push_back(Ms(a, Clock::now()));
    std::string why = got.ok() ? "" : got.status().ToString();
    result->Attempt(got.ok() && oracle->Check(options.fs, root,
                                              corpus.value()->shards(), text,
                                              got.value(), &why),
                    "query: " + why);
  }
  return times;
}

void RecordQueryPass(const std::vector<double>& ms, RunResult* result) {
  std::vector<double>& all = result->series["query_ms"];
  all.insert(all.end(), ms.begin(), ms.end());
  double total_ms = 0;
  for (double t : ms) total_ms += t;
  result->Add("queries_per_s", 1e3 * ms.size() / total_ms);
}

void RunCorpusQuery(const RunOptions& options, RunResult* result) {
  dievent::ThreadPool pool(options.threads);
  CorpusOracle oracle;
  // A round is a set-up (inputs and corpus build, timed as setup_s) and
  // one pass over the query mix. The first round warms caches and the
  // heap and is not recorded.
  RunResult warmup;
  RunResult* samples = &warmup;
  const Clock::time_point start = Clock::now();
  while ((Seconds(start, Clock::now()) < options.seconds ||
          result->series["query_ms"].size() < kMinTailSamples) &&
         Seconds(start, Clock::now()) < kHardStopSeconds) {
    const Clock::time_point t0 = Clock::now();
    auto built = Build(options.seed, samples);
    samples->setup_s.push_back(Seconds(t0, Clock::now()));
    if (!built.ok()) {
      result->Attempt(false, "corpus build: " + built.status().ToString());
      return;
    }
    dievent::CorpusOptions query_options;
    query_options.fs = built.value().fs.get();
    query_options.pool = &pool;
    RecordQueryPass(RunQueryPass(built.value().in.queries, kRoot,
                                 query_options, &oracle, result),
                    samples);
    samples = result;
  }
}

void CensusCorpusQuery(const RunOptions& options, Tracer* tracer,
                       RunResult* result) {
  dievent::ThreadPool pool(options.threads);
  RunResult build_figures;  // build rate and gaps are not per-layer
  auto built = Build(options.seed, &build_figures);
  if (!built.ok()) {
    result->Attempt(false, "corpus build: " + built.status().ToString());
    return;
  }
  RamFileSystem* fs = built.value().fs.get();
  const std::vector<std::string>& queries = built.value().in.queries;
  dievent::CorpusOptions query_options;
  query_options.fs = fs;
  query_options.pool = &pool;
  CorpusOracle oracle;
  uint64_t in_scope = 0;
  uint64_t pruned = 0;
  Tracer::Scope root(tracer, "replay.corpus");
  for (size_t k = 0; k < queries.size(); ++k) {
    const std::string& text = queries[k];
    const int64_t id = static_cast<int64_t>(k);
    std::optional<Tracer::Scope> span;
    span.emplace(tracer, "metadata.query_parse", id);
    auto spec = dievent::ParseCorpusQuery(text);
    span.emplace(tracer, "metadata.corpus_open", id);
    auto corpus = dievent::EventCorpus::Open(kRoot, query_options);
    span.reset();
    if (!spec.ok() || !corpus.ok()) {
      result->Attempt(false, "census query '" + text + "' did not start");
      continue;
    }
    span.emplace(tracer, "metadata.query_cold", id);
    auto cold = corpus.value()->Query(spec.value());
    span.emplace(tracer, "metadata.query_eval", id);
    auto warm = corpus.value()->Query(spec.value());
    span.reset();
    std::string why = cold.ok() && warm.ok() ? "" : "query failed";
    const auto shards = corpus.value()->shards();
    result->Attempt(cold.ok() && warm.ok() &&
                        oracle.Check(fs, kRoot, shards, text, cold.value(),
                                     &why) &&
                        oracle.Check(fs, kRoot, shards, text, warm.value(),
                                     &why),
                    "census query: " + why);
    if (!cold.ok()) continue;
    result->Add("metadata.shards_opened",
                static_cast<double>(cold.value().shards_opened));
    result->Add("metadata.matched_frames",
                static_cast<double>(cold.value().total_frames));
    in_scope += cold.value().shards_in_scope;
    pruned += cold.value().shards_pruned;
    // The shard loads the cold query paid for, timed one by one.
    for (const dievent::ShardIndexEntry& entry : shards) {
      if (!dievent::EventCorpus::ShardInScope(entry, spec.value().scope) ||
          dievent::EventCorpus::CanPruneShard(entry, spec.value().frame)) {
        continue;
      }
      Tracer::Scope load(tracer, "metadata.shard_load", id);
      result->Attempt(dievent::DurableEventStore::LoadState(
                          fs, dievent::JoinPath(kRoot, entry.dir))
                          .ok(),
                      "shard load " + entry.dir);
    }
  }
  result->values["metadata.prune_ratio"] =
      in_scope > 0 ? static_cast<double>(pruned) / in_scope : 0.0;
}

}  // namespace perfbench
