// The three workloads. Each Run* function is the untraced measurement:
// it times set-up (setup_s), runs an unrecorded warm-up round, then
// closed-loop rounds for at least `options.seconds` and until every
// latency series holds kMinTailSamples, and checks every output. Each
// Census* function is one path of the traced run: it replays the
// workload's work sequentially through the public per-layer calls, with
// a span around each.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "metadata/corpus.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

class CorpusOracle;

/// Runs each of `queries` once as dievent_query does (parse, open the
/// corpus at `root` afresh, evaluate) and checks every answer against
/// `oracle`, counting each as an operation in `result`. Returns the
/// per-query wall times, ms.
std::vector<double> RunQueryPass(const std::vector<std::string>& queries,
                                 const std::string& root,
                                 const dievent::CorpusOptions& options,
                                 CorpusOracle* oracle, RunResult* result);

/// Adds one query pass's times to the query_ms and queries_per_s series.
void RecordQueryPass(const std::vector<double>& ms, RunResult* result);

void RunMeetingVision(const RunOptions& options, RunResult* result);
void RunFleetIngest(const RunOptions& options, RunResult* result);
void RunCorpusQuery(const RunOptions& options, RunResult* result);

void CensusMeetingVision(const RunOptions& options, Tracer* tracer,
                         RunResult* result);
void CensusFleetIngest(const RunOptions& options, Tracer* tracer,
                       RunResult* result);
void CensusCorpusQuery(const RunOptions& options, Tracer* tracer,
                       RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
