// dievent_perfbench: the measuring half of the DiEvent benchmark. run.py
// builds and runs it; it prints one raw JSON line (samples, values,
// provenance) that run.py reduces to the reported metrics.
//
//   dievent_perfbench --workload W --seed N --seconds S
//       untraced end-to-end measurement of workload W
//   dievent_perfbench --workload W --seed N --trace-out PATH
//       traced run: replays all three workloads' paths sequentially with
//       a span around each call into a layer; spans go to PATH as Chrome
//       trace-event JSON
//   dievent_perfbench --workload W --seed N --inputs-digest
//       prints a digest of the generated inputs and exits

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "inputs.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fputs(
      "usage: dievent_perfbench --workload "
      "meeting_vision|fleet_ingest|corpus_query --seed N\n"
      "         [--seconds S] [--trace-out PATH] [--inputs-digest]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool digest = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--inputs-digest") == 0) {
      digest = true;
      continue;
    }
    if (value == nullptr) return Usage();
    ++i;
    if (std::strcmp(arg, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(arg, "--seconds") == 0) {
      options.seconds = std::atof(value);
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (options.workload != "meeting_vision" &&
      options.workload != "fleet_ingest" &&
      options.workload != "corpus_query") {
    return Usage();
  }
  if (digest) {
    std::printf("%s\n",
                perfbench::InputsDigest(options.workload, options.seed)
                    .c_str());
    return 0;
  }
  options.threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  perfbench::RunResult result;
  if (!options.trace_out.empty()) {
    perfbench::Tracer tracer;
    perfbench::CensusMeetingVision(options, &tracer, &result);
    perfbench::CensusFleetIngest(options, &tracer, &result);
    perfbench::CensusCorpusQuery(options, &tracer, &result);
    result.Attempt(tracer.WriteChromeJson(options.trace_out),
                   "cannot write " + options.trace_out);
  } else if (options.workload == "meeting_vision") {
    perfbench::RunMeetingVision(options, &result);
  } else if (options.workload == "fleet_ingest") {
    perfbench::RunFleetIngest(options, &result);
  } else {
    perfbench::RunCorpusQuery(options, &result);
  }
  perfbench::WriteRawJson(stdout, options, result);
  return 0;
}
