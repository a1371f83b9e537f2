// Seeded input generation for the three workloads. The same seed always
// yields the same scenes, contexts and query mixes; the library sees only
// the generated inputs, never the seed. Sizes and mix proportions are
// fixed, so seeds vary content but not the amount of work.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/layers.h"
#include "common/result.h"
#include "sim/scene.h"

namespace perfbench {

/// The paper's 4-camera, 610-frame meeting (noise-free frames), a seeded
/// emotion-recognizer training set, and queries over the analysed event.
struct MeetingInputs {
  dievent::DiningScene scene;
  uint64_t train_seed = 0;
  std::vector<std::string> queries;  ///< corpus grammar, over this one event
};

enum class TenantKind { kMeeting, kDinner, kRandom };

struct TenantInput {
  std::string name;
  TenantKind kind = TenantKind::kMeeting;
  dievent::DiningScene scene;  ///< parsed from `config`
  std::string config;          ///< the tenant's scene file (scene_config.h)
};

/// Sixteen ground-truth tenants: four copies of the paper's meeting plus
/// dinner and randomized round-table scenes of 4-7 participants and
/// 25-65 s, each written as a scene file and parsed back, as dievent_fleet
/// loads tenants. Ordered longest first, so the makespan does not hinge
/// on where a long tenant lands in the queue.
struct FleetInputs {
  std::vector<TenantInput> tenants;
  std::vector<std::string> queries;  ///< corpus grammar
};

struct CorpusEventInput {
  dievent::EventContext context;
  dievent::DiningScene scene;
};

/// Randomized round-table events with seeded venues, occasions and dates,
/// and a corpus query mix over scope filters, time windows and frame
/// terms.
struct CorpusInputs {
  std::vector<CorpusEventInput> events;
  std::vector<std::string> queries;  ///< corpus grammar
};

MeetingInputs MakeMeetingInputs(uint64_t seed);
dievent::Result<FleetInputs> MakeFleetInputs(uint64_t seed);
CorpusInputs MakeCorpusInputs(uint64_t seed);

/// FNV-1a digest of everything a workload's inputs contain (scene states
/// at every frame, contexts, queries, seeds). Equal digests mean equal
/// inputs; the benchmark's tests compare them across seeds.
std::string InputsDigest(const std::string& workload, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
