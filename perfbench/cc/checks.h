// Output checks shared by the workloads: record-for-record repository
// equality, look-at agreement with ground truth, and the serial
// open-every-shard oracle that corpus query results must equal.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <map>
#include <string>
#include <vector>

#include "io/file.h"
#include "metadata/corpus.h"
#include "metadata/repository.h"
#include "sim/scene.h"

namespace perfbench {

/// True when both repositories hold the same look-at, emotion and overall
/// emotion records, bit for bit; otherwise `*why` says where they differ.
bool SameRecords(const dievent::MetadataRepository& a,
                 const dievent::MetadataRepository& b, std::string* why);

/// Off-diagonal look-at cells of `repo` that agree with the scene's
/// ground truth (the PipelineAccuracy::lookat_cell_accuracy tally).
struct CellTally {
  long long agree = 0;
  long long total = 0;
};
void TallyCells(const dievent::DiningScene& scene,
                const dievent::MetadataRepository& repo, CellTally* tally);

/// Answers corpus queries by loading every in-scope shard serially and
/// evaluating the frame predicate on each, with no pruning and no
/// fan-out. Loaded shards and answers are cached by directory and query
/// text; the corpus content must not change between calls.
class CorpusOracle {
 public:
  /// True when `got` equals the oracle's answer for `text` over the
  /// corpus at `root` whose manifest is `shards`.
  bool Check(dievent::FileSystem* fs, const std::string& root,
             const std::vector<dievent::ShardIndexEntry>& shards,
             const std::string& text,
             const dievent::CorpusQueryResult& got, std::string* why);

 private:
  struct Expected {
    std::string event_id;
    std::string dir;
    std::vector<dievent::FrameMatch> frames;
  };
  std::map<std::string, dievent::MetadataRepository> shards_;
  std::map<std::string, std::vector<Expected>> answers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
