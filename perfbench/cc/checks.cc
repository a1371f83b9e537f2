#include "checks.h"

#include <algorithm>

#include "common/strings.h"
#include "metadata/durable_store.h"
#include "metadata/query_parser.h"

namespace perfbench {

using dievent::StrFormat;

namespace {

bool SameLookAt(const dievent::LookAtRecord& a,
                const dievent::LookAtRecord& b) {
  return a.frame == b.frame && a.timestamp_s == b.timestamp_s &&
         a.n == b.n && a.cells == b.cells;
}

bool SameEmotion(const dievent::EmotionRecord& a,
                 const dievent::EmotionRecord& b) {
  return a.frame == b.frame && a.timestamp_s == b.timestamp_s &&
         a.participant == b.participant && a.emotion == b.emotion &&
         a.confidence == b.confidence;
}

bool SameOverall(const dievent::OverallEmotionRecord& a,
                 const dievent::OverallEmotionRecord& b) {
  return a.frame == b.frame && a.timestamp_s == b.timestamp_s &&
         a.overall_happiness == b.overall_happiness &&
         a.mean_valence == b.mean_valence && a.observed == b.observed;
}

template <typename T, typename Eq>
bool SameList(const char* kind, const std::vector<T>& a,
              const std::vector<T>& b, Eq eq, std::string* why) {
  if (a.size() != b.size()) {
    *why = StrFormat("%s records: %zu vs %zu", kind, a.size(), b.size());
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!eq(a[i], b[i])) {
      *why = StrFormat("%s record %zu (frame %d) differs", kind, i,
                       a[i].frame);
      return false;
    }
  }
  return true;
}

}  // namespace

bool SameRecords(const dievent::MetadataRepository& a,
                 const dievent::MetadataRepository& b, std::string* why) {
  return SameList("look-at", a.lookat_records(), b.lookat_records(),
                  SameLookAt, why) &&
         SameList("emotion", a.emotion_records(), b.emotion_records(),
                  SameEmotion, why) &&
         SameList("overall", a.overall_records(), b.overall_records(),
                  SameOverall, why);
}

void TallyCells(const dievent::DiningScene& scene,
                const dievent::MetadataRepository& repo, CellTally* tally) {
  for (const dievent::LookAtRecord& r : repo.lookat_records()) {
    const std::vector<std::vector<bool>> truth =
        scene.GroundTruthLookAt(r.timestamp_s);
    for (int x = 0; x < r.n; ++x) {
      for (int y = 0; y < r.n; ++y) {
        if (x == y) continue;
        ++tally->total;
        if (r.At(x, y) == truth[x][y]) ++tally->agree;
      }
    }
  }
}

bool CorpusOracle::Check(dievent::FileSystem* fs, const std::string& root,
                         const std::vector<dievent::ShardIndexEntry>& shards,
                         const std::string& text,
                         const dievent::CorpusQueryResult& got,
                         std::string* why) {
  auto cached = answers_.find(text);
  if (cached == answers_.end()) {
    auto spec = dievent::ParseCorpusQuery(text);
    if (!spec.ok()) {
      *why = "oracle parse: " + spec.status().ToString();
      return false;
    }
    std::vector<Expected> expected;
    for (const dievent::ShardIndexEntry& entry : shards) {
      if (!dievent::EventCorpus::ShardInScope(entry, spec.value().scope)) {
        continue;
      }
      auto loaded = shards_.find(entry.dir);
      if (loaded == shards_.end()) {
        auto state = dievent::DurableEventStore::LoadState(
            fs, dievent::JoinPath(root, entry.dir));
        if (!state.ok()) {
          *why = "oracle load: " + state.status().ToString();
          return false;
        }
        loaded = shards_.emplace(entry.dir, std::move(state).TakeValue())
                     .first;
      }
      expected.push_back(
          {entry.event_id, entry.dir,
           dievent::Query(&loaded->second, spec.value().frame).Execute()});
    }
    std::sort(expected.begin(), expected.end(),
              [](const Expected& a, const Expected& b) {
                return a.event_id != b.event_id ? a.event_id < b.event_id
                                                : a.dir < b.dir;
              });
    cached = answers_.emplace(text, std::move(expected)).first;
  }
  const std::vector<Expected>& expected = cached->second;
  if (got.events.size() != expected.size()) {
    *why = StrFormat("'%s': %zu events in scope, oracle has %zu",
                     text.c_str(), got.events.size(), expected.size());
    return false;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    const dievent::EventMatches& e = got.events[i];
    if (e.event_id != expected[i].event_id ||
        e.shard_dir != expected[i].dir || e.frames != expected[i].frames) {
      *why = StrFormat("'%s': event %s differs from the oracle",
                       text.c_str(), expected[i].dir.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
