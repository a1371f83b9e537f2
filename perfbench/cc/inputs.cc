#include "inputs.h"

#include <algorithm>

#include "common/rng.h"
#include "common/strings.h"
#include "sim/scenario.h"
#include "sim/scene_config.h"

namespace perfbench {

using dievent::Rng;
using dievent::StrFormat;

namespace {

constexpr double kFps = 15.25;

// Independent streams per purpose, so adding a draw to one input kind
// never shifts another's.
Rng StreamRng(uint64_t seed, uint64_t stream) {
  return Rng(seed * 0x9e3779b97f4a7c15ull + stream);
}

int Pick(Rng* rng, int lo, int hi) {  // uniform in [lo, hi]
  return lo + static_cast<int>(rng->NextBelow(hi - lo + 1));
}

/// A seeded permutation of 0 .. n-1.
std::vector<int> Shuffled(int n, Rng* rng) {
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  for (int i = n - 1; i > 0; --i) std::swap(order[i], order[Pick(rng, 0, i)]);
  return order;
}

const char* const kQueryEmotions[] = {"happy", "neutral", "sad"};

/// Frame term number `q` of a mix over `n` participants. Term kinds
/// rotate and participants cycle through the ordered pairs as functions
/// of `q` alone, so every seed's mix has the same kinds and pairs and
/// costs about the same; the seed picks time windows, emotions and
/// thresholds.
std::string FrameTerm(int q, int n, double duration_s, Rng* rng) {
  const int k = q / 6;
  const int a = 1 + k % n;
  const int b = 1 + (a + (k / n) % (n - 1)) % n;  // never a
  const int t0 = Pick(rng, 0, std::max(0, static_cast<int>(duration_s) - 10));
  switch (q % 6) {
    case 0:
      return StrFormat("ec(P%d,P%d)", a, b);
    case 1:
      return StrFormat("look(P%d,P%d) & time[%d,%d)", a, b, t0, t0 + 10);
    case 2:
      return StrFormat("watched(P%d)", a);
    case 3:
      return StrFormat("feel(P%d,%s)", a,
                       kQueryEmotions[rng->NextBelow(3)]);
    case 4:
      return StrFormat("time[%d,%d)", t0, t0 + 5);
    default:
      return StrFormat("oh >= %.2f", rng->Uniform(0.1, 0.6));
  }
}

}  // namespace

MeetingInputs MakeMeetingInputs(uint64_t seed) {
  MeetingInputs in;
  in.scene = dievent::MakeMeetingScenario();
  Rng rng = StreamRng(seed, 1);
  in.train_seed = rng.NextU64();
  const double duration = in.scene.DurationSeconds();
  for (int q = 0; q < 48; ++q) {
    in.queries.push_back("events : " + FrameTerm(q, in.scene.NumParticipants(),
                                                 duration, &rng));
  }
  return in;
}

dievent::Result<FleetInputs> MakeFleetInputs(uint64_t seed) {
  struct Shape {
    TenantKind kind;
    int n;
    int seconds;
  };
  // 4 meetings (4 participants, 40 s) + 6 dinners + 6 random scenes.
  static const Shape kShapes[] = {
      {TenantKind::kMeeting, 4, 40}, {TenantKind::kMeeting, 4, 40},
      {TenantKind::kMeeting, 4, 40}, {TenantKind::kMeeting, 4, 40},
      {TenantKind::kDinner, 4, 30},  {TenantKind::kDinner, 5, 45},
      {TenantKind::kDinner, 6, 60},  {TenantKind::kDinner, 7, 40},
      {TenantKind::kDinner, 4, 50},  {TenantKind::kDinner, 5, 35},
      {TenantKind::kRandom, 6, 40},  {TenantKind::kRandom, 7, 55},
      {TenantKind::kRandom, 4, 25},  {TenantKind::kRandom, 5, 65},
      {TenantKind::kRandom, 6, 30},  {TenantKind::kRandom, 7, 45},
  };
  FleetInputs in;
  Rng scene_rng = StreamRng(seed, 2);
  int index = 0;
  for (const Shape& shape : kShapes) {
    TenantInput t;
    t.kind = shape.kind;
    const char* kind_name = "meeting";
    dievent::DiningScene generated;
    if (shape.kind == TenantKind::kMeeting) {
      generated = dievent::MakeMeetingScenario();
    } else if (shape.kind == TenantKind::kDinner) {
      generated = dievent::MakeDinnerScenario(shape.n, shape.seconds, kFps);
      kind_name = "dinner";
    } else {
      generated = dievent::MakeRandomScenario(
          shape.n, static_cast<int>(shape.seconds * kFps), kFps, &scene_rng);
      kind_name = "random";
    }
    t.config = dievent::SceneToConfig(generated);
    DIEVENT_ASSIGN_OR_RETURN(t.scene, dievent::ParseSceneConfig(t.config));
    t.name = StrFormat("t%02d-%s%d", index++, kind_name, shape.n);
    in.tenants.push_back(std::move(t));
  }
  // Longest first: records per frame are n + 2, snapshots grow with
  // length, so cost rises with both.
  std::stable_sort(in.tenants.begin(), in.tenants.end(),
                   [](const TenantInput& a, const TenantInput& b) {
                     return a.scene.num_frames() *
                                (a.scene.NumParticipants() + 2) >
                            b.scene.num_frames() *
                                (b.scene.NumParticipants() + 2);
                   });

  Rng query_rng = StreamRng(seed, 3);
  for (int q = 0; q < 48; ++q) {
    // Every tenant has at least 4 participants and 25 s.
    std::string frame = FrameTerm(q, 4, 25, &query_rng);
    in.queries.push_back(q % 4 == 3
                             ? "events where participants >= 5 : " + frame
                             : "events : " + frame);
  }
  return in;
}

CorpusInputs MakeCorpusInputs(uint64_t seed) {
  static const char* const kVenues[] = {"sala roja", "garden terrace",
                                        "meeting room 12", "rooftop bar"};
  static const char* const kOccasions[] = {"birthday", "team dinner",
                                           "menu tasting"};
  static const char* const kDates[] = {"2026-03-14", "2026-05-02",
                                       "2026-07-19", "2026-09-30"};
  constexpr int kEvents = 100;
  CorpusInputs in;
  Rng rng = StreamRng(seed, 4);
  // Contexts are dealt from seeded permutations, so how many events each
  // venue, occasion and date holds does not depend on the seed.
  const std::vector<int> venue = Shuffled(kEvents, &rng);
  const std::vector<int> occasion = Shuffled(kEvents, &rng);
  const std::vector<int> date = Shuffled(kEvents, &rng);
  for (int e = 0; e < kEvents; ++e) {
    CorpusEventInput ev;
    // Fixed size rotation: 4-7 participants, 20-76 s.
    const int n = 4 + e % 4;
    const int seconds = 20 + (e * 7) % 57;
    ev.scene = dievent::MakeRandomScenario(
        n, static_cast<int>(seconds * kFps), kFps, &rng);
    ev.context.event_id = StrFormat("ev-%03d-%04x", e,
                                    static_cast<int>(rng.NextBelow(65536)));
    ev.context.location = kVenues[venue[e] % 4];
    ev.context.occasion = kOccasions[occasion[e] % 3];
    ev.context.date = kDates[date[e] % 4];
    ev.context.num_participants = n;
    for (int p = 0; p < n; ++p) {
      ev.context.participant_names.push_back(StrFormat("P%d", p + 1));
    }
    in.events.push_back(std::move(ev));
  }
  for (int q = 0; q < 256; ++q) {
    const int n = 4 + q % 4;  // reference up to P7: prunes smaller events
    std::string frame = FrameTerm(q, n, 76, &rng);
    switch (q % 4) {
      case 0:
        in.queries.push_back(
            StrFormat("events where venue = \"%s\" : ", kVenues[q / 4 % 4]) +
            frame);
        break;
      case 1:
        in.queries.push_back(StrFormat("events where occasion = \"%s\" : ",
                                       kOccasions[q / 4 % 3]) +
                             frame);
        break;
      case 2:
        in.queries.push_back(
            StrFormat("events where participants >= %d : ", n) + frame);
        break;
      default:
        in.queries.push_back("events : " + frame);
    }
  }
  return in;
}

namespace {

class Fnv {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  template <typename T>
  void Value(const T& v) {
    Bytes(&v, sizeof(v));
  }
  void Text(const std::string& s) {
    Value(s.size());
    Bytes(s.data(), s.size());
  }
  void Scene(const dievent::DiningScene& scene) {
    Value(scene.num_frames());
    Value(scene.fps());
    Value(scene.rig().NumCameras());
    for (int f = 0; f < scene.num_frames(); ++f) {
      for (const auto& s : scene.StateAt(scene.TimeOfFrame(f))) {
        Value(s.head_position.x);
        Value(s.head_position.y);
        Value(s.head_position.z);
        Value(s.gaze_direction.x);
        Value(s.gaze_direction.y);
        Value(s.gaze_direction.z);
        Value(s.gaze_target);
        Value(static_cast<int>(s.emotion));
      }
    }
  }
  std::string Hex() const { return StrFormat("%016llx", hash_); }

 private:
  unsigned long long hash_ = 0xcbf29ce484222325ull;
};

}  // namespace

std::string InputsDigest(const std::string& workload, uint64_t seed) {
  Fnv fnv;
  if (workload == "meeting_vision") {
    MeetingInputs in = MakeMeetingInputs(seed);
    fnv.Scene(in.scene);
    fnv.Value(in.train_seed);
    for (const auto& q : in.queries) fnv.Text(q);
  } else if (workload == "fleet_ingest") {
    auto in = MakeFleetInputs(seed);
    if (!in.ok()) return "";
    for (const auto& t : in.value().tenants) {
      fnv.Text(t.name);
      fnv.Text(t.config);
      fnv.Scene(t.scene);
    }
    for (const auto& q : in.value().queries) fnv.Text(q);
  } else if (workload == "corpus_query") {
    CorpusInputs in = MakeCorpusInputs(seed);
    for (const auto& e : in.events) {
      fnv.Text(e.context.event_id);
      fnv.Text(e.context.location);
      fnv.Text(e.context.occasion);
      fnv.Text(e.context.date);
      fnv.Scene(e.scene);
    }
    for (const auto& q : in.queries) fnv.Text(q);
  } else {
    return "";
  }
  return fnv.Hex();
}

}  // namespace perfbench
