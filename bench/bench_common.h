/// \file bench_common.h
/// Shared helpers for the figure-reproduction benches.

#ifndef DIEVENT_BENCH_BENCH_COMMON_H_
#define DIEVENT_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "analysis/eye_contact.h"
#include "analysis/fusion.h"
#include "analysis/lookat_matrix.h"
#include "ml/face_recognizer.h"
#include "render/scene_renderer.h"
#include "sim/scenario.h"
#include "vision/face_analyzer.h"

namespace dievent {
namespace bench {

inline const char* kParticipantColors[4] = {"yellow", "blue", "green",
                                            "black"};

inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

/// Formats a look-at matrix as the paper draws it (1 = looking).
inline void PrintLookAt(const LookAtMatrix& m,
                        const std::vector<std::string>& names) {
  std::printf("        ");
  for (int y = 0; y < m.size(); ++y)
    std::printf("%7s", names[y].c_str());
  std::printf("\n");
  for (int x = 0; x < m.size(); ++x) {
    std::printf("%7s ", names[x].c_str());
    for (int y = 0; y < m.size(); ++y)
      std::printf("%7d", x == y ? 0 : (m.At(x, y) ? 1 : 0));
    std::printf("\n");
  }
}

/// Ground-truth look-at matrix of the scene at time t.
inline LookAtMatrix GroundTruthMatrix(const DiningScene& scene, double t) {
  auto gt = scene.GroundTruthLookAt(t);
  LookAtMatrix m(static_cast<int>(gt.size()));
  for (size_t x = 0; x < gt.size(); ++x)
    for (size_t y = 0; y < gt.size(); ++y)
      m.Set(static_cast<int>(x), static_cast<int>(y), gt[x][y]);
  return m;
}

/// Runs the full vision stack on one instant of the scene and returns the
/// estimated look-at matrix (12 deg tolerance absorbs iris quantization).
inline LookAtMatrix VisionMatrixAt(const DiningScene& scene, double t,
                                   const FaceRecognizer& recognizer,
                                   const FaceAnalyzer& analyzer) {
  auto states = scene.StateAt(t);
  std::vector<FaceObservation> all;
  for (int c = 0; c < scene.rig().NumCameras(); ++c) {
    ImageRgb frame = RenderView(scene, states, c, RenderOptions{});
    for (FaceObservation& obs :
         analyzer.Analyze(scene.rig().camera(c), c, frame)) {
      IdentityMatch m = recognizer.Recognize(frame, obs.detection);
      obs.identity = m.id;
      obs.identity_confidence = m.confidence;
      all.push_back(std::move(obs));
    }
  }
  auto fused = FuseObservations(all, scene.NumParticipants());
  EyeContactOptions opt;
  opt.angular_tolerance_deg = 12.0;
  return EyeContactDetector(opt).ComputeLookAt(ToGeometry(fused));
}

/// Provenance of a `--perf_smoke` JSON snapshot, as object members to
/// splice after the opening brace (two-space indent, trailing comma): the
/// build type and compiler this binary was built with, the commit the
/// build was configured from ("-dirty" when tracked files differed,
/// "unknown" outside git), and the host's core count. The bench
/// CMakeLists defines the three macros.
inline std::string SmokeProvenanceJson() {
  const std::string build_type = DIEVENT_BUILD_TYPE;
  return "  \"build_type\": \"" +
         (build_type.empty() ? std::string("none") : build_type) + "\",\n" +
         "  \"compiler\": \"" DIEVENT_COMPILER "\",\n" +
         "  \"commit\": \"" DIEVENT_GIT_COMMIT "\",\n" +
         "  \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
}

inline std::vector<std::string> Names(const DiningScene& scene) {
  std::vector<std::string> names;
  for (const auto& p : scene.participants()) names.push_back(p.profile.name);
  return names;
}

}  // namespace bench
}  // namespace dievent

#endif  // DIEVENT_BENCH_BENCH_COMMON_H_
