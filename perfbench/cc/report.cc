#include "report.h"

#include <cmath>
#include <thread>

#include "common/simd.h"

namespace perfbench {

namespace {

void PrintString(std::FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', out);
      std::fputc(c, out);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(out, "\\u%04x", c);
    } else {
      std::fputc(c, out);
    }
  }
  std::fputc('"', out);
}

void PrintNumber(std::FILE* out, double v) {
  if (std::isfinite(v)) {
    std::fprintf(out, "%.17g", v);
  } else {
    std::fputs("null", out);
  }
}

}  // namespace

void RunResult::Attempt(bool ok, const std::string& error) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 20) errors.push_back(error);
}

void WriteRawJson(std::FILE* out, const RunOptions& options,
                  const RunResult& result) {
  std::fputs("{\"workload\":", out);
  PrintString(out, options.workload);
  std::fprintf(out,
               ",\"seed\":%llu,\"trace\":%d,\"attempted\":%lld,"
               "\"failed\":%lld,\"errors\":[",
               static_cast<unsigned long long>(options.seed),
               options.trace_out.empty() ? 0 : 1, result.attempted,
               result.failed);
  for (size_t i = 0; i < result.errors.size(); ++i) {
    if (i > 0) std::fputc(',', out);
    PrintString(out, result.errors[i]);
  }
  std::fputs("],\"setup_s\":[", out);
  for (size_t i = 0; i < result.setup_s.size(); ++i) {
    if (i > 0) std::fputc(',', out);
    PrintNumber(out, result.setup_s[i]);
  }
  std::fputs("],\"series\":{", out);
  bool first = true;
  for (const auto& [name, samples] : result.series) {
    if (!first) std::fputc(',', out);
    first = false;
    PrintString(out, name);
    std::fputs(":[", out);
    for (size_t i = 0; i < samples.size(); ++i) {
      if (i > 0) std::fputc(',', out);
      PrintNumber(out, samples[i]);
    }
    std::fputc(']', out);
  }
  std::fputs("},\"values\":{", out);
  first = true;
  for (const auto& [name, value] : result.values) {
    if (!first) std::fputc(',', out);
    first = false;
    PrintString(out, name);
    std::fputc(':', out);
    PrintNumber(out, value);
  }
  std::fputs("},\"provenance\":{\"build_type\":", out);
  PrintString(out, PERFBENCH_BUILD_TYPE);
  std::fputs(",\"compiler\":", out);
  PrintString(out, PERFBENCH_COMPILER);
  std::fputs(",\"simd_backend\":", out);
  PrintString(out, dievent::simd::ActiveBackend());
  std::fprintf(out,
               ",\"lock_ranks\":%d,\"nproc\":%u,\"store_fs\":"
               "\"ram (in-process FileSystem)\"}}\n",
               DIEVENT_LOCK_RANKS,
               std::thread::hardware_concurrency());
}

}  // namespace perfbench
