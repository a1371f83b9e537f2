#include "trace.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name, int64_t id)
    : tracer_(tracer), index_(static_cast<int>(tracer->spans_.size())) {
  Span span;
  span.name = name;
  span.parent = tracer->open_.empty() ? -1 : tracer->open_.back();
  span.id = id;
  tracer->open_.push_back(index_);
  tracer->spans_.push_back(span);
  // Stamp last, so the span's own bookkeeping is charged to its parent.
  tracer->spans_[index_].start_ns = tracer->NowNs();
}

Tracer::Scope::~Scope() {
  tracer_->spans_[index_].end_ns = tracer_->NowNs();
  tracer_->open_.pop_back();
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // ts/dur are microseconds in the trace-event format; the exact
    // nanosecond stamps ride along in args for the self-time analysis.
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"id\":%" PRId64 ",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 "}}",
                 i == 0 ? "" : ",\n", s.name, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, i, s.parent, s.id,
                 s.start_ns, s.end_ns);
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
