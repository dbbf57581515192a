// In-memory span recorder for the benchmark's traced run. Spans are taken
// from the benchmark's own code around calls into the library's public API
// (OptimizeFlow, AnnotationProvider::Annotate, OptimizedProgram::Run,
// QueryServer::Submit / QueryHandle::Wait); nothing inside the library is
// instrumented. A span is recorded once its interval is known, so recording
// is a clock read plus one locked push_back.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root span
  uint64_t unit = 0;    // job / request id; 0 for set-up work
  std::string name;     // "<layer>.<call>", e.g. "engine.run"
  Clock::time_point start;
  Clock::time_point end;

  /// The layer is the name up to its first '.'.
  std::string layer() const { return name.substr(0, name.find('.')); }
};

/// Thread-safe span store. A disabled tracer hands out ids and drops spans,
/// so call sites need no branches.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Reserves an id for a span whose children are recorded before it ends.
  uint64_t NewId();

  /// Records a finished span. `id` 0 allocates a fresh one.
  void Record(uint64_t id, uint64_t parent, uint64_t unit,
                  std::string name, Clock::time_point start,
                  Clock::time_point end);

  /// Self time per layer, summed over the spans of the given units: each
  /// span's duration minus the part of it covered by its direct children.
  std::map<std::string, double> SelfSeconds(
      const std::vector<uint64_t>& units) const;

  /// Durations of every span with this name, in recording order.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes all spans as a JSON array, times relative to `epoch`.
  bool WriteJson(const std::string& path, Clock::time_point epoch) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;    // guarded by mu_
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
