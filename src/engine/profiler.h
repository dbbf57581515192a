// Runtime profiling of black-box operators — the paper lists "estimating the
// selectivity and execution cost of black box operators" as future work (§9)
// and names runtime profiling as one source of optimizer hints (§7.1). This
// profiler runs the *original* flow once, through engine::Executor, over a
// seeded sample of the source data and reads per operator from the run's
// per-node meters (ExecStats::per_node):
//
//   * selectivity        — output records per UDF call
//   * cpu_cost_per_call  — modeled compute per call: interpreter instructions
//                          and CpuBurn units over the machine model's
//                          throughputs (ModeledUdfSeconds), never wall time
//   * distinct_keys      — Reduce / CoGroup: calls (one per key group),
//                          scaled to full size by the sample fraction;
//                          Match: l_rows · r_rows / calls, the key domain of
//                          the cost model's rows = l·r/domain, which sampling
//                          both inputs leaves unchanged
//
// The sample runs at dop 1 without combiners, unfused, and with data
// skipping and chain specialization off, so every operator is metered on its
// own and each UDF call happens exactly once per record, group or pair. The
// whole profile is a pure function of (flow, data, options). The measured
// values are written back into the operators' Hints, after which the
// cost-based optimizer runs as usual.

#ifndef BLACKBOX_ENGINE_PROFILER_H_
#define BLACKBOX_ENGINE_PROFILER_H_

#include <map>

#include "common/status.h"
#include "dataflow/flow.h"
#include "record/record.h"

namespace blackbox {
namespace engine {

struct ProfileOptions {
  size_t sample_records = 2000;  // per source
  uint64_t seed = 1;
};

/// Measured hints for one operator.
struct OperatorProfile {
  int64_t calls = 0;
  int64_t emitted = 0;
  double modeled_seconds = 0;
  int64_t distinct_keys_scaled = -1;

  double selectivity() const {
    return calls > 0 ? static_cast<double>(emitted) / calls : 1.0;
  }
};

struct FlowProfile {
  std::map<int, OperatorProfile> per_op;
};

/// Runs the original flow on a uniform sample of each source and measures
/// per-operator behaviour. Requires data for every source.
StatusOr<FlowProfile> ProfileFlow(
    const dataflow::DataFlow& flow,
    const std::map<int, const DataSet*>& source_data,
    const ProfileOptions& options = {});

/// Writes measured selectivity / cpu cost / distinct keys into the flow's
/// operator hints (leaves operators the profiler could not observe — e.g.
/// ones whose sampled input was empty — untouched).
void ApplyProfile(const FlowProfile& profile, dataflow::DataFlow* flow);

}  // namespace engine
}  // namespace blackbox

#endif  // BLACKBOX_ENGINE_PROFILER_H_
