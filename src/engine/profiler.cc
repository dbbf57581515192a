#include "engine/profiler.h"

#include <algorithm>

#include "common/rng.h"
#include "dataflow/annotate.h"
#include "engine/executor.h"
#include "optimizer/physical.h"
#include "reorder/plan.h"

namespace blackbox {
namespace engine {

using dataflow::OpKind;

StatusOr<FlowProfile> ProfileFlow(
    const dataflow::DataFlow& flow,
    const std::map<int, const DataSet*>& source_data,
    const ProfileOptions& options) {
  StatusOr<dataflow::AnnotatedFlow> af =
      dataflow::Annotate(flow, dataflow::AnnotationMode::kSca);
  if (!af.ok()) return af.status();

  // One seeded sample per source, drawn in source id order; the executor's
  // scan widens the records to the global layout.
  Rng rng(options.seed);
  std::map<int, DataSet> samples;
  std::map<int, double> sample_fraction;  // per op: sample rows / true rows
  for (int id = 0; id < flow.num_ops(); ++id) {
    const dataflow::Operator& op = flow.op(id);
    if (op.kind != OpKind::kSource) continue;
    auto it = source_data.find(id);
    if (it == source_data.end()) {
      return Status::InvalidArgument("no data bound for source " + op.name);
    }
    const DataSet& full = *it->second;
    double keep = full.size() > options.sample_records
                      ? static_cast<double>(options.sample_records) /
                            full.size()
                      : 1.0;
    DataSet& sample = samples[id];
    for (size_t ri = 0; ri < full.size(); ++ri) {
      if (rng.Chance(keep)) sample.Add(full.record(ri));
    }
    sample_fraction[id] = keep;
  }

  // The original order at dop 1 with no combiner (which would call a Reduce
  // UDF twice per group), run unfused with skipping and specialization off:
  // every operator is its own chain and makes each of its calls exactly once.
  optimizer::CostWeights weights;
  weights.dop = 1;
  weights.enable_combiner = false;
  StatusOr<optimizer::PhysicalPlan> plan = optimizer::OptimizePhysical(
      *af, reorder::PlanFromFlow(*af->flow), weights);
  if (!plan.ok()) return plan.status();
  ExecOptions exec_options;
  exec_options.dop = 1;
  exec_options.fuse_chains = false;
  exec_options.enable_data_skipping = false;
  exec_options.enable_chain_specialization = false;
  Executor executor(&*af, exec_options);
  for (const auto& [id, sample] : samples) executor.BindSource(id, &sample);
  ExecStats stats;
  StatusOr<DataSet> out = executor.Execute(*plan, &stats);
  if (!out.ok()) return out.status();

  FlowProfile profile;
  for (int id = 0; id < flow.num_ops(); ++id) {
    const dataflow::Operator& op = flow.op(id);
    if (op.kind == OpKind::kSource) continue;
    double frac = 1.0;
    for (int in : op.inputs) frac = std::min(frac, sample_fraction[in]);
    sample_fraction[id] = frac;
    if (op.kind == OpKind::kSink) continue;

    const NodeMeters& m = stats.per_node[id];
    OperatorProfile& prof = profile.per_op[id];
    prof.calls = m.udf_calls;
    prof.emitted = m.rows_out;
    prof.modeled_seconds =
        ModeledUdfSeconds(m.interp_instructions, m.cpu_burn_units,
                          exec_options);
    if (prof.calls == 0) continue;
    if (op.kind == OpKind::kReduce || op.kind == OpKind::kCoGroup) {
      // One call per key group; scale the sample-distinct count up to the
      // full data size.
      prof.distinct_keys_scaled =
          frac < 1.0 ? static_cast<int64_t>(prof.calls / frac) : prof.calls;
    } else if (op.kind == OpKind::kMatch) {
      const double l = stats.per_node[op.inputs[0]].rows_out;
      const double r = stats.per_node[op.inputs[1]].rows_out;
      prof.distinct_keys_scaled = static_cast<int64_t>(l * r / prof.calls);
    }
  }
  return profile;
}

void ApplyProfile(const FlowProfile& profile, dataflow::DataFlow* flow) {
  // Normalize cpu cost so the cheapest profiled operator has cost 1.
  double min_per_call = -1;
  for (const auto& [id, prof] : profile.per_op) {
    if (prof.calls == 0) continue;
    double per_call = prof.modeled_seconds / prof.calls;
    if (min_per_call < 0 || per_call < min_per_call) min_per_call = per_call;
  }
  if (min_per_call <= 0) min_per_call = 1e-9;

  for (const auto& [id, prof] : profile.per_op) {
    if (prof.calls == 0) continue;
    dataflow::Operator& op = flow->op(id);
    op.hints.selectivity = prof.selectivity();
    op.hints.cpu_cost_per_call =
        (prof.modeled_seconds / prof.calls) / min_per_call;
    if (prof.distinct_keys_scaled > 0) {
      op.hints.distinct_keys = prof.distinct_keys_scaled;
    }
  }
}

}  // namespace engine
}  // namespace blackbox
