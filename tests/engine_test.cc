// Execution engine tests: the Section 3 example end to end, byte metering of
// shipping strategies, estimate-vs-measured sanity, and the per-node meter
// table.

#include "engine/executor.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/optimizer_api.h"
#include "tests/test_flows.h"
#include "workloads/clickstream.h"
#include "workloads/tpch.h"

namespace blackbox {
namespace engine {
namespace {

using core::BlackBoxOptimizer;
using dataflow::AnnotationMode;

TEST(Engine, Section3FlowComputesExpectedOutput) {
  dataflow::DataFlow flow = testing::MakeSection3Flow();
  DataSet data = testing::MakeSection3Data();

  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(flow);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ExecOptions eo;
  eo.dop = 3;
  Executor exec(&result->annotated, eo);
  exec.BindSource(0, &data);

  StatusOr<DataSet> out = exec.Execute(result->ranked[0].physical);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  // Input: (2,-3) -> (5,3); (-2,-3) filtered; (5,1) -> (6,1);
  // (0,0) -> (0,0); (-7,4) filtered.
  DataSet expected;
  expected.Add(Record({Value(int64_t{5}), Value(int64_t{3})}));
  expected.Add(Record({Value(int64_t{6}), Value(int64_t{1})}));
  expected.Add(Record({Value(int64_t{0}), Value(int64_t{0})}));
  EXPECT_TRUE(out->BagEquals(expected)) << out->ToString();
}

TEST(Engine, AllSection3AlternativesAgree) {
  dataflow::DataFlow flow = testing::MakeSection3Flow();
  DataSet data = testing::MakeSection3Data();
  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(flow);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->ranked.size(), 2u);

  Executor exec(&result->annotated);
  exec.BindSource(0, &data);
  StatusOr<DataSet> a = exec.Execute(result->ranked[0].physical);
  StatusOr<DataSet> b = exec.Execute(result->ranked[1].physical);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->BagEquals(*b));
}

TEST(Engine, StatsAreMetered) {
  dataflow::DataFlow flow = testing::MakeSection422Flow();
  DataSet data;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    data.Add(Record({Value(rng.Uniform(0, 20)), Value(rng.Uniform(0, 50))}));
  }
  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(flow);
  ASSERT_TRUE(result.ok());

  ExecOptions eo;
  eo.dop = 4;
  Executor exec(&result->annotated, eo);
  exec.BindSource(0, &data);
  ExecStats stats;
  StatusOr<DataSet> out = exec.Execute(result->ranked[0].physical, &stats);
  ASSERT_TRUE(out.ok());
  // The Reduce repartitions by key: bytes must cross instances.
  EXPECT_GT(stats.network_bytes, 0);
  EXPECT_GT(stats.udf_calls, 0);
  EXPECT_GT(stats.records_processed, 0);
  EXPECT_EQ(stats.output_rows, static_cast<int64_t>(out->size()));
  EXPECT_GT(stats.wall_seconds, 0.0);
}

TEST(Engine, MissingSourceBindingFails) {
  dataflow::DataFlow flow = testing::MakeSection3Flow();
  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(flow);
  ASSERT_TRUE(result.ok());
  Executor exec(&result->annotated);
  StatusOr<DataSet> out = exec.Execute(result->ranked[0].physical);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), Status::Code::kInvalidArgument);
}

TEST(Engine, DopOneAndManyProduceSameResult) {
  dataflow::DataFlow flow = testing::MakeSection422Flow();
  DataSet data;
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    data.Add(Record({Value(rng.Uniform(0, 10)), Value(rng.Uniform(0, 9))}));
  }
  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(flow);
  ASSERT_TRUE(result.ok());

  StatusOr<DataSet> out1 = [&] {
    ExecOptions eo;
    eo.dop = 1;
    Executor exec(&result->annotated, eo);
    exec.BindSource(0, &data);
    return exec.Execute(result->ranked[0].physical);
  }();
  StatusOr<DataSet> out8 = [&] {
    ExecOptions eo;
    eo.dop = 8;
    Executor exec(&result->annotated, eo);
    exec.BindSource(0, &data);
    return exec.Execute(result->ranked[0].physical);
  }();
  ASSERT_TRUE(out1.ok());
  ASSERT_TRUE(out8.ok());
  EXPECT_TRUE(out1->BagEquals(*out8));
}

std::unique_ptr<optimizer::PhysicalNode> CloneSubtree(
    const optimizer::PhysicalNode& n) {
  auto out = std::make_unique<optimizer::PhysicalNode>();
  out->op_id = n.op_id;
  out->ships = n.ships;
  out->local = n.local;
  out->input_presorted = n.input_presorted;
  out->sort_order = n.sort_order;
  out->chain_id = n.chain_id;
  for (const auto& c : n.children) out->children.push_back(CloneSubtree(*c));
  return out;
}

/// Unfused, every node is its own chain: the per-node table must split the
/// UDF totals exactly, and each non-source node's rows_out must be the
/// record count of its own output — what executing the subtree it roots
/// returns.
void ExpectPerNodeMetersSplitTotals(const workloads::Workload& w) {
  SCOPED_TRACE(w.name);
  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(w.flow);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExecOptions eo;
  eo.dop = 4;
  eo.fuse_chains = false;
  auto bind = [&](Executor* exec) {
    for (const auto& [id, data] : w.source_data) exec->BindSource(id, &data);
  };
  Executor exec(&result->annotated, eo);
  bind(&exec);
  const optimizer::PhysicalPlan& plan = result->best().physical;
  ExecStats stats;
  StatusOr<DataSet> out = exec.Execute(plan, &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  int64_t calls = 0, instrs = 0, burn = 0;
  for (const auto& [id, m] : stats.per_node) {
    calls += m.udf_calls;
    instrs += m.interp_instructions;
    burn += m.cpu_burn_units;
  }
  EXPECT_EQ(calls, stats.udf_calls);
  EXPECT_EQ(instrs, stats.interp_instructions);
  EXPECT_EQ(burn, stats.cpu_burn_units);
  EXPECT_GT(stats.cpu_burn_units + stats.interp_instructions, 0);

  std::vector<const optimizer::PhysicalNode*> stack = {plan.root.get()};
  int checked = 0;
  while (!stack.empty()) {
    const optimizer::PhysicalNode* n = stack.back();
    stack.pop_back();
    for (const auto& c : n->children) stack.push_back(c.get());
    if (w.flow.op(n->op_id).kind == dataflow::OpKind::kSource) continue;
    SCOPED_TRACE("op " + std::to_string(n->op_id));
    optimizer::PhysicalPlan sub;
    sub.root = CloneSubtree(*n);
    Executor sub_exec(&result->annotated, eo);
    bind(&sub_exec);
    StatusOr<DataSet> sub_out = sub_exec.Execute(sub);
    ASSERT_TRUE(sub_out.ok()) << sub_out.status().ToString();
    ASSERT_EQ(stats.per_node.count(n->op_id), 1u);
    EXPECT_EQ(stats.per_node.at(n->op_id).rows_out,
              static_cast<int64_t>(sub_out->size()));
    ++checked;
  }
  EXPECT_EQ(checked, w.flow.num_ops() - static_cast<int>(w.source_data.size()));
  EXPECT_EQ(stats.per_node.at(plan.root->op_id).rows_out, stats.output_rows);
}

TEST(Engine, PerNodeMetersSplitTotalsOnQ7) {
  workloads::TpchScale scale;
  scale.lineitems = 2000;
  scale.orders = 500;
  scale.customers = 100;
  scale.suppliers = 25;
  ExpectPerNodeMetersSplitTotals(workloads::MakeTpchQ7(scale));
}

TEST(Engine, PerNodeMetersSplitTotalsOnClickstream) {
  workloads::ClickstreamScale scale;
  scale.sessions = 300;
  ExpectPerNodeMetersSplitTotals(workloads::MakeClickstream(scale));
}

}  // namespace
}  // namespace engine
}  // namespace blackbox
