// Ablation study for the design choices DESIGN.md calls out:
//
//   A. Annotation provider — manual annotations vs. SCA vs. profiler-refined
//      hints: how much plan quality each knowledge source buys.
//   B. Physical optimizer features — broadcast joins and interesting-property
//      (partitioning) reuse, each switched off individually.
//   C. Sort-aware physical optimization — sort-order tracking (merge joins,
//      sort reuse) and combiner insertion, each switched off individually.
//      The combiner's headline effect is shuffled bytes: Q7's combiner plan
//      ships aggregated partials instead of the full join output.
//   D. Streaming data plane — fused operator chains vs --no-chain
//      (materialize-everything) execution of the same plan, plus the
//      pipeline-aware costing term switched off. The headline effect is
//      peak_bytes: fused peak memory is bounded by pipeline-breaker buffers
//      instead of every operator's output.
//
// For every configuration the harness optimizes, executes the chosen best
// plan, and reports estimated cost, simulated runtime, shuffle/spill bytes,
// and peak materialized bytes. All rows are also written to
// BENCH_ablation.json so CI tracks the feature contributions alongside the
// figure benchmarks.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "workloads/clickstream.h"
#include "workloads/textmining.h"
#include "workloads/tpch.h"

namespace {

using namespace blackbox;

struct Config {
  const char* name;
  const api::AnnotationProvider* provider = nullptr;  // null: SCA
  bool broadcast = true;
  bool reuse = true;
  bool sort_merge = true;
  bool combiner = true;
  bool chain_costing = true;  // pipeline-aware cost model (fused-edge term)
  bool fuse_chains = true;    // fused execution; false = --no-chain mode
  bool spill_costing = true;  // price breaker spills in the cost model; the
                              // engine spills (and meters) regardless
  bool data_skipping = true;  // zone-map refutation of batches / spill runs
  bool specialize = true;     // fused-chain TAC specialization (§2.6): Map
                              // chains execute as one constant-folded program
  double mem_budget_bytes = 1 << 20;  // per-instance budget (real spilling)
};

struct Row {
  std::string workload;
  std::string config;
  size_t plans = 0;
  double est_cost = 0;
  double simulated_seconds = 0;
  long long network_bytes = 0;
  long long disk_bytes = 0;
  long long peak_bytes = 0;
  int sort_merge_plans = 0;
  int combiner_plans = 0;
  long long skipped_batches = 0;
  long long skipped_spill_bytes = 0;
  long long interp_instructions = 0;
  long long fused_chains = 0;
};

/// Returns false if the configuration failed to optimize or execute, so
/// main can exit nonzero and CI's bench-smoke step catches the regression.
bool RunConfig(const workloads::Workload& w, const Config& cfg,
               std::vector<Row>* rows) {
  api::ScaProvider sca;
  const api::AnnotationProvider& provider =
      cfg.provider ? *cfg.provider : sca;

  api::OptimizeOptions options;
  // The ablation's `plans` column and strategy-mix counters quantify over
  // the FULL closure per feature config — rank every plan, and keep every
  // row an independent optimization (configs that share a cache key across
  // workload repeats would alias).
  options.top_k = core::kAllAlternatives;
  options.use_plan_cache = false;
  options.exec.dop = 8;
  options.exec.mem_budget_bytes = cfg.mem_budget_bytes;
  options.exec.fuse_chains = cfg.fuse_chains;
  options.weights.enable_broadcast = cfg.broadcast;
  options.weights.enable_partition_reuse = cfg.reuse;
  options.weights.enable_sort_merge = cfg.sort_merge;
  options.weights.enable_combiner = cfg.combiner;
  options.weights.enable_chain_fusion = cfg.chain_costing;
  options.weights.enable_spill = cfg.spill_costing;
  options.weights.enable_chain_specialization = cfg.specialize;
  options.exec.enable_data_skipping = cfg.data_skipping;
  options.exec.enable_chain_specialization = cfg.specialize;

  api::SourceBindings sources;
  for (const auto& [id, data] : w.source_data) sources[id] = &data;

  StatusOr<api::OptimizedProgram> program =
      api::OptimizeFlow(w.flow, provider, options, sources);
  if (!program.ok()) {
    std::fprintf(stderr, "optimize failed: %s\n",
                 program.status().ToString().c_str());
    return false;
  }

  engine::ExecStats stats;
  StatusOr<DataSet> out = program->RunBest(&stats);
  if (!out.ok()) {
    std::fprintf(stderr, "execute failed: %s\n",
                 out.status().ToString().c_str());
    return false;
  }
  bench::StrategyMix mix = bench::CountStrategyMix(*program);
  std::printf(
      "  %-28s %8zu plans   best est. cost %12.3g   runtime %7.3fs   "
      "shuffle %8.3f MB   disk %8.3f MB   peak %8.3f MB   skipped %8.3f MB   "
      "instrs %10lld\n",
      cfg.name, program->num_alternatives(), program->best().cost,
      stats.simulated_seconds,
      static_cast<double>(stats.network_bytes) / (1 << 20),
      static_cast<double>(stats.disk_bytes) / (1 << 20),
      static_cast<double>(stats.peak_bytes) / (1 << 20),
      static_cast<double>(stats.skipped_spill_bytes) / (1 << 20),
      static_cast<long long>(stats.interp_instructions));
  Row row;
  row.workload = w.name;
  row.config = cfg.name;
  row.plans = program->num_alternatives();
  row.est_cost = program->best().cost;
  row.simulated_seconds = stats.simulated_seconds;
  row.network_bytes = static_cast<long long>(stats.network_bytes);
  row.disk_bytes = static_cast<long long>(stats.disk_bytes);
  row.peak_bytes = static_cast<long long>(stats.peak_bytes);
  row.sort_merge_plans = mix.sort_merge_plans;
  row.combiner_plans = mix.combiner_plans;
  row.skipped_batches = static_cast<long long>(stats.skipped_batches);
  row.skipped_spill_bytes =
      static_cast<long long>(stats.skipped_spill_bytes);
  row.interp_instructions = static_cast<long long>(stats.interp_instructions);
  row.fused_chains = static_cast<long long>(stats.fused_chains);
  rows->push_back(std::move(row));
  return true;
}

Status WriteAblationJson(const std::vector<Row>& rows) {
  const char* path = "BENCH_ablation.json";
  std::FILE* f = std::fopen(path, "w");
  if (!f) return Status::Internal(std::string("cannot open ") + path);
  std::fprintf(f, "{\n  \"bench\": \"ablation\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"config\": \"%s\", "
                 "\"plans\": %zu, \"estimated_cost\": %.6f, "
                 "\"simulated_seconds\": %.6f, \"network_bytes\": %lld, "
                 "\"disk_bytes\": %lld, \"peak_bytes\": %lld, "
                 "\"sort_merge_plans\": %d, \"combiner_plans\": %d, "
                 "\"skipped_batches\": %lld, "
                 "\"skipped_spill_bytes\": %lld, "
                 "\"interp_instructions\": %lld, "
                 "\"fused_chains\": %lld}%s\n",
                 r.workload.c_str(), r.config.c_str(), r.plans, r.est_cost,
                 r.simulated_seconds, r.network_bytes, r.disk_bytes,
                 r.peak_bytes, r.sort_merge_plans, r.combiner_plans,
                 r.skipped_batches, r.skipped_spill_bytes,
                 r.interp_instructions, r.fused_chains,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return Status::OK();
}

}  // namespace

int main() {
  std::vector<Row> rows;
  bool ok = true;

  workloads::ClickstreamScale cs;
  cs.sessions = 20000;
  cs.users = 2000;
  workloads::Workload clicks = workloads::MakeClickstream(cs);

  api::ManualProvider manual;
  api::ScaProvider sca;
  // Discard the hand-written hints so the optimizer sees measured values
  // only — the "what if the author annotated nothing" configuration.
  api::ProfilerProvider profiled({.reset_hints = true});

  std::printf("Ablation A — annotation / hint provider (clickstream):\n");
  ok &= RunConfig(clicks, {.name = "manual annotations", .provider = &manual},
            &rows);
  ok &= RunConfig(clicks, {.name = "static code analysis", .provider = &sca},
            &rows);
  ok &= RunConfig(clicks, {.name = "SCA + profiled hints", .provider = &profiled},
            &rows);

  workloads::TpchScale ts;
  ts.lineitems = 60000;
  ts.orders = 15000;
  ts.customers = 1500;
  ts.suppliers = 100;
  workloads::Workload q7 = workloads::MakeTpchQ7(ts);

  std::printf("\nAblation B — physical optimizer features (TPC-H Q7, 5 joins):\n");
  ok &= RunConfig(q7, {.name = "full optimizer"}, &rows);
  ok &= RunConfig(q7, {.name = "no broadcast joins", .broadcast = false}, &rows);
  ok &= RunConfig(q7, {.name = "no partitioning reuse", .reuse = false}, &rows);
  ok &= RunConfig(
      q7, {.name = "no broadcast + no reuse", .broadcast = false, .reuse = false},
      &rows);

  std::printf(
      "\nAblation C — sort-awareness & combiner (TPC-H Q7, estimated cost "
      "and shuffle bytes):\n");
  ok &= RunConfig(q7, {.name = "sort-merge + combiner"}, &rows);
  ok &= RunConfig(q7, {.name = "no sort-merge", .sort_merge = false}, &rows);
  ok &= RunConfig(q7, {.name = "no combiner", .combiner = false}, &rows);
  ok &= RunConfig(
      q7,
      {.name = "no sort-merge + no combiner", .sort_merge = false,
       .combiner = false},
      &rows);

  std::printf("\nAblation C — sort-awareness & combiner (clickstream):\n");
  ok &= RunConfig(clicks,
            {.name = "sort-merge + combiner", .provider = &manual}, &rows);
  ok &= RunConfig(clicks,
            {.name = "no sort-merge", .provider = &manual,
             .sort_merge = false},
            &rows);
  ok &= RunConfig(clicks,
            {.name = "no combiner", .provider = &manual, .combiner = false},
            &rows);
  ok &= RunConfig(clicks,
                  {.name = "neither", .provider = &manual,
                   .sort_merge = false, .combiner = false},
                  &rows);

  std::printf(
      "\nAblation D — streaming data plane (fused chains vs --no-chain; "
      "peak MB is the acceptance meter):\n");
  ok &= RunConfig(q7, {.name = "q7 fused (default)"}, &rows);
  ok &= RunConfig(q7, {.name = "q7 no chaining", .fuse_chains = false}, &rows);
  ok &= RunConfig(q7,
                  {.name = "q7 no fusion costing", .chain_costing = false},
                  &rows);

  workloads::TextMiningScale tms;
  tms.documents = 3000;
  workloads::Workload text = workloads::MakeTextMining(tms);
  ok &= RunConfig(text, {.name = "textmining fused (default)"}, &rows);
  ok &= RunConfig(text, {.name = "textmining no chaining", .fuse_chains = false},
                  &rows);

  std::printf(
      "\nAblation E — spill costing under a tight budget (TPC-H Q7 at 64 KB "
      "per instance; disk MB is measured spill traffic):\n");
  ok &= RunConfig(
      q7, {.name = "spill-aware costing", .mem_budget_bytes = 64 << 10},
      &rows);
  ok &= RunConfig(q7,
                  {.name = "no spill costing", .spill_costing = false,
                   .mem_budget_bytes = 64 << 10},
                  &rows);

  std::printf(
      "\nAblation F — zone-map data skipping under a tight budget (TPC-H Q7 "
      "at 32 KB per instance; disk MB is measured spill traffic, skipping "
      "elides refuted spill-run re-reads):\n");
  ok &= RunConfig(
      q7, {.name = "data skipping", .mem_budget_bytes = 32 << 10}, &rows);
  ok &= RunConfig(q7,
                  {.name = "no data skipping", .data_skipping = false,
                   .mem_budget_bytes = 32 << 10},
                  &rows);

  std::printf(
      "\nAblation G — fused-chain TAC specialization (interp instructions "
      "and runtime; outputs are byte-identical by the differential "
      "contract):\n");
  ok &= RunConfig(text, {.name = "textmining specialized (default)"}, &rows);
  ok &= RunConfig(
      text, {.name = "textmining interpreted", .specialize = false}, &rows);
  ok &= RunConfig(q7, {.name = "q7 specialized (default)"}, &rows);
  ok &= RunConfig(q7, {.name = "q7 interpreted", .specialize = false}, &rows);

  Status json = WriteAblationJson(rows);
  if (!json.ok()) {
    std::fprintf(stderr, "error: %s\n", json.ToString().c_str());
    return 1;
  }
  return ok ? 0 : 1;
}
