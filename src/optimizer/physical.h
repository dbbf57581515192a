// Cost-based physical optimization (§7.1): for one logical alternative,
// choose data shipping strategies (forward / hash-partition / broadcast) and
// local execution strategies (sort-based grouping, hash join with build-side
// choice, sort-merge join, combiner insertion), exploiting interesting
// properties Volcano-style — both hash partitionings AND per-partition sort
// orders that survive key-preserving operators — and estimate a cost that
// combines network IO, disk IO, and the CPU cost of UDF calls.

#ifndef BLACKBOX_OPTIMIZER_PHYSICAL_H_
#define BLACKBOX_OPTIMIZER_PHYSICAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/defaults.h"
#include "common/status.h"
#include "reorder/plan.h"

namespace blackbox {
namespace optimizer {

enum class ShipStrategy {
  kForward,        // keep existing partitions (local forward)
  kPartitionHash,  // hash-repartition on the operator's key
  kBroadcast,      // replicate to every parallel instance
};

enum class LocalStrategy {
  kNone,               // per-record streaming (Map, sink)
  kSortGroup,          // sort-based grouping (Reduce)
  kHashJoinBuildLeft,  // hash join, build on left input
  kHashJoinBuildRight,
  kNestedLoop,     // Cross: nested loops against the broadcast side
  kSortCoGroup,    // CoGroup: sort both sides, merge groups
  kSortMergeJoin,  // Match: sort both sides by the join key (free for inputs
                   // that already carry a serving sort order), merge runs
  kPreAggregate,   // Reduce: combine partition-local groups *before* the
                   // shuffle, then sort-group the shipped partials (§7.1's
                   // combiner; legality from OpProperties::combinable)
};

const char* ShipStrategyName(ShipStrategy s);
const char* LocalStrategyName(LocalStrategy s);

/// Cost model weights; defaults calibrated so that shipping a byte across the
/// network dominates local CPU, mirroring a 1 GbE cluster (§7.1).
struct CostWeights {
  double net_per_byte = 1.0;
  double disk_per_byte = 0.6;
  double cpu_per_call_unit = 40.0;  // per UDF call × the op's cpu hint
  double cpu_per_record = 0.4;
  // Cluster shape: shared defaults with engine::ExecOptions (see
  // common/defaults.h) so estimates and measured runs describe the same
  // simulated cluster out of the box.
  int dop = kDefaultDop;                          // degree of parallelism
  double mem_budget_bytes = kDefaultMemBudgetBytes;  // per-instance memory

  // Ablation switches (see bench/ablation): disable individual optimizer
  // features to measure their contribution to plan quality.
  bool enable_broadcast = true;          // broadcast-join strategies
  bool enable_partition_reuse = true;    // partitioning-property reuse
  bool enable_sort_merge = true;   // sort-order tracking: merge joins and
                                   // sort reuse by Reduce / CoGroup
  bool enable_combiner = true;     // combiner insertion below the shuffle
  bool enable_chain_fusion = true;  // pipeline-aware costing: a forward edge
                                    // into a record-at-a-time stage is fused
                                    // (DESIGN.md §2.2), so the stage pays no
                                    // per-record engine overhead
                                    // (cpu_per_record) for its input
  bool enable_spill = true;  // charge disk cost for breakers whose estimated
                             // per-instance input exceeds mem_budget_bytes.
                             // Off: the optimizer prices spills at zero while
                             // the engine still performs (and meters) them —
                             // the ablation isolating how much plan quality
                             // the spill term buys (DESIGN.md §2.3)
  bool enable_chain_specialization = true;  // fused-chain TAC specialization
                                            // (DESIGN.md §2.6): Map stages in
                                            // a fused chain execute as one
                                            // constant-folded program, so
                                            // their per-call CPU term is
                                            // discounted (see
                                            // kSpecializationCpuDiscount). The
                                            // API propagates it into
                                            // ExecOptions, so one flag flips
                                            // both estimate and run. Byte
                                            // meters are unchanged by
                                            // construction.
};

/// Fraction of a fused Map stage's per-call CPU cost the model keeps under
/// chain specialization: the fused program eliminates inter-stage record
/// handoff and dead stores, roughly halving executed instructions on the
/// measured workloads (BENCH_baseline.json pins the realized ratio). Applied
/// identically when costing candidates and when bounding partial plans, so
/// the bound stays admissible.
inline constexpr double kSpecializationCpuDiscount = 0.5;

/// A physical operator: one logical plan node with chosen strategies.
struct PhysicalNode {
  int op_id = -1;
  std::vector<std::unique_ptr<PhysicalNode>> children;
  std::vector<ShipStrategy> ships;  // one per input
  LocalStrategy local = LocalStrategy::kNone;

  /// kSortMergeJoin: per input, whether the optimizer established that the
  /// shipped input already arrives sorted on the join key (a reused sort
  /// order), so neither sort CPU nor a sort spill is charged/metered for it.
  /// The executor still runs a stable sort — a no-op on presorted data — so
  /// execution correctness never depends on the optimizer's claim.
  std::vector<uint8_t> input_presorted;

  /// Per-partition sort order of this node's output (attribute ids, most
  /// significant first; empty = none). Informational: mirrors the ordering
  /// interesting-property the planner tracked for this candidate.
  std::vector<int> sort_order;

  /// Operator-chain group (DESIGN.md §2.2): nodes sharing a chain_id execute
  /// as one fused streaming pass — a chain is a pipeline breaker (or scan)
  /// plus the maximal run of forward-shipped record-at-a-time stages above
  /// it. Assigned by AssignChainIds during physical optimization; -1 until
  /// then.
  int chain_id = -1;

  // Estimates at this node's output.
  double est_rows = 0;
  double est_bytes_per_row = 0;

  // Estimated cost components charged at THIS node (input shipping, local
  // spill, local CPU); the plan's total cost is their sum over the tree.
  double cost_network = 0;
  double cost_disk = 0;
  double cost_cpu = 0;

  double TotalCost() const { return cost_network + cost_disk + cost_cpu; }
};

struct PhysicalPlan {
  std::unique_ptr<PhysicalNode> root;
  double total_cost = 0;

  /// Number of operator chains (= pipeline breakers + scans) in this plan,
  /// as counted by AssignChainIds. The ranked enumerator uses it to break
  /// cost ties toward plans with fewer breakers.
  int num_chains = 0;

  std::string ToString(const dataflow::DataFlow& flow) const;
};

/// True if `n` is a record-at-a-time stage that fuses onto its (single)
/// forward-shipped input: a streaming Map or the sink's projection. Shared
/// chain-formation predicate — the engine's fused execution and
/// AssignChainIds both derive chain shapes from it, so the plan's chain ids
/// always describe what the executor actually fuses.
bool IsStreamingStage(const dataflow::Operator& op, const PhysicalNode& n);

/// Assigns chain-group ids over the plan tree (root-down DFS order): a node
/// joins its consumer's chain when the consumer is a streaming stage per
/// IsStreamingStage, otherwise it starts a new chain. Returns the number of
/// chains. Called by OptimizePhysical on the winning plan; idempotent.
int AssignChainIds(const dataflow::DataFlow& flow, PhysicalNode* root);

/// Optimizes one logical alternative. Returns the cheapest physical plan.
StatusOr<PhysicalPlan> OptimizePhysical(const dataflow::AnnotatedFlow& af,
                                        const reorder::PlanPtr& plan,
                                        const CostWeights& weights = {});

/// Admissible lower bound on OptimizePhysical(af, plan, weights).total_cost,
/// computed in one O(n) bottom-up pass without enumerating strategies.
/// Logical cardinalities are strategy-independent, so the bound charges, per
/// operator: the exact UDF-call CPU, the cheapest local strategy's residual
/// CPU (e.g. a merge join on two presorted inputs), and a shuffle term only
/// when NO physical candidate could possibly serve the operator's key from
/// an already-established partitioning (tracked as an over-approximated set
/// of partitionings each subtree might offer). Over-approximating the
/// serveable partitionings can only drop charges, never add them, so
/// LowerBoundCost(P) <= cost(any feasible physical plan of P). Disk (spill)
/// terms are bounded by zero. Used by the ranked enumerator to order its
/// best-first frontier and to prune plans that cannot enter the top-k
/// (DESIGN.md §3.4).
double LowerBoundCost(const dataflow::AnnotatedFlow& af,
                      const reorder::PlanPtr& plan,
                      const CostWeights& weights = {});

}  // namespace optimizer
}  // namespace blackbox

#endif  // BLACKBOX_OPTIMIZER_PHYSICAL_H_
