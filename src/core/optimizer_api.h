// BlackBoxOptimizer — the public entry point tying the pipeline together
// (paper Section 3): annotate the flow's UDFs (static code analysis or manual
// annotations), search the valid reordered alternatives (Section 6)
// best-first, cost them with the physical optimizer (Section 7.1), and return
// the top_k ranked plans (every plan at top_k = kAllAlternatives).
//
// Typical use:
//
//   dataflow::DataFlow flow = BuildMyFlow();
//   core::BlackBoxOptimizer opt({.mode = dataflow::AnnotationMode::kSca});
//   auto result = opt.Optimize(flow);
//   // result->ranked[0] is the cheapest plan; execute it:
//   engine::Executor exec(&result->annotated);
//   exec.BindSource(src_id, &data);
//   auto out = exec.Execute(result->ranked[0].physical);

#ifndef BLACKBOX_CORE_OPTIMIZER_API_H_
#define BLACKBOX_CORE_OPTIMIZER_API_H_

#include <limits>
#include <vector>

#include "common/status.h"
#include "dataflow/annotate.h"
#include "dataflow/flow.h"
#include "enumerate/enumerate.h"
#include "enumerate/ranked.h"
#include "optimizer/physical.h"
#include "reorder/plan.h"

namespace blackbox {
namespace core {

/// `top_k` value that ranks every plan the search discovers: the stop rule
/// never fires, so the ranked search costs the full reorder closure (the
/// k = infinity case of any-k enumeration; DESIGN.md §3.4).
inline constexpr int kAllAlternatives = std::numeric_limits<int>::max();

/// One costed alternative.
struct PlannedAlternative {
  reorder::PlanPtr logical;
  optimizer::PhysicalPlan physical;
  double cost = 0;
  int rank = 0;  // 1-based rank by ascending estimated cost
};

struct OptimizationResult {
  dataflow::AnnotatedFlow annotated;
  std::vector<PlannedAlternative> ranked;  // ascending (cost, chains, form)
  /// Plans DISCOVERED by the search (plans_enumerated + plans_pruned).
  size_t num_alternatives = 0;
  /// Plans fully costed. Equals num_alternatives at kAllAlternatives.
  size_t plans_enumerated = 0;
  /// Plans discovered but never costed — their lower bound could not
  /// displace the top-k.
  size_t plans_pruned = 0;
  /// The anytime stop rule fired before the frontier drained. This is the
  /// expected fast path, NOT truncation: the top-k is exact over the
  /// discovered space.
  bool stopped_early = false;
  /// EnumOptions::max_plans was hit: `ranked` covers a partial closure only
  /// (the true optimum may be missing). Never silently dropped — the api
  /// layer warns when this is set.
  bool truncated = false;
  /// Wall time of the search minus the time spent in physical costing
  /// (neighbor generation, bounds, frontier bookkeeping).
  double enumeration_seconds = 0;
  /// Wall time spent inside physical costing.
  double costing_seconds = 0;

  /// The cheapest alternative. Optimize() guarantees at least one entry, so
  /// this can only fail on a default-constructed or hand-assembled result;
  /// aborts with a clear message instead of dereferencing an empty vector.
  const PlannedAlternative& best() const;
};

class BlackBoxOptimizer {
 public:
  struct Options {
    dataflow::AnnotationMode mode = dataflow::AnnotationMode::kSca;
    optimizer::CostWeights weights;
    enumerate::EnumOptions enum_options;

    /// Ranked alternatives to return (rejected if <= 0). kAllAlternatives
    /// costs and ranks every discovered plan.
    int top_k = 8;
    /// Anytime slack in absolute cost units (rejected if negative). 0 keeps
    /// the top-k exact over the discovered space, cost ties included.
    double cost_epsilon = 0;
  };

  BlackBoxOptimizer() : options_(Options()) {}
  explicit BlackBoxOptimizer(Options options) : options_(options) {}

  /// Full pipeline: annotate -> enumerate -> cost -> rank. Returns an error
  /// if zero alternatives survive enumeration (e.g. EnumOptions prunes
  /// everything), so a returned result always has a best() plan.
  StatusOr<OptimizationResult> Optimize(const dataflow::DataFlow& flow) const;

  /// Enumerate -> cost -> rank on an already-annotated flow. This is the
  /// lowering entry point the api layer uses after an AnnotationProvider has
  /// produced the annotation; the result takes ownership of `annotated`.
  StatusOr<OptimizationResult> OptimizeAnnotated(
      dataflow::AnnotatedFlow annotated) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace core
}  // namespace blackbox

#endif  // BLACKBOX_CORE_OPTIMIZER_API_H_
