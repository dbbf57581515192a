// The oracle behind the optimizer's single search path: the ranked search at
// top_k = core::kAllAlternatives must rank exactly the reorder closure that
// the breadth-first reference enumerator (enumerate::EnumerateAlternatives)
// discovers — every plan once, in (cost, chain count, canonical form) order,
// with nothing pruned and no early stop.

#ifndef BLACKBOX_TESTS_CLOSURE_ORACLE_H_
#define BLACKBOX_TESTS_CLOSURE_ORACLE_H_

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/optimizer_api.h"
#include "enumerate/enumerate.h"
#include "reorder/plan.h"

namespace blackbox {
namespace testing {

inline void ExpectRanksExactlyClosure(
    const dataflow::AnnotatedFlow& af,
    const std::vector<core::PlannedAlternative>& ranked, size_t plans_pruned,
    bool stopped_early, const std::string& context) {
  EXPECT_EQ(plans_pruned, 0u) << context;
  EXPECT_FALSE(stopped_early) << context;

  StatusOr<enumerate::EnumResult> closure =
      enumerate::EnumerateAlternatives(af);
  ASSERT_TRUE(closure.ok()) << context << ": " << closure.status().ToString();
  ASSERT_FALSE(closure->truncated) << context;
  std::set<std::string> expected;
  for (const reorder::PlanPtr& p : closure->plans) {
    expected.insert(reorder::CanonicalString(p));
  }

  std::set<std::string> got;
  std::string prev_canonical;
  for (size_t i = 0; i < ranked.size(); ++i) {
    const core::PlannedAlternative& alt = ranked[i];
    std::string canonical = reorder::CanonicalString(alt.logical);
    EXPECT_EQ(alt.rank, static_cast<int>(i) + 1) << context;
    if (i > 0) {
      const core::PlannedAlternative& prev = ranked[i - 1];
      EXPECT_LT(std::tie(prev.cost, prev.physical.num_chains, prev_canonical),
                std::tie(alt.cost, alt.physical.num_chains, canonical))
          << context << ": rank " << i + 1 << " out of order";
    }
    got.insert(canonical);
    prev_canonical = std::move(canonical);
  }
  EXPECT_EQ(ranked.size(), closure->plans.size()) << context;
  EXPECT_EQ(got, expected) << context;
}

}  // namespace testing
}  // namespace blackbox

#endif  // BLACKBOX_TESTS_CLOSURE_ORACLE_H_
