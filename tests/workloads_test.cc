// End-to-end tests over the four evaluation workloads: enumeration counts
// (Table 1), SCA-vs-manual agreement, and the key safety property — every
// enumerated alternative produces the same output data set.

#include <gtest/gtest.h>

#include <set>

#include "core/optimizer_api.h"
#include "engine/executor.h"
#include "workloads/clickstream.h"
#include "workloads/textmining.h"
#include "workloads/tpch.h"

namespace blackbox {
namespace {

using core::BlackBoxOptimizer;
using dataflow::AnnotationMode;
using workloads::Workload;

size_t CountAlternatives(const Workload& w, AnnotationMode mode) {
  BlackBoxOptimizer::Options opts;
  opts.mode = mode;
  // Table 1 counts the FULL closure; the default ranked search stops early.
  opts.top_k = core::kAllAlternatives;
  BlackBoxOptimizer optimizer(opts);
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(w.flow);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return 0;
  return result->num_alternatives;
}

/// Executes every enumerated alternative and checks bag equality of outputs —
/// the safety contract of §5 ("all plans produce the same query result").
void CheckAllPlansEquivalent(const Workload& w, AnnotationMode mode,
                             size_t max_checked = 64) {
  BlackBoxOptimizer::Options opts;
  opts.mode = mode;
  // The safety contract quantifies over EVERY valid reordering.
  opts.top_k = core::kAllAlternatives;
  BlackBoxOptimizer optimizer(opts);
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(w.flow);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  engine::ExecOptions eo;
  eo.dop = 4;
  engine::Executor exec(&result->annotated, eo);
  for (const auto& [src, data] : w.source_data) exec.BindSource(src, &data);

  StatusOr<DataSet> reference = exec.Execute(result->ranked[0].physical);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  size_t n = std::min(result->ranked.size(), max_checked);
  for (size_t i = 1; i < n; ++i) {
    StatusOr<DataSet> out = exec.Execute(result->ranked[i].physical);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(reference->BagEquals(*out))
        << "plan rank " << i + 1 << " produced a different result ("
        << out->size() << " vs " << reference->size() << " records):\n"
        << reorder::PlanToString(result->ranked[i].logical, w.flow);
  }
}

workloads::TpchScale SmallTpch() {
  workloads::TpchScale s;
  s.suppliers = 20;
  s.customers = 60;
  s.orders = 300;
  s.lineitems = 1200;
  return s;
}

workloads::ClickstreamScale SmallClicks() {
  workloads::ClickstreamScale s;
  s.sessions = 300;
  s.avg_clicks_per_session = 5;
  s.users = 50;
  return s;
}

workloads::TextMiningScale SmallText() {
  workloads::TextMiningScale s;
  s.documents = 400;
  s.preprocess_burn = 1;
  s.gene_burn = 1;
  s.drug_burn = 1;
  s.abbrev_burn = 1;
  s.sentence_burn = 1;
  s.relation_burn = 1;
  return s;
}

// --- Table 1: enumerated orders ---

TEST(Table1, ClickstreamManualEnumeratesFourOrders) {
  Workload w = workloads::MakeClickstream(SmallClicks());
  EXPECT_EQ(CountAlternatives(w, AnnotationMode::kManual), 4u);
}

TEST(Table1, ClickstreamScaEnumeratesThreeOrders) {
  // SCA cannot resolve the computed field index in "append user info" and
  // conservatively rejects the join rotation (75% of the manual plan count).
  Workload w = workloads::MakeClickstream(SmallClicks());
  EXPECT_EQ(CountAlternatives(w, AnnotationMode::kSca), 3u);
}

TEST(Table1, Q15EnumeratesFourOrdersBothModes) {
  Workload w = workloads::MakeTpchQ15(SmallTpch());
  EXPECT_EQ(CountAlternatives(w, AnnotationMode::kManual), 4u);
  EXPECT_EQ(CountAlternatives(w, AnnotationMode::kSca), 4u);
}

TEST(Table1, TextMiningEnumeratesTwentyFourOrdersBothModes) {
  Workload w = workloads::MakeTextMining(SmallText());
  EXPECT_EQ(CountAlternatives(w, AnnotationMode::kManual), 24u);
  EXPECT_EQ(CountAlternatives(w, AnnotationMode::kSca), 24u);
}

TEST(Table1, Q7ScaMatchesManualCount) {
  Workload w = workloads::MakeTpchQ7(SmallTpch());
  size_t manual = CountAlternatives(w, AnnotationMode::kManual);
  size_t sca = CountAlternatives(w, AnnotationMode::kSca);
  EXPECT_EQ(manual, sca);
  EXPECT_GT(manual, 100u);  // a rich bushy space (paper: 2518)
}

// --- Safety: all alternatives are output-equivalent ---

TEST(PlanEquivalence, Q15AllPlansProduceSameResult) {
  Workload w = workloads::MakeTpchQ15(SmallTpch());
  CheckAllPlansEquivalent(w, AnnotationMode::kSca);
}

TEST(PlanEquivalence, ClickstreamAllPlansProduceSameResult) {
  Workload w = workloads::MakeClickstream(SmallClicks());
  CheckAllPlansEquivalent(w, AnnotationMode::kManual);
}

TEST(PlanEquivalence, TextMiningAllPlansProduceSameResult) {
  Workload w = workloads::MakeTextMining(SmallText());
  CheckAllPlansEquivalent(w, AnnotationMode::kSca);
}

TEST(PlanEquivalence, Q7SampledPlansProduceSameResult) {
  workloads::TpchScale s = SmallTpch();
  s.lineitems = 600;
  Workload w = workloads::MakeTpchQ7(s);
  CheckAllPlansEquivalent(w, AnnotationMode::kSca, /*max_checked=*/24);
}

// --- SCA conservatism: the SCA plan set is a subset of the manual one ---

TEST(Conservatism, ScaPlanSetIsSubsetOfManual) {
  for (Workload w :
       {workloads::MakeClickstream(SmallClicks()),
        workloads::MakeTpchQ15(SmallTpch()),
        workloads::MakeTextMining(SmallText())}) {
    auto plans = [&](AnnotationMode mode) {
      BlackBoxOptimizer::Options opts;
      opts.mode = mode;
      // Subset inclusion must compare full closures, not ranked top-k's.
      opts.top_k = core::kAllAlternatives;
      StatusOr<core::OptimizationResult> r =
          BlackBoxOptimizer(opts).Optimize(w.flow);
      EXPECT_TRUE(r.ok());
      std::set<std::string> keys;
      for (const auto& alt : r->ranked) {
        keys.insert(reorder::CanonicalString(alt.logical));
      }
      return keys;
    };
    std::set<std::string> manual = plans(AnnotationMode::kManual);
    std::set<std::string> sca = plans(AnnotationMode::kSca);
    for (const std::string& k : sca) {
      EXPECT_TRUE(manual.count(k)) << w.name << ": SCA-only plan " << k;
    }
  }
}

}  // namespace
}  // namespace blackbox
