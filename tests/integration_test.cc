// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Integration tests: the full harness pipeline (offline training, ground
// truth, strategy runs) on the paper's workloads, checking the qualitative
// result shapes end to end.

#include <gtest/gtest.h>

#include "src/runtime/experiment.h"
#include "src/workload/ds1.h"
#include "src/workload/ds2.h"
#include "src/workload/queries.h"

namespace cepshed {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : schema_(MakeDs1Schema()) {}

  void PrepareQ1(size_t n = 15000) {
    Ds1Options gen;
    gen.num_events = n;
    gen.seed = 101;
    const EventStream train = GenerateDs1(schema_, gen);
    gen.seed = 102;
    test_stream_ = std::make_unique<EventStream>(GenerateDs1(schema_, gen));
    harness_ = std::make_unique<ExperimentHarness>(&schema_, *queries::Q1(),
                                                   HarnessOptions{});
    ASSERT_TRUE(harness_->Prepare(train, *test_stream_).ok());
  }

  Schema schema_;
  std::unique_ptr<EventStream> test_stream_;
  std::unique_ptr<ExperimentHarness> harness_;
};

TEST_F(IntegrationTest, GroundTruthHasFullQuality) {
  PrepareQ1();
  const auto none = harness_->RunBound(StrategyKind::kNone, 1.0);
  EXPECT_DOUBLE_EQ(none.quality.recall, 1.0);
  EXPECT_DOUBLE_EQ(none.quality.precision, 1.0);
  EXPECT_EQ(none.raw.dropped_events, 0u);
  EXPECT_EQ(none.raw.shed_pms, 0u);
}

TEST_F(IntegrationTest, TrainingTimeIsInPaperRange) {
  PrepareQ1();
  // The paper reports 0.75-4.5 s; we only require sanity (positive, < 30s).
  EXPECT_GT(harness_->model().train_seconds(), 0.0);
  EXPECT_LT(harness_->model().train_seconds(), 30.0);
}

TEST_F(IntegrationTest, MonotonicQueryNeverProducesFalsePositives) {
  PrepareQ1();
  for (StrategyKind kind : {StrategyKind::kRI, StrategyKind::kRS, StrategyKind::kSS,
                            StrategyKind::kHybrid}) {
    const auto r = harness_->RunBound(kind, 0.5);
    EXPECT_DOUBLE_EQ(r.quality.precision, 1.0) << StrategyName(kind);
  }
}

TEST_F(IntegrationTest, SheddingReducesLatency) {
  PrepareQ1();
  const double baseline = harness_->BaselineLatency();
  const auto hybrid = harness_->RunBound(StrategyKind::kHybrid, 0.5);
  EXPECT_LT(hybrid.avg_latency, baseline);
  EXPECT_GT(hybrid.raw.shed_pms + hybrid.raw.dropped_events, 0u);
}

TEST_F(IntegrationTest, HybridBeatsRandomBaselinesInRecall) {
  PrepareQ1();
  const auto hybrid = harness_->RunBound(StrategyKind::kHybrid, 0.5);
  const auto ri = harness_->RunBound(StrategyKind::kRI, 0.5);
  const auto rs = harness_->RunBound(StrategyKind::kRS, 0.5);
  EXPECT_GT(hybrid.quality.recall, ri.quality.recall);
  EXPECT_GT(hybrid.quality.recall, rs.quality.recall);
}

TEST_F(IntegrationTest, HybridKeepsHighRecallAtLooseBound) {
  PrepareQ1();
  const auto hybrid = harness_->RunBound(StrategyKind::kHybrid, 0.9);
  EXPECT_GT(hybrid.quality.recall, 0.9);
}

TEST_F(IntegrationTest, TighterBoundsShedMoreInputAndReachLowerLatency) {
  PrepareQ1();
  const auto loose = harness_->RunBound(StrategyKind::kHybrid, 0.9);
  const auto tight = harness_->RunBound(StrategyKind::kHybrid, 0.3);
  // Tighter bounds escalate the input filter (more dropped events) and
  // drive the achieved latency down; shed-PM counts are not comparable
  // because dropped events prevent partial matches from ever existing
  // (the turning point of the paper's Fig. 5).
  EXPECT_GE(tight.raw.dropped_events, loose.raw.dropped_events);
  EXPECT_LT(tight.avg_latency, loose.avg_latency);
  EXPECT_LE(tight.quality.recall, loose.quality.recall + 0.02);
}

TEST_F(IntegrationTest, FixedRatioRunsForAllStrategies) {
  PrepareQ1(8000);
  for (StrategyKind kind : {StrategyKind::kRI, StrategyKind::kSI, StrategyKind::kPI,
                            StrategyKind::kHyI, StrategyKind::kRS, StrategyKind::kSS,
                            StrategyKind::kHyS}) {
    const auto r = harness_->RunFixed(kind, 0.3);
    EXPECT_GT(r.quality.recall, 0.0) << StrategyName(kind);
    EXPECT_LE(r.quality.recall, 1.0) << StrategyName(kind);
    if (kind == StrategyKind::kRI || kind == StrategyKind::kSI ||
        kind == StrategyKind::kPI || kind == StrategyKind::kHyI) {
      EXPECT_GT(r.raw.dropped_events, 0u) << StrategyName(kind);
    } else {
      EXPECT_GT(r.raw.shed_pms, 0u) << StrategyName(kind);
    }
  }
}

TEST_F(IntegrationTest, HyIBeatsRandomInputAtEqualRatio) {
  PrepareQ1();
  const auto hyi = harness_->RunFixed(StrategyKind::kHyI, 0.3);
  const auto ri = harness_->RunFixed(StrategyKind::kRI, 0.3);
  // Same drop budget, cost-model choice keeps more matches (Fig. 6a).
  EXPECT_GT(hyi.quality.recall, ri.quality.recall);
}

TEST_F(IntegrationTest, HySBeatsRandomStateAtEqualRatio) {
  PrepareQ1();
  const auto hys = harness_->RunFixed(StrategyKind::kHyS, 0.3);
  const auto rs = harness_->RunFixed(StrategyKind::kRS, 0.3);
  EXPECT_GT(hys.quality.recall, rs.quality.recall);
}

TEST_F(IntegrationTest, NonMonotonicQueryLosesPrecisionNotRecallUnderHyS) {
  // The paper's Fig. 14: shedding partial matches of Q4 keeps recall at 1
  // (only worthless state and witnesses are shed) but produces false
  // positives as witnesses disappear.
  Ds1Options gen;
  gen.num_events = 10000;
  gen.seed = 201;
  // Raise the negated type's probability to make vetoes common.
  gen.type_weights[1] = 2.0;
  const EventStream train = GenerateDs1(schema_, gen);
  gen.seed = 202;
  const EventStream test = GenerateDs1(schema_, gen);

  ExperimentHarness harness(&schema_, *queries::Q4(), HarnessOptions{});
  ASSERT_TRUE(harness.Prepare(train, test).ok());
  const auto r = harness.RunFixed(StrategyKind::kHyS, 0.2);
  EXPECT_GT(r.quality.recall, 0.9);
  EXPECT_LT(r.quality.precision, 1.0);
}

TEST_F(IntegrationTest, Q3OnDs2RunsEndToEnd) {
  Schema schema2 = MakeDs2Schema();
  Ds2Options gen;
  gen.num_events = 8000;
  gen.seed = 301;
  const EventStream train = GenerateDs2(schema2, gen);
  gen.seed = 302;
  const EventStream test = GenerateDs2(schema2, gen);

  ExperimentHarness harness(&schema2, *queries::Q3(), HarnessOptions{});
  ASSERT_TRUE(harness.Prepare(train, test).ok());
  ASSERT_GT(harness.truth().size(), 0u);
  const auto r = harness.RunBound(StrategyKind::kHybrid, 0.6);
  EXPECT_GT(r.quality.recall, 0.3);
}

TEST_F(IntegrationTest, BoundViolationRatioIsReported) {
  PrepareQ1(8000);
  const auto hybrid = harness_->RunBound(StrategyKind::kHybrid, 0.8);
  EXPECT_GE(hybrid.bound_violation_ratio, 0.0);
  EXPECT_LE(hybrid.bound_violation_ratio, 1.0);
}

TEST_F(IntegrationTest, FailedRePrepareLeavesHarnessUnprepared) {
  // A second Prepare that fails part-way must not leave the first one's
  // ground truth standing behind the new test stream.
  PrepareQ1(4000);
  ASSERT_TRUE(harness_->RunBoundSpec("hybrid", 0.5).ok());
  Ds1Options gen;
  gen.num_events = 3000;
  gen.seed = 103;
  const EventStream other = GenerateDs1(schema_, gen);
  harness_->mutable_options()->cost_model.num_time_slices = 0;
  EXPECT_FALSE(harness_->Prepare(other, other).ok());
  EXPECT_FALSE(harness_->RunBoundSpec("hybrid", 0.5).ok());
  EXPECT_EQ(harness_->RunBound(StrategyKind::kRI, 0.5).name.rfind("error: ", 0), 0u);
}

}  // namespace
}  // namespace cepshed
