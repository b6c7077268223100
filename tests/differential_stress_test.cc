// The differential stress sweep: every miner × every backend × 1/2/8
// threads × adaptive-MFCS caps over seeded Quest databases and handcrafted
// adversarial databases, checked bit for bit against the brute-force
// oracle plus the MiningStats invariants. This is the tier-1
// guardrail behind "the backends are interchangeable" — any divergence
// anywhere in the matrix fails here with the full config label.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gen/quest_gen.h"
#include "mining/checkpoint.h"
#include "mining/miner.h"
#include "mining/options.h"
#include "testing/db_builder.h"
#include "testing/differential.h"

namespace pincer {
namespace {

// Quest shapes kept small on purpose: the brute-force oracle enumerates all
// 2^N itemsets, and the grid multiplies every database by hundreds of
// configurations. T4-T6, I2-I3, 13-15 items, 300-400 transactions covers
// both sparse and dense regimes while staying fast under sanitizers.
std::vector<QuestParams> SweepShapes() {
  std::vector<QuestParams> shapes;

  QuestParams sparse;
  sparse.num_transactions = 300;
  sparse.avg_transaction_size = 4.0;
  sparse.num_items = 15;
  sparse.num_patterns = 12;
  sparse.avg_pattern_size = 2.0;
  sparse.seed = 7001;
  shapes.push_back(sparse);

  QuestParams dense;
  dense.num_transactions = 400;
  dense.avg_transaction_size = 6.0;
  dense.num_items = 13;
  dense.num_patterns = 8;
  dense.avg_pattern_size = 3.0;
  dense.seed = 7002;
  shapes.push_back(dense);

  QuestParams concentrated = dense;
  concentrated.num_transactions = 350;
  concentrated.num_items = 14;
  concentrated.num_patterns = 4;
  concentrated.avg_pattern_size = 4.0;
  concentrated.seed = 7003;
  shapes.push_back(concentrated);

  return shapes;
}

TEST(DifferentialStress, GridIsLargeEnough) {
  // The acceptance bar: the default grid expands to >= 200 configurations
  // over the sweep's shapes (180 per database, 540 over the three), so the
  // sweep below cannot silently shrink.
  const std::vector<DifferentialConfig> configs =
      BuildConfigGrid(DifferentialGrid());
  EXPECT_GE(configs.size() * SweepShapes().size(), 200u)
      << configs.size() << " configs per database";
}

TEST(DifferentialStress, QuestSweepAgreesWithOracleEverywhere) {
  DifferentialReport report =
      RunDifferentialSweep(SweepShapes(), DifferentialGrid());
  EXPECT_GE(report.configs_run, 200u);
  EXPECT_EQ(report.databases, SweepShapes().size());
  // Quest concentrates its rows on a few pattern items, so at the sweep's
  // supports pass 2 always prices the vertical index fill cheaper. Items
  // drawn independently at 6% put each frequent item in few rows, where
  // the array scan wins.
  RandomDbParams thin;
  thin.num_items = 15;
  thin.num_transactions = 1000;
  thin.item_probability = 0.06;
  thin.seed = 7004;
  RunConfigsOnDatabase(MakeRandomDatabase(thin), "thin",
                       BuildConfigGrid(DifferentialGrid()), report);
  EXPECT_TRUE(report.ok()) << report.Summary();
  // Pass 2 fills the pair matrix from the vertical index or by the array
  // scan as PairFillPrefersIndex prices it; the sweep must exercise both
  // under the backends that hold an index.
  EXPECT_GT(report.index_pair_fills, 0u) << report.Summary();
  EXPECT_GT(report.array_pair_fills, 0u) << report.Summary();
  // Pass 1 reads the index's item supports under those backends and scans
  // the rows under the others.
  EXPECT_GT(report.index_item_counts, 0u) << report.Summary();
  EXPECT_GT(report.array_item_counts, 0u) << report.Summary();
  // Wherever pass 2 scans, the reruns copy it from a pair table.
  EXPECT_GT(report.pair_table_fills, 0u) << report.Summary();
}

TEST(DifferentialStress, AdversarialDatabases) {
  // Handcrafted shapes that have historically broken miners: empty
  // transactions, a transaction equal to the whole universe, duplicate
  // transactions, a universe item that never occurs, and a planted long
  // maximal itemset (the regime where MFCS pruning does real work).
  const std::vector<DifferentialConfig> configs =
      BuildConfigGrid(DifferentialGrid());
  DifferentialReport report;

  RunConfigsOnDatabase(
      MakeDatabase({{},
                    {0, 1, 2, 3, 4, 5, 6, 7},
                    {0, 1, 2},
                    {0, 1, 2},
                    {},
                    {3, 4},
                    {0, 1, 2}},
                   /*num_items=*/9),
      "adversarial-mixed", configs, report);
  RunConfigsOnDatabase(
      MakePlantedDatabase(/*num_items=*/12, /*num_transactions=*/80,
                          /*num_planted=*/2, /*pattern_size=*/6,
                          /*pattern_frequency=*/0.6,
                          /*noise_probability=*/0.05, /*seed=*/42),
      "adversarial-planted", configs, report);

  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.pair_table_fills, 0u) << report.Summary();
}

TEST(DifferentialStress, LabelsAreDistinct) {
  const std::vector<DifferentialConfig> configs =
      BuildConfigGrid(DifferentialGrid());
  std::vector<std::string> labels;
  labels.reserve(configs.size());
  for (const DifferentialConfig& config : configs) {
    labels.push_back(config.Label());
  }
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(std::adjacent_find(labels.begin(), labels.end()), labels.end())
      << "duplicate config labels would make failure reports ambiguous";
}

// Every MFS element's support is in the run's support table, with the
// value the MFS reports.
void ExpectMfsSupportsInTable(const MaximalSetResult& result,
                              const std::string& context) {
  for (const FrequentItemset& fi : result.mfs) {
    EXPECT_EQ(result.supports.Lookup(fi.itemset), fi.support)
        << context << ": " << fi;
  }
}

TEST(DifferentialStress, ResumeMatchesUninterruptedRunEverywhere) {
  // Checkpoint/resume differential: every algorithm × backend over a Quest
  // database — capture a checkpoint after every pass, resume from each one
  // through its JSON form, and demand the bit-identical MFS and supports of
  // the uninterrupted run, and a support table that holds every MFS
  // element's support.
  const StatusOr<TransactionDatabase> db =
      GenerateQuestDatabase(SweepShapes()[1]);
  ASSERT_TRUE(db.ok()) << db.status();
  size_t resumes_checked = 0;
  for (const Algorithm algorithm :
       {Algorithm::kApriori, Algorithm::kAprioriCombined, Algorithm::kPincer,
        Algorithm::kPincerAdaptive}) {
    for (const CounterBackend backend :
         {CounterBackend::kTrie, CounterBackend::kAuto}) {
      MiningOptions options;
      options.min_support = 0.05;
      options.backend = backend;
      const std::string context = std::string(AlgorithmName(algorithm)) +
                                  "/" +
                                  std::string(CounterBackendName(backend));

      std::vector<Checkpoint> checkpoints;
      MiningOptions recording = options;
      recording.checkpoint_sink = [&](const Checkpoint& checkpoint) {
        checkpoints.push_back(checkpoint);
        return Status::OK();
      };
      const MaximalSetResult reference = MineMaximal(*db, recording, algorithm);
      ASSERT_FALSE(checkpoints.empty()) << context;
      ExpectMfsSupportsInTable(reference, context);

      for (const Checkpoint& checkpoint : checkpoints) {
        const StatusOr<Checkpoint> reloaded =
            ParseCheckpoint(checkpoint.ToJsonString());
        ASSERT_TRUE(reloaded.ok())
            << context << ": " << reloaded.status();
        const StatusOr<MaximalSetResult> resumed =
            ResumeMaximal(*db, options, algorithm, *reloaded);
        ASSERT_TRUE(resumed.ok())
            << context << " at pass " << checkpoint.next_pass << ": "
            << resumed.status();
        EXPECT_EQ(resumed->mfs, reference.mfs)
            << context << " resumed at pass " << checkpoint.next_pass;
        ExpectMfsSupportsInTable(*resumed,
                                 context + " resumed at pass " +
                                     std::to_string(checkpoint.next_pass));
        // The engine is re-derived on resume, never read back from the
        // checkpoint — under kAuto the resumed run's passes must still
        // record a concrete engine, never "auto".
        for (const PassStats& pass : resumed->stats.per_pass) {
          EXPECT_NE(pass.backend_used, "auto")
              << context << " resumed at pass " << checkpoint.next_pass;
        }
        ++resumes_checked;
      }
    }
  }
  EXPECT_GE(resumes_checked, 32u);
}

TEST(DifferentialStress, CheckStatsInvariantsFlagsBrokenStats) {
  // The checker itself must reject inconsistent stats, or the sweep's
  // invariant arm is vacuous.
  MiningStats stats;
  stats.passes = 2;
  stats.num_threads = 1;
  PassStats p1;
  p1.pass = 1;
  p1.num_candidates = 5;
  p1.num_frequent = 9;  // frequent > candidates: impossible.
  stats.per_pass.push_back(p1);
  // per_pass.size() (1) != passes (2), and the candidate sums disagree with
  // the zero totals.
  StatsExpectations expect;
  expect.paper_candidate_convention = false;
  const std::vector<std::string> violations =
      CheckStatsInvariants(stats, expect, "synthetic");
  EXPECT_GE(violations.size(), 3u);
  for (const std::string& violation : violations) {
    EXPECT_NE(violation.find("synthetic"), std::string::npos) << violation;
  }
}

TEST(DifferentialStress, CheckStatsInvariantsAcceptsConsistentStats) {
  MiningStats stats;
  stats.passes = 3;
  stats.num_threads = 2;
  stats.total_candidates = 30;
  stats.reported_candidates = 10;
  for (size_t pass = 1; pass <= 3; ++pass) {
    PassStats p;
    p.pass = pass;
    p.num_candidates = 10;
    p.num_frequent = 4;
    stats.per_pass.push_back(p);
  }
  StatsExpectations expect;
  expect.requested_threads = 2;
  const std::vector<std::string> violations =
      CheckStatsInvariants(stats, expect, "consistent");
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? std::string() : violations.front());
}

}  // namespace
}  // namespace pincer
