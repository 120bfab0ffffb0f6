// Tests for the multiple-choice knapsack solvers: the specialised
// branch-and-bound (solve_mckp) against the integer DP (solve_mckp_dp), a
// brute-force enumerator and the generic LP/ILP oracle under tests/lp_oracle.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>

#include "ilp/mckp.h"
#include "lp_oracle/branch_and_bound.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace ermes::ilp {
namespace {

MckpProblem small_mckp() {
  MckpProblem problem;
  problem.groups = {
      {{5.0, 3.0}, {8.0, 6.0}},            // group 0
      {{4.0, 2.0}, {9.0, 7.0}, {1.0, 1.0}}  // group 1
  };
  problem.capacity = 8.0;
  return problem;
}

TEST(MckpTest, IlpSolvesSmallInstance) {
  const MckpSolution sol = solve_mckp(small_mckp());
  ASSERT_EQ(sol.status, MckpStatus::kOptimal);
  // Best: group0 item0 (5,3) + group1 item1? 3+7=10 > 8. So (5,3)+(4,2)=9/5
  // or (8,6)+(4,2)=12 w 8 <= 8 -> value 12.
  EXPECT_NEAR(sol.value, 12.0, 1e-9);
  EXPECT_EQ(sol.choice[0], 1u);
  EXPECT_EQ(sol.choice[1], 0u);
  EXPECT_GE(sol.bound, sol.value - 1e-9);
}

TEST(MckpTest, DpMatchesIlp) {
  const MckpSolution bnb = solve_mckp(small_mckp());
  const MckpSolution dp = solve_mckp_dp(small_mckp());
  ASSERT_TRUE(dp.feasible());
  EXPECT_NEAR(dp.value, bnb.value, 1e-9);
}

TEST(MckpTest, InfeasibleWhenCapacityTooSmall) {
  MckpProblem problem;
  problem.groups = {{{1.0, 5.0}}};
  problem.capacity = 3.0;
  const MckpSolution sol = solve_mckp(problem);
  EXPECT_EQ(sol.status, MckpStatus::kInfeasible);
  EXPECT_FALSE(sol.feasible());
  EXPECT_EQ(sol.bound, -std::numeric_limits<double>::infinity());
  EXPECT_FALSE(solve_mckp_dp(problem).feasible());
}

TEST(MckpTest, NegativeWeightsHandled) {
  // Choosing a negative-weight item frees budget for another group.
  MckpProblem problem;
  problem.groups = {
      {{0.0, 0.0}, {3.0, -4.0}},  // item 1 frees 4 units
      {{0.0, 0.0}, {5.0, 4.0}},
  };
  problem.capacity = 0.0;
  const MckpSolution bnb = solve_mckp(problem);
  const MckpSolution dp = solve_mckp_dp(problem);
  ASSERT_TRUE(bnb.feasible());
  ASSERT_TRUE(dp.feasible());
  EXPECT_NEAR(bnb.value, 8.0, 1e-9);
  EXPECT_NEAR(dp.value, 8.0, 1e-9);
}

TEST(MckpTest, RandomInstancesIlpEqualsDp) {
  util::Rng rng(31);
  for (int trial = 0; trial < 25; ++trial) {
    MckpProblem problem;
    const auto groups = rng.uniform_int(1, 5);
    for (std::int64_t g = 0; g < groups; ++g) {
      std::vector<MckpItem> group;
      const auto items = rng.uniform_int(1, 4);
      for (std::int64_t i = 0; i < items; ++i) {
        group.push_back(MckpItem{
            static_cast<double>(rng.uniform_int(0, 20)),
            static_cast<double>(rng.uniform_int(-5, 10))});
      }
      problem.groups.push_back(std::move(group));
    }
    problem.capacity = static_cast<double>(rng.uniform_int(-3, 25));
    const MckpSolution bnb = solve_mckp(problem);
    const MckpSolution dp = solve_mckp_dp(problem);
    ASSERT_EQ(bnb.feasible(), dp.feasible()) << "trial " << trial;
    if (bnb.feasible()) {
      EXPECT_NEAR(bnb.value, dp.value, 1e-6) << "trial " << trial;
      EXPECT_LE(bnb.weight, problem.capacity + 1e-9);
    }
  }
}

TEST(MckpTest, ChoiceIndicesConsistentWithTotals) {
  const MckpSolution sol = solve_mckp(small_mckp());
  const MckpProblem problem = small_mckp();
  double value = 0.0, weight = 0.0;
  for (std::size_t g = 0; g < problem.groups.size(); ++g) {
    value += problem.groups[g][sol.choice[g]].value;
    weight += problem.groups[g][sol.choice[g]].weight;
  }
  EXPECT_NEAR(value, sol.value, 1e-9);
  EXPECT_NEAR(weight, sol.weight, 1e-9);
}

TEST(MckpTest, EmptyGroupIsInfeasibleAndNoGroupsIsTrivial) {
  MckpProblem problem;
  problem.groups = {{{1.0, 0.0}}, {}};
  problem.capacity = 10.0;
  EXPECT_EQ(solve_mckp(problem).status, MckpStatus::kInfeasible);

  MckpProblem none;
  const MckpSolution sol = solve_mckp(none);
  EXPECT_EQ(sol.status, MckpStatus::kOptimal);
  EXPECT_TRUE(sol.choice.empty());
  none.capacity = -1.0;
  EXPECT_EQ(solve_mckp(none).status, MckpStatus::kInfeasible);
}

TEST(MckpTest, TiesResolveToLexicographicallySmallestChoice) {
  // Every choice with value 6 fits; (0, 2) is the smallest such vector.
  MckpProblem problem;
  problem.groups = {
      {{3.0, 1.0}, {5.0, 9.0}, {3.0, 0.0}},
      {{1.0, 0.0}, {2.0, 4.0}, {3.0, 2.0}, {3.0, 1.0}},
  };
  problem.capacity = 3.0;
  const MckpSolution sol = solve_mckp(problem);
  ASSERT_EQ(sol.status, MckpStatus::kOptimal);
  EXPECT_EQ(sol.value, 6.0);
  EXPECT_EQ(sol.choice, (std::vector<std::size_t>{0, 2}));
}

TEST(MckpTest, FlatGroupsAreFixedWithoutSearch) {
  // All-zero weights (timing optimization without an area budget) and
  // per-group constant weights need no search: only the root is counted.
  obs::set_enabled(true);
  obs::Counter& nodes = obs::Registry::global().counter("ilp.bnb_nodes");
  const std::int64_t before = nodes.value();
  MckpProblem problem;
  for (int g = 0; g < 200; ++g) {
    const double w = g % 2 == 0 ? 0.0 : -1.5;
    problem.groups.push_back({{1.0, w}, {4.0, w}, {4.0, w}, {2.0, w}});
  }
  problem.capacity = -150.0;
  const MckpSolution sol = solve_mckp(problem);
  const std::int64_t searched = nodes.value() - before;
  obs::set_enabled(false);
  ASSERT_EQ(sol.status, MckpStatus::kOptimal);
  EXPECT_EQ(sol.value, 800.0);
  EXPECT_EQ(sol.bound, 800.0);
  for (std::size_t choice : sol.choice) EXPECT_EQ(choice, 1u);
  EXPECT_EQ(searched, 1);
}

TEST(MckpTest, NodeCapReturnsIncumbentAsLimit) {
  // Tiny node caps must still hand back a feasible selection, flagged as a
  // limit result rather than reported infeasible.
  util::Rng rng(97);
  MckpProblem problem;
  for (int g = 0; g < 12; ++g) {
    std::vector<MckpItem> group;
    for (int i = 0; i < 5; ++i) {
      group.push_back({static_cast<double>(rng.uniform_int(0, 30)),
                       static_cast<double>(rng.uniform_int(0, 10))});
    }
    problem.groups.push_back(std::move(group));
  }
  problem.capacity = 40.0;
  obs::set_enabled(true);
  obs::Counter& nodes = obs::Registry::global().counter("ilp.bnb_nodes");
  const std::int64_t before = nodes.value();
  const MckpSolution exact = solve_mckp(problem);
  const std::int64_t searched = nodes.value() - before;
  obs::set_enabled(false);
  ASSERT_EQ(exact.status, MckpStatus::kOptimal);
  ASSERT_GT(searched, 20);
  for (std::int64_t cap : {std::int64_t{1}, std::int64_t{2}, std::int64_t{5},
                           searched - 1}) {
    const MckpSolution sol = solve_mckp(problem, cap);
    ASSERT_EQ(sol.status, MckpStatus::kLimit) << "max_nodes " << cap;
    ASSERT_TRUE(sol.feasible());
    ASSERT_EQ(sol.choice.size(), problem.groups.size());
    EXPECT_LE(sol.weight, problem.capacity + 1e-9);
    EXPECT_LE(sol.value, exact.value);
    EXPECT_EQ(sol.bound, exact.bound);
  }
}

// ---- differential property test -------------------------------------------

struct BruteForce {
  bool feasible = false;
  double value = 0.0;
  std::vector<std::size_t> choice;  // lexicographically smallest optimum
};

// Enumerates every choice vector in lexicographic order, keeping the first
// one of maximum value. Values and weights are multiples of 1/4 here, so the
// sums are exact and ties are real ties.
BruteForce brute_force(const MckpProblem& problem) {
  BruteForce out;
  const std::size_t n = problem.groups.size();
  for (const auto& group : problem.groups) {
    if (group.empty()) return out;
  }
  std::vector<std::size_t> choice(n, 0);
  while (true) {
    double value = 0.0, weight = 0.0;
    for (std::size_t g = 0; g < n; ++g) {
      value += problem.groups[g][choice[g]].value;
      weight += problem.groups[g][choice[g]].weight;
    }
    if (weight <= problem.capacity && (!out.feasible || value > out.value)) {
      out = {true, value, choice};
    }
    std::size_t g = n;
    while (g > 0 && ++choice[g - 1] == problem.groups[g - 1].size()) {
      choice[--g] = 0;
    }
    if (g == 0) return out;
  }
}

// The same problem through the generic ILP oracle: one binary per item, one
// equality row per group and the capacity row.
std::optional<double> generic_ilp_value(const MckpProblem& problem) {
  lp_oracle::Model model;
  lp_oracle::LinearExpr objective, weight_row;
  for (const auto& group : problem.groups) {
    lp_oracle::LinearExpr one_of;
    for (const MckpItem& item : group) {
      const lp_oracle::VarId v = model.add_binary("x");
      objective.push_back({v, item.value});
      weight_row.push_back({v, item.weight});
      one_of.push_back({v, 1.0});
    }
    model.add_constraint(std::move(one_of), lp_oracle::Sense::kEq, 1.0);
  }
  model.add_constraint(std::move(weight_row), lp_oracle::Sense::kLe,
                       problem.capacity);
  model.set_objective(std::move(objective), /*maximize=*/true);
  const lp_oracle::Solution sol = lp_oracle::solve_ilp(model);
  if (!sol.optimal()) return std::nullopt;
  return sol.objective;
}

enum class WeightKind { kInteger, kFractional, kZero, kFlat, kMixed };

MckpProblem random_mckp(util::Rng& rng, WeightKind kind) {
  MckpProblem problem;
  // Small value ranges make ties, and so the tie-break, common.
  const bool tie_heavy = rng.flip(0.3);
  const auto quarter = [&](std::int64_t lo, std::int64_t hi) {
    return 0.25 * static_cast<double>(rng.uniform_int(4 * lo, 4 * hi));
  };
  const auto groups = rng.uniform_int(1, 8);
  double min_sum = 0.0, max_sum = 0.0;
  for (std::int64_t g = 0; g < groups; ++g) {
    std::vector<MckpItem> group;
    if (rng.flip(0.02)) {  // an empty group makes the instance infeasible
      problem.groups.push_back(group);
      continue;
    }
    const bool flat = kind == WeightKind::kFlat ||
                      (kind == WeightKind::kMixed && rng.flip());
    const double flat_weight = quarter(-4, 8);
    const auto items = rng.uniform_int(1, 5);
    double lo = std::numeric_limits<double>::infinity(), hi = -lo;
    for (std::int64_t i = 0; i < items; ++i) {
      MckpItem item;
      item.value = tie_heavy ? static_cast<double>(rng.uniform_int(0, 3))
                             : quarter(-3, 12);
      switch (kind) {
        case WeightKind::kInteger:
          item.weight = static_cast<double>(rng.uniform_int(-6, 10));
          break;
        case WeightKind::kFractional:
        case WeightKind::kMixed:
          item.weight = flat ? flat_weight : quarter(-6, 10);
          break;
        case WeightKind::kZero:
          item.weight = 0.0;
          break;
        case WeightKind::kFlat:
          item.weight = flat_weight;
          break;
      }
      lo = std::min(lo, item.weight);
      hi = std::max(hi, item.weight);
      group.push_back(item);
    }
    min_sum += lo;
    max_sum += hi;
    problem.groups.push_back(std::move(group));
  }
  // From below the lightest selection (infeasible) to above the heaviest.
  problem.capacity = quarter(static_cast<std::int64_t>(std::floor(min_sum)) - 3,
                             static_cast<std::int64_t>(std::ceil(max_sum)) + 3);
  return problem;
}

TEST(MckpPropertyTest, MatchesBruteForceDpAndGenericIlp) {
  util::Rng rng(2024);
  constexpr int kTrials = 12000;
  int feasible = 0, infeasible = 0, dp_checked = 0, ilp_checked = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto kind = static_cast<WeightKind>(trial % 5);
    const MckpProblem problem = random_mckp(rng, kind);
    const MckpSolution sol = solve_mckp(problem);
    const BruteForce oracle = brute_force(problem);
    ASSERT_EQ(sol.feasible(), oracle.feasible) << "trial " << trial;
    ASSERT_NE(sol.status, MckpStatus::kLimit) << "trial " << trial;
    if (!oracle.feasible) {
      ++infeasible;
      continue;
    }
    ++feasible;
    ASSERT_EQ(sol.value, oracle.value) << "trial " << trial;
    ASSERT_EQ(sol.choice, oracle.choice) << "trial " << trial;
    ASSERT_LE(sol.weight, problem.capacity + 1e-9) << "trial " << trial;
    ASSERT_GE(sol.bound, sol.value - 1e-9) << "trial " << trial;
    if (kind == WeightKind::kInteger || kind == WeightKind::kZero) {
      const MckpSolution dp = solve_mckp_dp(problem);
      ASSERT_TRUE(dp.feasible()) << "trial " << trial;
      ASSERT_EQ(dp.value, sol.value) << "trial " << trial;
      ++dp_checked;
    }
    if (trial % 10 == 0) {
      const std::optional<double> generic = generic_ilp_value(problem);
      ASSERT_TRUE(generic.has_value()) << "trial " << trial;
      ASSERT_NEAR(*generic, sol.value, 1e-6) << "trial " << trial;
      ++ilp_checked;
    }
  }
  // The corpus must exercise both outcomes and every oracle.
  EXPECT_GT(feasible, kTrials / 2);
  EXPECT_GT(infeasible, kTrials / 20);
  EXPECT_GT(dp_checked, kTrials / 5);
  EXPECT_GT(ilp_checked, kTrials / 40);
}

// Deeper searches than brute force can check: 8-24 groups of up to 8 items,
// against the DP's optimum.
TEST(MckpPropertyTest, LargerInstancesMatchDp) {
  util::Rng rng(4049);
  int feasible = 0;
  for (int trial = 0; trial < 400; ++trial) {
    MckpProblem problem;
    const auto groups = rng.uniform_int(8, 24);
    for (std::int64_t g = 0; g < groups; ++g) {
      std::vector<MckpItem> group;
      const auto items = rng.uniform_int(1, 8);
      for (std::int64_t i = 0; i < items; ++i) {
        group.push_back({0.25 * static_cast<double>(rng.uniform_int(-8, 80)),
                         static_cast<double>(rng.uniform_int(-10, 30))});
      }
      problem.groups.push_back(std::move(group));
    }
    problem.capacity = static_cast<double>(rng.uniform_int(-40, 12 * groups));
    const MckpSolution sol = solve_mckp(problem);
    const MckpSolution dp = solve_mckp_dp(problem);
    ASSERT_EQ(sol.status, dp.feasible() ? MckpStatus::kOptimal
                                        : MckpStatus::kInfeasible)
        << "trial " << trial;
    if (!dp.feasible()) continue;
    ++feasible;
    ASSERT_EQ(sol.value, dp.value) << "trial " << trial;
    ASSERT_LE(sol.weight, problem.capacity) << "trial " << trial;
    ASSERT_GE(sol.bound, sol.value) << "trial " << trial;
  }
  EXPECT_GT(feasible, 200);
}

}  // namespace
}  // namespace ermes::ilp
