// Unit tests for the generic LP/ILP test oracle (tests/lp_oracle): the
// dense simplex, the branch-and-bound, and the modeling API they share.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "lp_oracle/branch_and_bound.h"
#include "lp_oracle/model.h"
#include "lp_oracle/simplex.h"
#include "util/rng.h"

namespace ermes::lp_oracle {
namespace {

// ---- model -----------------------------------------------------------------

TEST(ModelTest, NormalizeMergesAndDropsZeros) {
  const LinearExpr expr = normalize({{1, 2.0}, {0, 1.0}, {1, 3.0}, {2, 0.0}});
  ASSERT_EQ(expr.size(), 2u);
  EXPECT_EQ(expr[0].var, 0);
  EXPECT_DOUBLE_EQ(expr[1].coeff, 5.0);
}

TEST(ModelTest, ObjectiveValue) {
  Model m;
  const VarId x = m.add_continuous("x");
  const VarId y = m.add_continuous("y");
  m.set_objective({{x, 2.0}, {y, -1.0}}, true);
  EXPECT_DOUBLE_EQ(m.objective_value({3.0, 4.0}), 2.0);
}

TEST(ModelTest, FeasibilityCheck) {
  Model m;
  const VarId x = m.add_binary("x");
  m.add_constraint({{x, 1.0}}, Sense::kLe, 0.5, "cap");
  EXPECT_TRUE(m.is_feasible({0.0}));
  EXPECT_FALSE(m.is_feasible({1.0}));   // violates cap
  EXPECT_FALSE(m.is_feasible({0.5}));   // violates integrality
}

// ---- simplex ----------------------------------------------------------------

TEST(SimplexTest, SimpleMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4, 0), obj 12.
  Model m;
  const VarId x = m.add_continuous("x");
  const VarId y = m.add_continuous("y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0);
  m.add_constraint({{x, 1.0}, {y, 3.0}}, Sense::kLe, 6.0);
  m.set_objective({{x, 3.0}, {y, 2.0}}, true);
  const Solution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 12.0, 1e-7);
  EXPECT_NEAR(sol.values[0], 4.0, 1e-7);
}

TEST(SimplexTest, Minimization) {
  // min x + y s.t. x + 2y >= 4, 3x + y >= 6 -> intersection (1.6, 1.2).
  Model m;
  const VarId x = m.add_continuous("x");
  const VarId y = m.add_continuous("y");
  m.add_constraint({{x, 1.0}, {y, 2.0}}, Sense::kGe, 4.0);
  m.add_constraint({{x, 3.0}, {y, 1.0}}, Sense::kGe, 6.0);
  m.set_objective({{x, 1.0}, {y, 1.0}}, false);
  const Solution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 2.8, 1e-7);
}

TEST(SimplexTest, EqualityConstraint) {
  Model m;
  const VarId x = m.add_continuous("x");
  const VarId y = m.add_continuous("y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kEq, 5.0);
  m.set_objective({{x, 1.0}}, true);
  const Solution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.values[0], 5.0, 1e-7);
  EXPECT_NEAR(sol.values[1], 0.0, 1e-7);
}

TEST(SimplexTest, InfeasibleDetected) {
  Model m;
  const VarId x = m.add_continuous("x", 0.0, 10.0);
  m.add_constraint({{x, 1.0}}, Sense::kGe, 20.0);
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, UnboundedDetected) {
  Model m;
  const VarId x = m.add_continuous("x");
  m.set_objective({{x, 1.0}}, true);
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, VariableBoundsRespected) {
  Model m;
  const VarId x = m.add_continuous("x", 1.0, 3.0);
  m.set_objective({{x, 1.0}}, true);
  const Solution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.values[0], 3.0, 1e-7);
}

TEST(SimplexTest, LowerBoundShiftCorrect) {
  // min x with lo = -5: answer -5 (negative bounds shift correctly).
  Model m;
  const VarId x = m.add_continuous("x", -5.0, 5.0);
  m.set_objective({{x, 1.0}}, false);
  const Solution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.values[0], -5.0, 1e-7);
}

TEST(SimplexTest, NegativeRhsNormalized) {
  // x - y <= -1 with max x, x,y in [0,10] -> x = 9 when y = 10.
  Model m;
  const VarId x = m.add_continuous("x", 0.0, 10.0);
  const VarId y = m.add_continuous("y", 0.0, 10.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Sense::kLe, -1.0);
  m.set_objective({{x, 1.0}}, true);
  const Solution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 9.0, 1e-7);
}

TEST(SimplexTest, BoundOverridesApplied) {
  Model m;
  const VarId x = m.add_continuous("x", 0.0, 10.0);
  m.set_objective({{x, 1.0}}, true);
  const Solution sol = solve_lp(m, {0.0}, {2.5});
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.values[0], 2.5, 1e-7);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the same vertex (degeneracy);
  // Bland's rule must avoid cycling.
  Model m;
  const VarId x = m.add_continuous("x");
  const VarId y = m.add_continuous("y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 1.0);
  m.add_constraint({{x, 2.0}, {y, 2.0}}, Sense::kLe, 2.0);
  m.add_constraint({{x, 1.0}}, Sense::kLe, 1.0);
  m.set_objective({{x, 1.0}, {y, 1.0}}, true);
  const Solution sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 1.0, 1e-7);
}

// ---- branch and bound --------------------------------------------------------

TEST(BnbTest, IntegerKnapsack) {
  // max 10a + 6b + 4c s.t. a+b+c <= 2 (binary) -> a + b = 16.
  Model m;
  const VarId a = m.add_binary("a");
  const VarId b = m.add_binary("b");
  const VarId c = m.add_binary("c");
  m.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}}, Sense::kLe, 2.0);
  m.set_objective({{a, 10.0}, {b, 6.0}, {c, 4.0}}, true);
  const Solution sol = solve_ilp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 16.0, 1e-7);
  EXPECT_NEAR(sol.values[0], 1.0, 1e-7);
  EXPECT_NEAR(sol.values[1], 1.0, 1e-7);
}

TEST(BnbTest, FractionalLpForcedIntegral) {
  // LP relaxation of: max x + y, x + y <= 1.5 (binaries) is 1.5; ILP = 1.
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_binary("y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 1.5);
  m.set_objective({{x, 1.0}, {y, 1.0}}, true);
  const Solution sol = solve_ilp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 1.0, 1e-7);
}

TEST(BnbTest, InfeasibleIlp) {
  Model m;
  const VarId x = m.add_binary("x");
  m.add_constraint({{x, 1.0}}, Sense::kGe, 2.0);
  EXPECT_EQ(solve_ilp(m).status, SolveStatus::kInfeasible);
}

TEST(BnbTest, GeneralIntegerVariable) {
  // max x s.t. 2x <= 7, x integer in [0, 10] -> 3.
  Model m;
  const VarId x = m.add_integer("x", 0, 10);
  m.add_constraint({{x, 2.0}}, Sense::kLe, 7.0);
  m.set_objective({{x, 1.0}}, true);
  const Solution sol = solve_ilp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.values[0], 3.0, 1e-7);
}

TEST(BnbTest, MixedIntegerContinuous) {
  // max 2x + y, x binary, y <= 1.5 continuous, x + y <= 2 -> x=1, y=1.
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_continuous("y", 0.0, 1.5);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 2.0);
  m.set_objective({{x, 2.0}, {y, 1.0}}, true);
  const Solution sol = solve_ilp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 3.0, 1e-7);
}

TEST(BnbTest, MinimizationDirection) {
  // min x + y s.t. x + y >= 1, binaries -> 1.
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_binary("y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kGe, 1.0);
  m.set_objective({{x, 1.0}, {y, 1.0}}, false);
  const Solution sol = solve_ilp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 1.0, 1e-7);
}

TEST(BnbTest, SolutionIsFeasible) {
  Model m;
  std::vector<VarId> vars;
  for (int i = 0; i < 6; ++i) vars.push_back(m.add_binary("x"));
  LinearExpr cap;
  LinearExpr obj;
  const double w[] = {3, 5, 7, 2, 4, 6};
  const double v[] = {4, 6, 9, 2, 5, 7};
  for (int i = 0; i < 6; ++i) {
    cap.push_back({vars[static_cast<std::size_t>(i)], w[i]});
    obj.push_back({vars[static_cast<std::size_t>(i)], v[i]});
  }
  m.add_constraint(cap, Sense::kLe, 12.0);
  m.set_objective(obj, true);
  const Solution sol = solve_ilp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_TRUE(m.is_feasible(sol.values));
  EXPECT_NEAR(sol.objective, 15.0, 1e-7);  // {5,7} w=12 v=15
}

// ---- randomized cross-validation -----------------------------------------------

// Exhaustive 0/1 enumeration oracle for small random ILPs.
double brute_force_best(const Model& m) {
  const int n = m.num_vars();
  double best = -std::numeric_limits<double>::infinity();
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<double> x(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      x[static_cast<std::size_t>(v)] = (mask >> v) & 1;
    }
    if (!m.is_feasible(x)) continue;
    const double value = m.objective_value(x);
    const double signed_value = m.maximize() ? value : -value;
    if (signed_value > best) best = signed_value;
  }
  return m.maximize() ? best : -best;
}

TEST(BnbPropertyTest, MatchesExhaustiveOnRandomBinaryIlps) {
  util::Rng rng(71);
  int solved = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Model m;
    const int n = static_cast<int>(rng.uniform_int(2, 10));
    std::vector<VarId> vars;
    for (int v = 0; v < n; ++v) vars.push_back(m.add_binary("x"));
    const int rows = static_cast<int>(rng.uniform_int(1, 4));
    for (int r = 0; r < rows; ++r) {
      LinearExpr expr;
      for (VarId v : vars) {
        const double coeff = static_cast<double>(rng.uniform_int(-4, 6));
        if (coeff != 0.0) expr.push_back({v, coeff});
      }
      const Sense sense = rng.flip() ? Sense::kLe : Sense::kGe;
      m.add_constraint(std::move(expr), sense,
                       static_cast<double>(rng.uniform_int(-3, 12)));
    }
    LinearExpr objective;
    for (VarId v : vars) {
      objective.push_back({v, static_cast<double>(rng.uniform_int(-5, 9))});
    }
    m.set_objective(std::move(objective), rng.flip());

    const Solution sol = solve_ilp(m);
    const double oracle = brute_force_best(m);
    const bool oracle_feasible = std::isfinite(oracle);
    ASSERT_EQ(sol.optimal(), oracle_feasible) << "trial " << trial;
    if (sol.optimal()) {
      EXPECT_NEAR(sol.objective, oracle, 1e-6) << "trial " << trial;
      EXPECT_TRUE(m.is_feasible(sol.values)) << "trial " << trial;
      ++solved;
    }
  }
  EXPECT_GT(solved, 10);  // the corpus must contain real instances
}

TEST(SimplexPropertyTest, RelaxationBoundsTheIlp) {
  util::Rng rng(73);
  for (int trial = 0; trial < 20; ++trial) {
    Model m;
    const int n = static_cast<int>(rng.uniform_int(2, 8));
    LinearExpr cap, objective;
    for (int v = 0; v < n; ++v) {
      const VarId var = m.add_binary("x");
      cap.push_back({var, static_cast<double>(rng.uniform_int(1, 9))});
      objective.push_back({var, static_cast<double>(rng.uniform_int(1, 9))});
    }
    m.add_constraint(std::move(cap), Sense::kLe,
                     static_cast<double>(rng.uniform_int(3, 25)));
    m.set_objective(std::move(objective), true);
    const Solution lp = solve_lp(m);
    const Solution ilp = solve_ilp(m);
    ASSERT_TRUE(lp.optimal());
    ASSERT_TRUE(ilp.optimal());
    EXPECT_GE(lp.objective + 1e-7, ilp.objective) << "trial " << trial;
  }
}

}  // namespace
}  // namespace ermes::lp_oracle
