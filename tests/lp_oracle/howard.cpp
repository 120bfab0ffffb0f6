#include "lp_oracle/howard.h"

#include <cassert>
#include <limits>
#include <vector>

#include "graph/scc.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "tmg/csr.h"
#include "util/log.h"

namespace ermes::tmg {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;

using graph::ArcId;
using graph::NodeId;

// Howard policy iteration on one strongly connected component.
class SccSolver {
 public:
  SccSolver(const RatioGraph& rg, const std::vector<std::int32_t>& comp_of,
            std::int32_t comp_id, const std::vector<NodeId>& members)
      : rg_(rg), comp_of_(comp_of), comp_id_(comp_id), members_(members) {
    const auto n = static_cast<std::size_t>(rg.g.num_nodes());
    policy_.assign(n, graph::kInvalidArc);
    lambda_.assign(n, kNegInf);
    value_.assign(n, 0.0);
    cyc_w_.assign(n, 0);
    cyc_t_.assign(n, 1);
    seen_.assign(n, -1);
    done_.assign(n, -1);
  }

  // Runs policy iteration. Fills `out` with this SCC's critical cycle if it
  // beats the current content. Returns false when no internal cycle exists
  // (trivial SCC without self-loop).
  /// Policy-improvement rounds performed by the last solve() call.
  int iterations() const { return iterations_; }
  /// True iff the last solve() exhausted the iteration cap before
  /// convergence (result reflects the last evaluated policy).
  bool capped() const { return !converged_; }

  bool solve(CycleRatioResult& out) {
    if (!init_policy()) return false;
    // Howard terminates after finitely many improvements; the cap is a
    // defensive bound (never hit in our test corpus outside the injected
    // test override).
    const int max_iters = detail::howard_iteration_cap(members_.size());
    converged_ = false;
    for (int iter = 0; iter < max_iters; ++iter) {
      iterations_ = iter + 1;
      if (!evaluate()) {
        // Zero-token cycle: infinite ratio (deadlocked TMG).
        out.has_cycle = true;
        out.ratio = std::numeric_limits<double>::infinity();
        out.ratio_num = best_w_;
        out.ratio_den = 0;
        out.critical_cycle = best_cycle_;
        converged_ = true;
        return true;
      }
      if (!improve()) {
        converged_ = true;
        break;
      }
    }
    if (!converged_) {
      detail::note_iteration_cap_exhausted(iterations_, members_.size());
    }
    if (out.ratio_den == 0 && out.has_cycle) return true;  // already infinite
    if (!out.has_cycle ||
        compare_ratios(best_w_, best_t_, out.ratio_num, out.ratio_den) > 0) {
      out.has_cycle = true;
      out.ratio_num = best_w_;
      out.ratio_den = best_t_;
      out.ratio = static_cast<double>(best_w_) / static_cast<double>(best_t_);
      out.critical_cycle = best_cycle_;
    }
    return true;
  }

 private:
  bool in_scc(NodeId n) const {
    return comp_of_[static_cast<std::size_t>(n)] == comp_id_;
  }
  NodeId succ(NodeId u) const {
    return rg_.g.head(policy_[static_cast<std::size_t>(u)]);
  }

  // Picks any internal out-arc per node. Returns false when the SCC is a
  // single node without a self-loop (no cycles to analyze).
  bool init_policy() {
    bool any = false;
    for (NodeId u : members_) {
      for (ArcId a : rg_.g.out_arcs(u)) {
        if (in_scc(rg_.g.head(a))) {
          policy_[static_cast<std::size_t>(u)] = a;
          any = true;
          break;
        }
      }
    }
    if (members_.size() == 1) return any;
    assert(any);
    return true;
  }

  // Policy evaluation: finds the cycle each node reaches in the functional
  // policy graph, assigns lambda (cycle ratio) and node values. Returns false
  // on a zero-token cycle (records it as the best cycle).
  bool evaluate() {
    ++stamp_;
    best_of_eval_set_ = false;
    for (NodeId start : members_) {
      if (done_[static_cast<std::size_t>(start)] == stamp_) continue;
      walk_.clear();
      NodeId u = start;
      while (done_[static_cast<std::size_t>(u)] != stamp_ &&
             seen_[static_cast<std::size_t>(u)] != stamp_) {
        seen_[static_cast<std::size_t>(u)] = stamp_;
        walk_.push_back(u);
        u = succ(u);
      }
      if (done_[static_cast<std::size_t>(u)] != stamp_) {
        // u is on the current walk: the suffix starting at u is a new cycle.
        if (!settle_cycle(u)) return false;
      }
      // Unwind the walk back-to-front, resolving tree nodes.
      for (auto it = walk_.rbegin(); it != walk_.rend(); ++it) {
        const NodeId x = *it;
        if (done_[static_cast<std::size_t>(x)] == stamp_) continue;
        const ArcId a = policy_[static_cast<std::size_t>(x)];
        const NodeId nxt = rg_.g.head(a);
        const auto xi = static_cast<std::size_t>(x);
        const auto ni = static_cast<std::size_t>(nxt);
        lambda_[xi] = lambda_[ni];
        cyc_w_[xi] = cyc_w_[ni];
        cyc_t_[xi] = cyc_t_[ni];
        value_[xi] = static_cast<double>(rg_.arc_weight(a)) -
                     lambda_[xi] * static_cast<double>(rg_.arc_tokens(a)) +
                     value_[ni];
        done_[xi] = stamp_;
      }
    }
    return true;
  }

  // Handles the cycle formed by the suffix of walk_ starting at `root`.
  bool settle_cycle(NodeId root) {
    std::size_t pos = walk_.size();
    while (pos > 0 && walk_[pos - 1] != root) --pos;
    assert(pos > 0);
    --pos;  // walk_[pos] == root
    std::int64_t w_sum = 0, t_sum = 0;
    std::vector<ArcId> arcs;
    arcs.reserve(walk_.size() - pos);
    for (std::size_t i = pos; i < walk_.size(); ++i) {
      const ArcId a = policy_[static_cast<std::size_t>(walk_[i])];
      w_sum += rg_.arc_weight(a);
      t_sum += rg_.arc_tokens(a);
      arcs.push_back(a);
    }
    if (t_sum == 0) {
      best_w_ = w_sum;
      best_t_ = 0;
      best_cycle_ = std::move(arcs);
      return false;
    }
    const double lam =
        static_cast<double>(w_sum) / static_cast<double>(t_sum);
    // Assign lambda and values around the cycle: v[root] = 0, then forward
    // v[next] = v[cur] - (w - lam*tau).
    value_[static_cast<std::size_t>(root)] = 0.0;
    for (std::size_t i = pos; i < walk_.size(); ++i) {
      const NodeId cur = walk_[i];
      const auto ci = static_cast<std::size_t>(cur);
      lambda_[ci] = lam;
      cyc_w_[ci] = w_sum;
      cyc_t_[ci] = t_sum;
      done_[ci] = stamp_;
      if (i + 1 < walk_.size()) {
        const ArcId a = policy_[ci];
        value_[static_cast<std::size_t>(walk_[i + 1])] =
            value_[ci] - (static_cast<double>(rg_.arc_weight(a)) -
                          lam * static_cast<double>(rg_.arc_tokens(a)));
      }
    }
    if (!best_of_eval_set_ ||
        compare_ratios(w_sum, t_sum, best_w_, best_t_) > 0) {
      best_of_eval_set_ = true;
      best_w_ = w_sum;
      best_t_ = t_sum;
      best_cycle_ = std::move(arcs);
    }
    return true;
  }

  // Policy improvement. Returns true if any node switched its arc.
  bool improve() {
    bool improved = false;
    for (NodeId u : members_) {
      const auto ui = static_cast<std::size_t>(u);
      for (ArcId a : rg_.g.out_arcs(u)) {
        const NodeId x = rg_.g.head(a);
        if (!in_scc(x)) continue;
        const auto xi = static_cast<std::size_t>(x);
        if (lambda_[xi] > lambda_[ui] + kEps) {
          policy_[ui] = a;
          lambda_[ui] = lambda_[xi];
          value_[ui] = static_cast<double>(rg_.arc_weight(a)) -
                       lambda_[xi] * static_cast<double>(rg_.arc_tokens(a)) +
                       value_[xi];
          improved = true;
        } else if (lambda_[xi] > lambda_[ui] - kEps) {
          const double cand =
              static_cast<double>(rg_.arc_weight(a)) -
              lambda_[ui] * static_cast<double>(rg_.arc_tokens(a)) +
              value_[xi];
          if (cand > value_[ui] + kEps) {
            policy_[ui] = a;
            value_[ui] = cand;
            improved = true;
          }
        }
      }
    }
    return improved;
  }

  const RatioGraph& rg_;
  const std::vector<std::int32_t>& comp_of_;
  std::int32_t comp_id_;
  const std::vector<NodeId>& members_;

  std::vector<ArcId> policy_;
  std::vector<double> lambda_;
  std::vector<double> value_;
  std::vector<std::int64_t> cyc_w_;
  std::vector<std::int64_t> cyc_t_;
  std::vector<std::int32_t> seen_;
  std::vector<std::int32_t> done_;
  std::int32_t stamp_ = 0;
  std::vector<NodeId> walk_;
  int iterations_ = 0;
  bool converged_ = true;

  bool best_of_eval_set_ = false;
  std::vector<ArcId> best_cycle_;
  std::int64_t best_w_ = 0;
  std::int64_t best_t_ = 1;
};

// Finds a zero-token cycle that lies entirely inside one SCC (iterative DFS
// over the members, traversing only token-free internal arcs). The global
// entry point screens the whole graph with find_zero_token_cycle first, so
// there this never fires; it keeps the per-SCC entry a complete oracle for a
// component solved in isolation, deadlocked components included (the
// engine's solve_component requires a live graph and has no such branch).
bool find_zero_token_cycle_in_scc(const RatioGraph& rg,
                                  const std::vector<std::int32_t>& comp_of,
                                  std::int32_t comp_id,
                                  const std::vector<NodeId>& members,
                                  std::vector<ArcId>* cycle) {
  const auto n = static_cast<std::size_t>(rg.g.num_nodes());
  std::vector<char> color(n, 0);  // 0 white, 1 gray, 2 black
  std::vector<ArcId> via(n, graph::kInvalidArc);  // arc that discovered node
  struct Frame {
    NodeId node;
    std::size_t next_arc;
  };
  std::vector<Frame> stack;
  for (const NodeId start : members) {
    if (color[static_cast<std::size_t>(start)] != 0) continue;
    stack.push_back({start, 0});
    color[static_cast<std::size_t>(start)] = 1;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto& arcs = rg.g.out_arcs(frame.node);
      if (frame.next_arc >= arcs.size()) {
        color[static_cast<std::size_t>(frame.node)] = 2;
        stack.pop_back();
        continue;
      }
      const ArcId a = arcs[frame.next_arc++];
      if (rg.arc_tokens(a) != 0) continue;
      const NodeId next = rg.g.head(a);
      if (comp_of[static_cast<std::size_t>(next)] != comp_id) continue;
      const auto ni = static_cast<std::size_t>(next);
      if (color[ni] == 1) {
        // Back arc: the gray-stack suffix starting at `next`, plus `a`,
        // closes a token-free cycle.
        if (cycle != nullptr) {
          cycle->clear();
          std::size_t pos = stack.size();
          while (pos > 0 && stack[pos - 1].node != next) --pos;
          for (std::size_t i = pos; i < stack.size(); ++i) {
            cycle->push_back(via[static_cast<std::size_t>(stack[i].node)]);
          }
          cycle->push_back(a);
        }
        return true;
      }
      if (color[ni] == 0) {
        color[ni] = 1;
        via[ni] = a;
        stack.push_back({next, 0});
      }
    }
  }
  return false;
}

}  // namespace

CycleRatioResult max_cycle_ratio_howard_scc(
    const RatioGraph& rg, const std::vector<std::int32_t>& component,
    std::int32_t comp_id, const std::vector<graph::NodeId>& members,
    int* iterations, bool* capped) {
  if (iterations != nullptr) *iterations = 0;
  if (capped != nullptr) *capped = false;
  CycleRatioResult result;
  // Zero-token cycles are invisible to policy improvement (their lambda never
  // materializes unless a policy lands on them), so screen structurally
  // first. The global entry screens the whole graph instead; this local pass
  // keeps one component's solve self-contained.
  std::vector<ArcId> zero_cycle;
  if (find_zero_token_cycle_in_scc(rg, component, comp_id, members,
                                   &zero_cycle)) {
    result.has_cycle = true;
    result.ratio = std::numeric_limits<double>::infinity();
    result.ratio_den = 0;
    for (ArcId a : zero_cycle) result.ratio_num += rg.arc_weight(a);
    result.critical_cycle = std::move(zero_cycle);
    return result;
  }
  if (members.size() == 1) {
    // Trivial SCC: the only possible cycles are self-loops (all with tokens
    // by now). Exact max, first-wins on ties.
    const NodeId u = members.front();
    for (const ArcId a : rg.g.out_arcs(u)) {
      if (rg.g.head(a) != u) continue;
      const std::int64_t w = rg.arc_weight(a);
      const std::int64_t t = rg.arc_tokens(a);
      if (!result.has_cycle ||
          compare_ratios(w, t, result.ratio_num, result.ratio_den) > 0) {
        result.has_cycle = true;
        result.ratio_num = w;
        result.ratio_den = t;
        result.ratio = static_cast<double>(w) / static_cast<double>(t);
        result.critical_cycle.assign(1, a);
      }
    }
    return result;
  }
  SccSolver solver(rg, component, comp_id, members);
  if (solver.solve(result)) {
    if (iterations != nullptr) *iterations = solver.iterations();
    if (capped != nullptr) *capped = solver.capped();
  }
  return result;
}

CycleRatioResult max_cycle_ratio_howard(const RatioGraph& rg) {
  obs::ObsSpan span("howard.solve", "tmg");
  CycleRatioResult result;
  // Zero-token cycles make the ratio infinite but are invisible to policy
  // improvement (their lambda never materializes unless a policy lands on
  // them), so detect them structurally first. Keeping this screen global
  // (rather than relying on the per-SCC screens) preserves the witness the
  // liveness diagnostics expect.
  std::vector<graph::ArcId> zero_cycle;
  if (find_zero_token_cycle(rg, &zero_cycle)) {
    result.has_cycle = true;
    result.ratio = std::numeric_limits<double>::infinity();
    result.ratio_den = 0;
    for (graph::ArcId a : zero_cycle) result.ratio_num += rg.arc_weight(a);
    result.critical_cycle = std::move(zero_cycle);
    ERMES_LOG(kDebug) << "howard: zero-token cycle of "
                      << result.critical_cycle.size()
                      << " arcs, ratio infinite";
    if (obs::enabled()) detail::publish_howard_metrics(0);
    return result;
  }
  const graph::SccResult sccs = graph::strongly_connected_components(rg.g);
  int total_iterations = 0;
  for (std::int32_t c = 0; c < sccs.num_components; ++c) {
    int iters = 0;
    const CycleRatioResult scc = max_cycle_ratio_howard_scc(
        rg, sccs.component, c, sccs.members[static_cast<std::size_t>(c)],
        &iters);
    total_iterations += iters;
    fold_cycle_ratio(scc, &result);
    if (result.is_infinite()) break;  // deadlock dominates
  }
  if (obs::enabled()) {
    // The engine counts its rounds under tmg.solver.iterations only, so
    // howard.iterations is this oracle's share and no round counts twice.
    detail::publish_howard_metrics(total_iterations);
    obs::count("howard.iterations", total_iterations);
  }
  ERMES_LOG(kDebug) << "howard: converged after " << total_iterations
                    << " policy iterations over " << sccs.num_components
                    << " SCCs";
  return result;
}

}  // namespace ermes::tmg
