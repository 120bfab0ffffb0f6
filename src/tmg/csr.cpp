#include "tmg/csr.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>

#include "obs/metrics.h"
#include "obs/span.h"
#include "tmg/marked_graph.h"
#include "util/log.h"

namespace ermes::tmg {

namespace {

constexpr double kEps = 1e-9;

using graph::NodeId;

// Registry mirror of CycleMeanSolver::Stats. Per-solver Stats live and die
// with their solver (and broker sessions); the tmg.solver.* counters
// aggregate across all solvers in the process so the stats plane can show
// solver traffic without an open session. References are cached once — the
// registry keeps registrations alive for the process lifetime.
struct SolverCounters {
  obs::Counter& compiles;
  obs::Counter& weight_refreshes;
  obs::Counter& solves;
  obs::Counter& iterations;
  obs::Counter& cap_hits;

  static SolverCounters& get() {
    static SolverCounters counters{
        obs::Registry::global().counter("tmg.solver.compiles"),
        obs::Registry::global().counter("tmg.solver.weight_refreshes"),
        obs::Registry::global().counter("tmg.solver.solves"),
        obs::Registry::global().counter("tmg.solver.iterations"),
        obs::Registry::global().counter("tmg.solver.cap_hits")};
    return counters;
  }
};

// Howard policy iteration on one strongly connected component of a live CSR
// view. It mirrors the reference oracle's SccSolver
// (tests/lp_oracle/howard.cpp) line for line: same member iteration order, same
// slot (== out_arcs) order, same floating-point expressions and 1e-9 epsilon —
// so given the same initial policy it follows the identical trajectory and
// reports bit-identical results. The differences are representation (slots
// instead of ArcIds, workspace-owned scratch instead of per-solve assigns), the
// externally supplied seed policy, and the oracle's token-free-cycle branches,
// which cannot fire here: on a live graph every policy cycle carries a token.
class CsrSccSolver {
 public:
  CsrSccSolver(const CsrGraph& csr, const std::vector<std::int32_t>& comp_of,
               std::int32_t comp_id, const std::vector<NodeId>& members,
               HowardWorkspace& ws)
      : csr_(csr),
        comp_of_(comp_of),
        comp_id_(comp_id),
        members_(members),
        ws_(ws) {
    ws_.ensure(static_cast<std::size_t>(csr.num_nodes));
  }

  int iterations() const { return iterations_; }
  bool capped() const { return !converged_; }

  // Runs policy iteration from `seed_policy` (slot per node; every member
  // must hold a valid internal slot — the canonical init_slot_ plan does for
  // multi-node SCCs).
  void solve(const std::vector<std::int32_t>& seed_policy,
             CycleRatioResult& out) {
    for (NodeId u : members_) {
      const auto ui = static_cast<std::size_t>(u);
      assert(seed_policy[ui] >= 0);
      ws_.policy[ui] = seed_policy[ui];
    }
    const int max_iters = detail::howard_iteration_cap(members_.size());
    converged_ = false;
    for (int iter = 0; iter < max_iters; ++iter) {
      iterations_ = iter + 1;
      evaluate();
      if (!improve()) {
        converged_ = true;
        break;
      }
    }
    if (!converged_) {
      detail::note_iteration_cap_exhausted(iterations_, members_.size());
    }
    if (!out.has_cycle ||
        compare_ratios(best_w_, best_t_, out.ratio_num, out.ratio_den) > 0) {
      out.has_cycle = true;
      out.ratio_num = best_w_;
      out.ratio_den = best_t_;
      out.ratio = static_cast<double>(best_w_) / static_cast<double>(best_t_);
      copy_best_cycle(out);
    }
  }

 private:
  bool in_scc(NodeId n) const {
    return comp_of_[static_cast<std::size_t>(n)] == comp_id_;
  }
  NodeId succ(NodeId u) const {
    return csr_.slot_head[static_cast<std::size_t>(
        ws_.policy[static_cast<std::size_t>(u)])];
  }

  void copy_best_cycle(CycleRatioResult& out) const {
    out.critical_cycle.clear();
    out.critical_cycle.reserve(ws_.best_cycle.size());
    for (const std::int32_t s : ws_.best_cycle) {
      out.critical_cycle.push_back(csr_.slot_arc[static_cast<std::size_t>(s)]);
    }
  }

  // Policy evaluation: finds the cycle each node reaches in the functional
  // policy graph, assigns lambda (cycle ratio) and node values.
  void evaluate() {
    stamp_ = ws_.next_stamp();
    best_of_eval_set_ = false;
    for (NodeId start : members_) {
      if (ws_.done[static_cast<std::size_t>(start)] == stamp_) continue;
      ws_.walk.clear();
      NodeId u = start;
      while (ws_.done[static_cast<std::size_t>(u)] != stamp_ &&
             ws_.seen[static_cast<std::size_t>(u)] != stamp_) {
        ws_.seen[static_cast<std::size_t>(u)] = stamp_;
        ws_.walk.push_back(u);
        u = succ(u);
      }
      if (ws_.done[static_cast<std::size_t>(u)] != stamp_) {
        // u is on the current walk: the suffix starting at u is a new cycle.
        settle_cycle(u);
      }
      // Unwind the walk back-to-front, resolving tree nodes.
      for (auto it = ws_.walk.rbegin(); it != ws_.walk.rend(); ++it) {
        const NodeId x = *it;
        if (ws_.done[static_cast<std::size_t>(x)] == stamp_) continue;
        const auto xi = static_cast<std::size_t>(x);
        const auto s = static_cast<std::size_t>(ws_.policy[xi]);
        const auto ni = static_cast<std::size_t>(csr_.slot_head[s]);
        ws_.lambda[xi] = ws_.lambda[ni];
        ws_.cyc_w[xi] = ws_.cyc_w[ni];
        ws_.cyc_t[xi] = ws_.cyc_t[ni];
        ws_.value[xi] =
            static_cast<double>(csr_.slot_weight[s]) -
            ws_.lambda[xi] * static_cast<double>(csr_.slot_tokens[s]) +
            ws_.value[ni];
        ws_.done[xi] = stamp_;
      }
    }
  }

  // Handles the cycle formed by the suffix of ws_.walk starting at `root`.
  void settle_cycle(NodeId root) {
    std::size_t pos = ws_.walk.size();
    while (pos > 0 && ws_.walk[pos - 1] != root) --pos;
    assert(pos > 0);
    --pos;  // ws_.walk[pos] == root
    std::int64_t w_sum = 0, t_sum = 0;
    ws_.cycle.clear();
    for (std::size_t i = pos; i < ws_.walk.size(); ++i) {
      const auto s = static_cast<std::size_t>(
          ws_.policy[static_cast<std::size_t>(ws_.walk[i])]);
      w_sum += csr_.slot_weight[s];
      t_sum += csr_.slot_tokens[s];
      ws_.cycle.push_back(static_cast<std::int32_t>(s));
    }
    assert(t_sum > 0 && "token-free policy cycle on a live graph");
    const double lam = static_cast<double>(w_sum) / static_cast<double>(t_sum);
    // Assign lambda and values around the cycle: v[root] = 0, then forward
    // v[next] = v[cur] - (w - lam*tau).
    ws_.value[static_cast<std::size_t>(root)] = 0.0;
    for (std::size_t i = pos; i < ws_.walk.size(); ++i) {
      const NodeId cur = ws_.walk[i];
      const auto ci = static_cast<std::size_t>(cur);
      ws_.lambda[ci] = lam;
      ws_.cyc_w[ci] = w_sum;
      ws_.cyc_t[ci] = t_sum;
      ws_.done[ci] = stamp_;
      if (i + 1 < ws_.walk.size()) {
        const auto s = static_cast<std::size_t>(ws_.policy[ci]);
        ws_.value[static_cast<std::size_t>(ws_.walk[i + 1])] =
            ws_.value[ci] -
            (static_cast<double>(csr_.slot_weight[s]) -
             lam * static_cast<double>(csr_.slot_tokens[s]));
      }
    }
    if (!best_of_eval_set_ ||
        compare_ratios(w_sum, t_sum, best_w_, best_t_) > 0) {
      best_of_eval_set_ = true;
      best_w_ = w_sum;
      best_t_ = t_sum;
      ws_.best_cycle.swap(ws_.cycle);
    }
  }

  // Policy improvement. Returns true if any node switched its arc.
  bool improve() {
    bool improved = false;
    for (NodeId u : members_) {
      const auto ui = static_cast<std::size_t>(u);
      const auto begin = static_cast<std::size_t>(csr_.row_ptr[ui]);
      const auto end = static_cast<std::size_t>(csr_.row_ptr[ui + 1]);
      for (std::size_t s = begin; s < end; ++s) {
        const NodeId x = csr_.slot_head[s];
        if (!in_scc(x)) continue;
        const auto xi = static_cast<std::size_t>(x);
        if (ws_.lambda[xi] > ws_.lambda[ui] + kEps) {
          ws_.policy[ui] = static_cast<std::int32_t>(s);
          ws_.lambda[ui] = ws_.lambda[xi];
          ws_.value[ui] =
              static_cast<double>(csr_.slot_weight[s]) -
              ws_.lambda[xi] * static_cast<double>(csr_.slot_tokens[s]) +
              ws_.value[xi];
          improved = true;
        } else if (ws_.lambda[xi] > ws_.lambda[ui] - kEps) {
          const double cand =
              static_cast<double>(csr_.slot_weight[s]) -
              ws_.lambda[ui] * static_cast<double>(csr_.slot_tokens[s]) +
              ws_.value[xi];
          if (cand > ws_.value[ui] + kEps) {
            ws_.policy[ui] = static_cast<std::int32_t>(s);
            ws_.value[ui] = cand;
            improved = true;
          }
        }
      }
    }
    return improved;
  }

  const CsrGraph& csr_;
  const std::vector<std::int32_t>& comp_of_;
  std::int32_t comp_id_;
  const std::vector<NodeId>& members_;
  HowardWorkspace& ws_;

  std::int32_t stamp_ = 0;
  int iterations_ = 0;
  bool converged_ = true;

  bool best_of_eval_set_ = false;
  std::int64_t best_w_ = 0;
  std::int64_t best_t_ = 1;
};

std::atomic<int> g_iteration_cap_override{0};

}  // namespace

void set_howard_iteration_cap_for_testing(int cap) {
  g_iteration_cap_override.store(cap, std::memory_order_relaxed);
}

// Commoner's liveness criterion: a DFS over the token-free places, roots in
// TransitionId order and each transition's out-places in slot order,
// reporting the first back arc it meets as the cycle of places from its head
// around the DFS stack.
bool find_zero_token_cycle(const MarkedGraph& g, std::vector<PlaceId>* cycle) {
  enum class Color : unsigned char { kWhite, kGray, kBlack };
  const std::vector<std::int32_t>& row_ptr = g.out_offsets();
  const std::vector<PlaceId>& out_place = g.out_place_array();
  const std::vector<TransitionId>& consumer = g.consumers();
  const std::vector<std::int64_t>& marking = g.initial_marking();
  std::vector<Color> color(static_cast<std::size_t>(g.num_transitions()),
                           Color::kWhite);
  struct Frame {
    TransitionId node;
    std::size_t next;  // absolute slot cursor
    PlaceId via;
  };
  std::vector<Frame> stack;
  for (TransitionId root = 0; root < g.num_transitions(); ++root) {
    if (color[static_cast<std::size_t>(root)] != Color::kWhite) continue;
    color[static_cast<std::size_t>(root)] = Color::kGray;
    stack.clear();
    stack.push_back(
        {root,
         static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(root)]),
         kInvalidPlace});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto row_end = static_cast<std::size_t>(
          row_ptr[static_cast<std::size_t>(frame.node) + 1]);
      bool descended = false;
      while (frame.next < row_end) {
        const PlaceId p = out_place[frame.next++];
        const auto pi = static_cast<std::size_t>(p);
        if (marking[pi] != 0) continue;
        const TransitionId w = consumer[pi];
        const auto wi = static_cast<std::size_t>(w);
        if (color[wi] == Color::kWhite) {
          color[wi] = Color::kGray;
          stack.push_back({w, static_cast<std::size_t>(row_ptr[wi]), p});
          descended = true;
          break;
        }
        if (color[wi] == Color::kGray) {
          if (cycle != nullptr) {
            std::vector<PlaceId> found;
            for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
              if (it->node == w) break;
              found.push_back(it->via);
            }
            std::reverse(found.begin(), found.end());
            found.push_back(p);
            *cycle = std::move(found);
          }
          return true;
        }
      }
      if (!descended) {
        color[static_cast<std::size_t>(frame.node)] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
  return false;
}

namespace detail {

int howard_iteration_cap(std::size_t members) {
  const int override_cap =
      g_iteration_cap_override.load(std::memory_order_relaxed);
  if (override_cap > 0) return override_cap;
  return 64 + 2 * static_cast<int>(members);
}

// Publishes one solve's worth of telemetry in a single batch; the statics
// cache the registry lookups (registrations are never erased, so the
// references stay valid across Registry::reset()).
void publish_howard_metrics(int iterations) {
  static obs::Counter& solves =
      obs::Registry::global().counter("howard.solves");
  static obs::Histogram& per_solve =
      obs::Registry::global().histogram("howard.iterations_per_solve");
  solves.add(1);
  per_solve.observe(iterations);
}

void note_iteration_cap_exhausted(int iterations, std::size_t members) {
  ERMES_LOG(kWarn) << "Howard: iteration cap exhausted after " << iterations
                   << " iterations on SCC of " << members
                   << " nodes; result may be suboptimal";
  if (obs::enabled()) obs::count("howard.cap_hits");
}

}  // namespace detail

void CsrGraph::compile(const MarkedGraph& g) {
  // The MarkedGraph's out-place arrays already are the slot layout (places
  // per producer in PlaceId order, which is Digraph::out_arcs order of
  // to_ratio_graph), and arc ids are PlaceIds.
  num_nodes = g.num_transitions();
  num_arcs = g.num_places();
  const auto m = static_cast<std::size_t>(num_arcs);
  row_ptr = g.out_offsets();
  slot_arc = g.out_place_array();
  arc_slot.resize(m);
  slot_head.resize(m);
  slot_weight.resize(m);
  slot_tokens.resize(m);
  for (std::size_t s = 0; s < m; ++s) {
    const auto pi = static_cast<std::size_t>(slot_arc[s]);
    slot_head[s] = g.consumers()[pi];
    slot_tokens[s] = g.initial_marking()[pi];
    arc_slot[pi] = static_cast<std::int32_t>(s);
  }
  refresh_weights(g);
}

bool CsrGraph::matches(const MarkedGraph& g) const {
  // Equal out-place layouts mean every place keeps its producer (and the
  // transition and place counts agree); consumers and tokens are compared
  // per slot.
  if (row_ptr != g.out_offsets() || slot_arc != g.out_place_array()) {
    return false;
  }
  const std::vector<TransitionId>& consumer = g.consumers();
  const std::vector<std::int64_t>& marking = g.initial_marking();
  for (std::size_t s = 0; s < slot_arc.size(); ++s) {
    const auto pi = static_cast<std::size_t>(slot_arc[s]);
    if (slot_head[s] != consumer[pi] || slot_tokens[s] != marking[pi]) {
      return false;
    }
  }
  return true;
}

void CsrGraph::refresh_weights(const MarkedGraph& g) {
  // Every out-slot of t carries t's delay.
  for (std::size_t t = 0; t < static_cast<std::size_t>(num_nodes); ++t) {
    std::fill(slot_weight.begin() + row_ptr[t],
              slot_weight.begin() + row_ptr[t + 1], g.delays()[t]);
  }
}

void CycleMeanSolver::compile_plan() {
  const auto n = static_cast<std::size_t>(csr_.num_nodes);
  sccs_ =
      graph::strongly_connected_components(csr_.num_nodes, csr_.row_ptr,
                                           csr_.slot_head);
  // Canonical initial policy: the first internal out-slot per node. This is
  // structure-only (weight-independent), which is what makes warm solves
  // trajectory-identical to the cold path: both start from this policy.
  init_slot_.assign(n, -1);
  for (NodeId u = 0; u < csr_.num_nodes; ++u) {
    const auto ui = static_cast<std::size_t>(u);
    const std::int32_t comp = sccs_.component[ui];
    for (std::int32_t s = csr_.row_ptr[ui]; s < csr_.row_ptr[ui + 1]; ++s) {
      if (sccs_.component[static_cast<std::size_t>(
              csr_.slot_head[static_cast<std::size_t>(s)])] == comp) {
        init_slot_[ui] = s;
        break;
      }
    }
  }
  plans_.assign(static_cast<std::size_t>(sccs_.num_components), SccPlan{});
  plan_slots_.clear();
  for (std::int32_t c = 0; c < sccs_.num_components; ++c) {
    const auto& members = sccs_.members[static_cast<std::size_t>(c)];
    if (members.size() != 1) continue;
    SccPlan& plan = plans_[static_cast<std::size_t>(c)];
    plan.begin = static_cast<std::int32_t>(plan_slots_.size());
    const NodeId u = members.front();
    const auto ui = static_cast<std::size_t>(u);
    for (std::int32_t s = csr_.row_ptr[ui]; s < csr_.row_ptr[ui + 1]; ++s) {
      if (csr_.slot_head[static_cast<std::size_t>(s)] == u) {
        plan_slots_.push_back(s);
      }
    }
    plan.end = static_cast<std::int32_t>(plan_slots_.size());
  }
}

bool CycleMeanSolver::prepare(const MarkedGraph& g) {
  if (prepared_ && csr_.matches(g)) {
    csr_.refresh_weights(g);
    ++stats_.weight_refreshes;
    if (obs::enabled()) SolverCounters::get().weight_refreshes.add();
    return true;
  }
  csr_.compile(g);
  compile_plan();
  dead_cycle_.clear();
  find_zero_token_cycle(g, &dead_cycle_);
  prepared_ = true;
  ++stats_.compiles;
  if (obs::enabled()) SolverCounters::get().compiles.add();
  return false;
}

CycleRatioResult CycleMeanSolver::solve_component(std::int32_t comp_id,
                                                  int* iterations,
                                                  bool* capped) {
  assert(prepared_ && live());
  if (iterations != nullptr) *iterations = 0;
  if (capped != nullptr) *capped = false;
  CycleRatioResult result;
  const auto& members = sccs_.members[static_cast<std::size_t>(comp_id)];
  if (members.size() == 1) {
    // Single node: the only possible cycles are self-loops, all with tokens
    // on a live graph. Exact max, first-wins on ties, in slot order.
    const SccPlan& plan = plans_[static_cast<std::size_t>(comp_id)];
    for (std::int32_t i = plan.begin; i < plan.end; ++i) {
      const auto s = static_cast<std::size_t>(
          plan_slots_[static_cast<std::size_t>(i)]);
      const std::int64_t w = csr_.slot_weight[s];
      const std::int64_t t = csr_.slot_tokens[s];
      if (!result.has_cycle ||
          compare_ratios(w, t, result.ratio_num, result.ratio_den) > 0) {
        result.has_cycle = true;
        result.ratio_num = w;
        result.ratio_den = t;
        result.ratio = static_cast<double>(w) / static_cast<double>(t);
        result.critical_cycle.assign(1, csr_.slot_arc[s]);
      }
    }
    return result;
  }
  CsrSccSolver solver(csr_, sccs_.component, comp_id, members, ws_);
  solver.solve(init_slot_, result);
  if (iterations != nullptr) *iterations = solver.iterations();
  if (capped != nullptr) *capped = solver.capped();
  return result;
}

CycleRatioResult CycleMeanSolver::solve() {
  assert(prepared_);
  obs::ObsSpan span("howard.solve", "tmg");
  ++stats_.solves;
  if (obs::enabled()) SolverCounters::get().solves.add();
  CycleRatioResult result;
  if (!live()) {
    result.has_cycle = true;
    result.ratio = std::numeric_limits<double>::infinity();
    result.ratio_den = 0;
    for (const PlaceId p : dead_cycle_) {
      result.ratio_num += csr_.arc_weight(p);
    }
    result.critical_cycle = dead_cycle_;
    ERMES_LOG(kDebug) << "howard(csr): zero-token cycle of "
                      << result.critical_cycle.size()
                      << " arcs, ratio infinite";
    if (obs::enabled()) detail::publish_howard_metrics(0);
    return result;
  }
  int total_iterations = 0;
  for (std::int32_t c = 0; c < sccs_.num_components; ++c) {
    int iters = 0;
    bool capped = false;
    const CycleRatioResult scc = solve_component(c, &iters, &capped);
    total_iterations += iters;
    if (capped) {
      ++stats_.cap_hits;
      if (obs::enabled()) SolverCounters::get().cap_hits.add();
    }
    fold_cycle_ratio(scc, &result);
  }
  stats_.iterations += total_iterations;
  if (obs::enabled()) {
    SolverCounters::get().iterations.add(total_iterations);
    detail::publish_howard_metrics(total_iterations);
  }
  ERMES_LOG(kDebug) << "howard(csr): converged after " << total_iterations
                    << " policy iterations over " << sccs_.num_components
                    << " SCCs";
  return result;
}

CycleRatioResult CycleMeanSolver::solve(const MarkedGraph& g) {
  prepare(g);
  return solve();
}

}  // namespace ermes::tmg
