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

using graph::ArcId;
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
  obs::Counter& seeded_solves;
  obs::Counter& iterations;
  obs::Counter& cap_hits;

  static SolverCounters& get() {
    static SolverCounters counters{
        obs::Registry::global().counter("tmg.solver.compiles"),
        obs::Registry::global().counter("tmg.solver.weight_refreshes"),
        obs::Registry::global().counter("tmg.solver.solves"),
        obs::Registry::global().counter("tmg.solver.seeded_solves"),
        obs::Registry::global().counter("tmg.solver.iterations"),
        obs::Registry::global().counter("tmg.solver.cap_hits")};
    return counters;
  }
};

// Howard policy iteration on one strongly connected component of the CSR
// view. It mirrors the reference oracle's SccSolver (howard.cpp) line for
// line: same member iteration order, same slot (== out_arcs) order, same
// floating-point expressions and 1e-9 epsilon — so given the same initial
// policy it follows the identical trajectory and reports bit-identical
// results. The only differences are representation (slots instead of
// ArcIds, workspace-owned scratch instead of per-solve assigns) and the
// externally supplied seed policy.
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
  // must hold a valid internal slot — the canonical init_slot_ plan or a
  // remembered optimal policy both satisfy this for multi-node SCCs).
  bool solve(const std::vector<std::int32_t>& seed_policy,
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
      if (!evaluate()) {
        // Zero-token cycle: infinite ratio (deadlocked TMG). Unreachable
        // after the compile-time zero-token screen, kept to mirror the
        // oracle exactly.
        out.has_cycle = true;
        out.ratio = std::numeric_limits<double>::infinity();
        out.ratio_num = best_w_;
        out.ratio_den = 0;
        copy_best_cycle(out);
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
      copy_best_cycle(out);
    }
    return true;
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
  // policy graph, assigns lambda (cycle ratio) and node values. Returns false
  // on a zero-token cycle (records it as the best cycle).
  bool evaluate() {
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
        if (!settle_cycle(u)) return false;
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
    return true;
  }

  // Handles the cycle formed by the suffix of ws_.walk starting at `root`.
  bool settle_cycle(NodeId root) {
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
    if (t_sum == 0) {
      best_w_ = w_sum;
      best_t_ = 0;
      ws_.best_cycle.swap(ws_.cycle);
      return false;
    }
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
    return true;
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

// Port of cycle_ratio.cpp's find_zero_token_cycle onto the CSR view: same
// root order (0..n-1), same out-arc (slot) order, so the reported witness is
// the one the oracle's global screen finds.
bool csr_zero_token_cycle(const CsrGraph& csr, std::vector<ArcId>* cycle) {
  enum class Color : unsigned char { kWhite, kGray, kBlack };
  const auto n = static_cast<std::size_t>(csr.num_nodes);
  std::vector<Color> color(n, Color::kWhite);
  struct Frame {
    NodeId node;
    std::size_t next;  // absolute slot cursor
    ArcId via;
  };
  std::vector<Frame> stack;
  for (NodeId root = 0; root < csr.num_nodes; ++root) {
    if (color[static_cast<std::size_t>(root)] != Color::kWhite) continue;
    color[static_cast<std::size_t>(root)] = Color::kGray;
    stack.clear();
    stack.push_back(
        {root,
         static_cast<std::size_t>(csr.row_ptr[static_cast<std::size_t>(root)]),
         graph::kInvalidArc});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto row_end = static_cast<std::size_t>(
          csr.row_ptr[static_cast<std::size_t>(frame.node) + 1]);
      bool descended = false;
      while (frame.next < row_end) {
        const std::size_t s = frame.next++;
        if (csr.slot_tokens[s] != 0) continue;
        const NodeId w = csr.slot_head[s];
        const auto wi = static_cast<std::size_t>(w);
        if (color[wi] == Color::kWhite) {
          color[wi] = Color::kGray;
          stack.push_back({w, static_cast<std::size_t>(csr.row_ptr[wi]),
                           csr.slot_arc[s]});
          descended = true;
          break;
        }
        if (color[wi] == Color::kGray) {
          if (cycle != nullptr) {
            std::vector<ArcId> found;
            for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
              if (it->node == w) break;
              found.push_back(it->via);
            }
            std::reverse(found.begin(), found.end());
            found.push_back(csr.slot_arc[s]);
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

// Port of howard.cpp's find_zero_token_cycle_in_scc onto the CSR view (same
// member order, same slot order => same witness). `color`/`via` are shared
// across the per-component calls of one compile: each component's DFS only
// touches its own members, so no reset is needed between calls.
bool csr_zero_token_cycle_in_scc(const CsrGraph& csr,
                                 const std::vector<std::int32_t>& comp_of,
                                 std::int32_t comp_id,
                                 const std::vector<NodeId>& members,
                                 std::vector<char>& color,
                                 std::vector<ArcId>& via,
                                 std::vector<ArcId>* cycle) {
  struct Frame {
    NodeId node;
    std::size_t next;  // absolute slot cursor
  };
  std::vector<Frame> stack;
  for (const NodeId start : members) {
    if (color[static_cast<std::size_t>(start)] != 0) continue;
    stack.push_back(
        {start, static_cast<std::size_t>(
                    csr.row_ptr[static_cast<std::size_t>(start)])});
    color[static_cast<std::size_t>(start)] = 1;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto row_end = static_cast<std::size_t>(
          csr.row_ptr[static_cast<std::size_t>(frame.node) + 1]);
      if (frame.next >= row_end) {
        color[static_cast<std::size_t>(frame.node)] = 2;
        stack.pop_back();
        continue;
      }
      const std::size_t s = frame.next++;
      if (csr.slot_tokens[s] != 0) continue;
      const NodeId next = csr.slot_head[s];
      if (comp_of[static_cast<std::size_t>(next)] != comp_id) continue;
      const auto ni = static_cast<std::size_t>(next);
      if (color[ni] == 1) {
        // Back arc: the gray-stack suffix starting at `next`, plus this arc,
        // closes a token-free cycle.
        if (cycle != nullptr) {
          cycle->clear();
          std::size_t pos = stack.size();
          while (pos > 0 && stack[pos - 1].node != next) --pos;
          for (std::size_t i = pos; i < stack.size(); ++i) {
            cycle->push_back(via[static_cast<std::size_t>(stack[i].node)]);
          }
          cycle->push_back(csr.slot_arc[s]);
        }
        return true;
      }
      if (color[ni] == 0) {
        color[ni] = 1;
        via[ni] = csr.slot_arc[s];
        stack.push_back({next, static_cast<std::size_t>(csr.row_ptr[ni])});
      }
    }
  }
  return false;
}

std::atomic<int> g_iteration_cap_override{0};

}  // namespace

void set_howard_iteration_cap_for_testing(int cap) {
  g_iteration_cap_override.store(cap, std::memory_order_relaxed);
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

void CsrGraph::compile(const RatioGraph& rg) {
  num_nodes = rg.g.num_nodes();
  num_arcs = rg.g.num_arcs();
  const auto n = static_cast<std::size_t>(num_nodes);
  const auto m = static_cast<std::size_t>(num_arcs);
  arc_tail.resize(m);
  arc_head.resize(m);
  arc_tokens.resize(m);
  arc_slot.resize(m);
  row_ptr.assign(n + 1, 0);
  slot_arc.resize(m);
  slot_head.resize(m);
  slot_weight.resize(m);
  slot_tokens.resize(m);
  for (ArcId a = 0; a < num_arcs; ++a) {
    const auto ai = static_cast<std::size_t>(a);
    arc_tail[ai] = rg.g.tail(a);
    arc_head[ai] = rg.g.head(a);
    arc_tokens[ai] = rg.arc_tokens(a);
  }
  std::int32_t s = 0;
  for (NodeId u = 0; u < num_nodes; ++u) {
    row_ptr[static_cast<std::size_t>(u)] = s;
    for (const ArcId a : rg.g.out_arcs(u)) {
      const auto si = static_cast<std::size_t>(s);
      slot_arc[si] = a;
      slot_head[si] = rg.g.head(a);
      slot_weight[si] = rg.arc_weight(a);
      slot_tokens[si] = rg.arc_tokens(a);
      arc_slot[static_cast<std::size_t>(a)] = s;
      ++s;
    }
  }
  row_ptr[n] = s;
  assert(s == num_arcs);
}

void CsrGraph::compile(const MarkedGraph& g) {
  // Mirrors compile(to_ratio_graph(g)) without materializing the Digraph:
  // transition_graph adds one arc per place in PlaceId order, so per-node
  // out_arcs order equals out_places order and arc ids equal PlaceIds.
  num_nodes = g.num_transitions();
  num_arcs = g.num_places();
  const auto n = static_cast<std::size_t>(num_nodes);
  const auto m = static_cast<std::size_t>(num_arcs);
  arc_tail.resize(m);
  arc_head.resize(m);
  arc_tokens.resize(m);
  arc_slot.resize(m);
  row_ptr.assign(n + 1, 0);
  slot_arc.resize(m);
  slot_head.resize(m);
  slot_weight.resize(m);
  slot_tokens.resize(m);
  for (PlaceId p = 0; p < num_arcs; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    arc_tail[pi] = g.producer(p);
    arc_head[pi] = g.consumer(p);
    arc_tokens[pi] = g.tokens(p);
  }
  std::int32_t s = 0;
  for (TransitionId t = 0; t < num_nodes; ++t) {
    row_ptr[static_cast<std::size_t>(t)] = s;
    const std::int64_t delay = g.delay(t);
    for (const PlaceId p : g.out_places(t)) {
      const auto si = static_cast<std::size_t>(s);
      slot_arc[si] = p;
      slot_head[si] = g.consumer(p);
      slot_weight[si] = delay;
      slot_tokens[si] = g.tokens(p);
      arc_slot[static_cast<std::size_t>(p)] = s;
      ++s;
    }
  }
  row_ptr[n] = s;
  assert(s == num_arcs);
}

bool CsrGraph::matches(const RatioGraph& rg) const {
  if (rg.g.num_nodes() != num_nodes || rg.g.num_arcs() != num_arcs) {
    return false;
  }
  for (ArcId a = 0; a < num_arcs; ++a) {
    const auto ai = static_cast<std::size_t>(a);
    if (arc_tail[ai] != rg.g.tail(a) || arc_head[ai] != rg.g.head(a) ||
        arc_tokens[ai] != rg.arc_tokens(a)) {
      return false;
    }
  }
  return true;
}

bool CsrGraph::matches(const MarkedGraph& g) const {
  if (g.num_transitions() != num_nodes || g.num_places() != num_arcs) {
    return false;
  }
  for (PlaceId p = 0; p < num_arcs; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    if (arc_tail[pi] != g.producer(p) || arc_head[pi] != g.consumer(p) ||
        arc_tokens[pi] != g.tokens(p)) {
      return false;
    }
  }
  return true;
}

void CsrGraph::refresh_weights(const RatioGraph& rg) {
  for (ArcId a = 0; a < num_arcs; ++a) {
    set_arc_weight(a, rg.arc_weight(a));
  }
}

void CsrGraph::refresh_weights(const MarkedGraph& g) {
  for (PlaceId p = 0; p < num_arcs; ++p) {
    set_arc_weight(p, g.delay(g.producer(p)));
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
  zero_witness_.clear();
  has_zero_witness_ = csr_zero_token_cycle(csr_, &zero_witness_);

  plans_.assign(static_cast<std::size_t>(sccs_.num_components), SccPlan{});
  plan_slots_.clear();
  plan_arcs_.clear();
  std::vector<char> color(n, 0);
  std::vector<ArcId> via(n, graph::kInvalidArc);
  std::vector<ArcId> zero_cycle;
  for (std::int32_t c = 0; c < sccs_.num_components; ++c) {
    SccPlan& plan = plans_[static_cast<std::size_t>(c)];
    const auto& members = sccs_.members[static_cast<std::size_t>(c)];
    zero_cycle.clear();
    if (csr_zero_token_cycle_in_scc(csr_, sccs_.component, c, members, color,
                                    via, &zero_cycle)) {
      plan.kind = SccKind::kZeroToken;
      plan.begin = static_cast<std::int32_t>(plan_arcs_.size());
      plan_arcs_.insert(plan_arcs_.end(), zero_cycle.begin(), zero_cycle.end());
      plan.end = static_cast<std::int32_t>(plan_arcs_.size());
    } else if (members.size() == 1) {
      plan.kind = SccKind::kTrivial;
      plan.begin = static_cast<std::int32_t>(plan_slots_.size());
      const NodeId u = members.front();
      const auto ui = static_cast<std::size_t>(u);
      for (std::int32_t s = csr_.row_ptr[ui]; s < csr_.row_ptr[ui + 1]; ++s) {
        if (csr_.slot_head[static_cast<std::size_t>(s)] == u) {
          plan_slots_.push_back(s);
        }
      }
      plan.end = static_cast<std::int32_t>(plan_slots_.size());
    } else {
      plan.kind = SccKind::kHoward;
    }
  }

  last_policy_.assign(n, -1);
  have_last_policy_ = false;
}

bool CycleMeanSolver::prepare(const RatioGraph& rg) {
  if (prepared_ && csr_.matches(rg)) {
    csr_.refresh_weights(rg);
    ++stats_.weight_refreshes;
    if (obs::enabled()) SolverCounters::get().weight_refreshes.add();
    return true;
  }
  csr_.compile(rg);
  compile_plan();
  prepared_ = true;
  ++stats_.compiles;
  if (obs::enabled()) SolverCounters::get().compiles.add();
  return false;
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
  prepared_ = true;
  ++stats_.compiles;
  if (obs::enabled()) SolverCounters::get().compiles.add();
  return false;
}

CycleRatioResult CycleMeanSolver::solve_component_impl(
    std::int32_t comp_id, HowardWorkspace& ws, int* iterations, bool* capped,
    bool seeded) const {
  if (iterations != nullptr) *iterations = 0;
  if (capped != nullptr) *capped = false;
  CycleRatioResult result;
  const SccPlan& plan = plans_[static_cast<std::size_t>(comp_id)];
  const auto& members = sccs_.members[static_cast<std::size_t>(comp_id)];
  switch (plan.kind) {
    case SccKind::kZeroToken: {
      result.has_cycle = true;
      result.ratio = std::numeric_limits<double>::infinity();
      result.ratio_den = 0;
      result.critical_cycle.assign(
          plan_arcs_.begin() + plan.begin, plan_arcs_.begin() + plan.end);
      for (const ArcId a : result.critical_cycle) {
        result.ratio_num += csr_.arc_weight(a);
      }
      return result;
    }
    case SccKind::kTrivial: {
      // Single node: the only possible cycles are self-loops (all with
      // tokens — token-free ones were caught by the zero-token screen).
      // Exact max, first-wins on ties, in slot order.
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
    case SccKind::kHoward:
      break;
  }
  // Seeding is sound only when every member carries a remembered policy
  // (the structure is unchanged since it was recorded — recompiles reset
  // last_policy_); otherwise fall back to the canonical initial policy.
  bool use_seed = seeded;
  if (use_seed) {
    for (const NodeId u : members) {
      if (last_policy_[static_cast<std::size_t>(u)] < 0) {
        use_seed = false;
        break;
      }
    }
  }
  CsrSccSolver solver(csr_, sccs_.component, comp_id, members, ws);
  if (solver.solve(use_seed ? last_policy_ : init_slot_, result)) {
    if (iterations != nullptr) *iterations = solver.iterations();
    if (capped != nullptr) *capped = solver.capped();
  }
  return result;
}

CycleRatioResult CycleMeanSolver::solve_component(std::int32_t comp_id,
                                                  HowardWorkspace& ws,
                                                  int* iterations,
                                                  bool* capped) const {
  assert(prepared_);
  return solve_component_impl(comp_id, ws, iterations, capped,
                              /*seeded=*/false);
}

CycleRatioResult CycleMeanSolver::run(bool seeded) {
  assert(prepared_);
  obs::ObsSpan span("howard.solve", "tmg");
  if (seeded) {
    ++stats_.seeded_solves;
    if (obs::enabled()) SolverCounters::get().seeded_solves.add();
  } else {
    ++stats_.solves;
    if (obs::enabled()) SolverCounters::get().solves.add();
  }
  CycleRatioResult result;
  if (has_zero_witness_) {
    result.has_cycle = true;
    result.ratio = std::numeric_limits<double>::infinity();
    result.ratio_den = 0;
    for (const ArcId a : zero_witness_) {
      result.ratio_num += csr_.arc_weight(a);
    }
    result.critical_cycle = zero_witness_;
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
    const CycleRatioResult scc =
        solve_component_impl(c, ws_, &iters, &capped, seeded);
    total_iterations += iters;
    if (capped) {
      ++stats_.cap_hits;
      if (obs::enabled()) SolverCounters::get().cap_hits.add();
    }
    // Remember this component's final policy as the seed for the next
    // warm-started solve (only Howard components run policy iteration).
    if (plans_[static_cast<std::size_t>(c)].kind == SccKind::kHoward) {
      for (const NodeId u : sccs_.members[static_cast<std::size_t>(c)]) {
        last_policy_[static_cast<std::size_t>(u)] =
            ws_.policy[static_cast<std::size_t>(u)];
      }
    }
    fold_cycle_ratio(scc, &result);
    if (result.is_infinite()) break;  // deadlock dominates
  }
  have_last_policy_ = true;
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

CycleRatioResult CycleMeanSolver::solve() { return run(/*seeded=*/false); }

CycleRatioResult CycleMeanSolver::solve_seeded() {
  return run(/*seeded=*/true);
}

CycleRatioResult CycleMeanSolver::solve(const RatioGraph& rg) {
  prepare(rg);
  return solve();
}

CycleRatioResult CycleMeanSolver::solve(const MarkedGraph& g) {
  prepare(g);
  return solve();
}

}  // namespace ermes::tmg
