// Tests for src/comp — the hierarchical composition layer and the
// SCC-partitioned incremental analysis engine:
//
//  * hierarchy IR + io::parse_soc_hier (extended .soc grammar) + flatten:
//    dotted names, deterministic elaboration order, bit-identity of a
//    flattened hierarchy against the same system hand-written flat
//    (fixed case + randomized property over generated hierarchies);
//  * analyze_partitioned: bit-identical reports vs the monolithic path with
//    fresh and warm solvers and vs the report memo, per-component
//    provenance and slack;
//  * IncrementalAnalyzer: patch-by-patch bit-identity against a cold
//    analysis of a mirror model for randomized patch sequences, patch
//    validation, dirty-tracking stats;
//  * hierarchical DOT export (SCC colors + cluster subgraphs) and the
//    hostile-input corpus for the hierarchical grammar.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/eval_cache.h"
#include "analysis/performance.h"
#include "analysis/tmg_builder.h"
#include "comp/flatten.h"
#include "comp/hierarchy.h"
#include "comp/incremental.h"
#include "comp/partition.h"
#include "graph/dot.h"
#include "graph/scc.h"
#include "io/soc_format.h"
#include "io/soc_hier.h"
#include "soc_bad_corpus.h"
#include "sysmodel/builder.h"
#include "sysmodel/system.h"
#include "tmg/csr.h"
#include "tmg/dot.h"
#include "util/rng.h"

namespace ermes::comp {
namespace {

using analysis::PerformanceReport;
using sysmodel::ChannelId;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

// Field-by-field exact comparison: the partitioned/incremental engines
// promise bit-identity with the monolithic path, so doubles are compared
// with ==, not a tolerance.
void expect_report_eq(const PerformanceReport& a, const PerformanceReport& b,
                      const std::string& what) {
  EXPECT_EQ(a.live, b.live) << what;
  EXPECT_EQ(a.dead_cycle, b.dead_cycle) << what;
  EXPECT_EQ(a.cycle_time, b.cycle_time) << what;
  EXPECT_EQ(a.ct_num, b.ct_num) << what;
  EXPECT_EQ(a.ct_den, b.ct_den) << what;
  EXPECT_EQ(a.throughput, b.throughput) << what;
  EXPECT_EQ(a.critical_processes, b.critical_processes) << what;
  EXPECT_EQ(a.critical_channels, b.critical_channels) << what;
  EXPECT_EQ(a.critical_places, b.critical_places) << what;
}

// The three-stage pipeline of examples/data/hier_pipeline.soc: three
// instances of a two-process bounded-channel stage (one SCC each), joined
// by unbounded feed-forward channels (which keep the stages decoupled).
std::string pipeline_text() {
  return "system hier_pipeline\n"
         "subsystem stage\n"
         "  port in din = head\n"
         "  port out dout = tail\n"
         "  process head latency 4\n"
         "  process tail latency 6\n"
         "  channel link head -> tail latency 1 capacity 2\n"
         "end\n"
         "process src latency 2\n"
         "process snk latency 1\n"
         "instance front stage\n"
         "instance mid stage\n"
         "instance back stage\n"
         "channel feed src -> front.din latency 1 capacity unbounded\n"
         "channel fm front.dout -> mid.din latency 1 capacity unbounded\n"
         "channel mb mid.dout -> back.din latency 1 capacity unbounded\n"
         "channel out back.dout -> snk latency 1 capacity unbounded\n";
}

SystemModel pipeline_flat() {
  const io::ParseResult parsed = io::parse_soc_flattened(pipeline_text());
  EXPECT_TRUE(parsed.ok) << parsed.error;
  return parsed.system;
}

// ---------------------------------------------------------------------------
// Parser

TEST(HierParse, ParsesSubsystemsPortsAndInstances) {
  const io::HierParseResult parsed = io::parse_soc_hier(pipeline_text());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.system_name, "hier_pipeline");
  ASSERT_EQ(parsed.hier.defs.size(), 1u);
  const SubsystemDef& stage = parsed.hier.defs[0];
  EXPECT_EQ(stage.name, "stage");
  ASSERT_EQ(stage.ports.size(), 2u);
  EXPECT_EQ(stage.ports[0].name, "din");
  EXPECT_TRUE(stage.ports[0].is_input);
  EXPECT_TRUE(stage.ports[0].binding.is_local());
  EXPECT_EQ(stage.ports[0].binding.name, "head");
  EXPECT_EQ(stage.ports[1].name, "dout");
  EXPECT_FALSE(stage.ports[1].is_input);
  ASSERT_EQ(stage.processes.size(), 2u);
  ASSERT_EQ(stage.channels.size(), 1u);
  EXPECT_EQ(stage.channels[0].capacity, 2);

  const SubsystemDef& top = parsed.hier.top;
  ASSERT_EQ(top.processes.size(), 2u);
  ASSERT_EQ(top.instances.size(), 3u);
  EXPECT_EQ(top.instances[0].name, "front");
  EXPECT_EQ(top.instances[0].subsystem, "stage");
  ASSERT_EQ(top.channels.size(), 4u);
  EXPECT_EQ(top.channels[0].capacity, sysmodel::kUnboundedCapacity);
  EXPECT_FALSE(top.channels[0].to.is_local());
  EXPECT_EQ(top.channels[0].to.instance, "front");
  EXPECT_EQ(top.channels[0].to.name, "din");
  // Declaration order interleaves processes and instances.
  ASSERT_EQ(top.items.size(), 5u);
  EXPECT_EQ(top.items[0].kind, SubsystemDef::Item::Kind::kProcess);
  EXPECT_EQ(top.items[2].kind, SubsystemDef::Item::Kind::kInstance);
}

TEST(HierParse, FlatDocumentsParseIdenticallyThroughTheHierEntry) {
  // The extended grammar is a strict superset: a flat document produces the
  // same model through parse_soc and parse_soc_flattened.
  const std::string flat = io::write_soc(
      sysmodel::make_dac14_motivating_example(), "dac14");
  const io::ParseResult direct = io::parse_soc(flat);
  const io::ParseResult via_hier = io::parse_soc_flattened(flat);
  ASSERT_TRUE(direct.ok) << direct.error;
  ASSERT_TRUE(via_hier.ok) << via_hier.error;
  EXPECT_EQ(io::write_soc(direct.system, "dac14"),
            io::write_soc(via_hier.system, "dac14"));
}

TEST(HierParse, UnboundedCapacityRoundTripsThroughWriteSoc) {
  SystemModel sys;
  const ProcessId a = sys.add_process("a", 1);
  const ProcessId b = sys.add_process("b", 2);
  const ChannelId c = sys.add_channel("ab", a, b, 0);
  sys.set_channel_capacity(c, sysmodel::kUnboundedCapacity);
  const std::string text = io::write_soc(sys, "u");
  EXPECT_NE(text.find("capacity unbounded"), std::string::npos);
  const io::ParseResult parsed = io::parse_soc(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.system.channel_capacity(0), sysmodel::kUnboundedCapacity);
}

// ---------------------------------------------------------------------------
// Flatten

TEST(Flatten, DottedNamesAndDeterministicOrder) {
  const SystemModel flat = pipeline_flat();
  ASSERT_EQ(flat.num_processes(), 8);
  ASSERT_EQ(flat.num_channels(), 7);
  // Processes in declaration order, instances macro-expanded in place.
  EXPECT_EQ(flat.process_name(0), "src");
  EXPECT_EQ(flat.process_name(1), "snk");
  EXPECT_EQ(flat.process_name(2), "front.head");
  EXPECT_EQ(flat.process_name(3), "front.tail");
  EXPECT_EQ(flat.process_name(6), "back.head");
  // Inner channels come before the declaring scope's own channels.
  EXPECT_EQ(flat.channel_name(0), "front.link");
  EXPECT_EQ(flat.channel_name(2), "back.link");
  EXPECT_EQ(flat.channel_name(3), "feed");
  EXPECT_EQ(flat.channel_capacity(0), 2);
  EXPECT_EQ(flat.channel_capacity(3), sysmodel::kUnboundedCapacity);
  // Port bindings resolve to the bound internal processes.
  const ChannelId feed = flat.find_channel("feed");
  EXPECT_EQ(flat.channel_source(feed), flat.find_process("src"));
  EXPECT_EQ(flat.channel_target(feed), flat.find_process("front.head"));
  const ChannelId fm = flat.find_channel("fm");
  EXPECT_EQ(flat.channel_source(fm), flat.find_process("front.tail"));
  EXPECT_EQ(flat.channel_target(fm), flat.find_process("mid.head"));
}

TEST(Flatten, IsDeterministicAcrossRepeats) {
  const io::HierParseResult parsed = io::parse_soc_hier(pipeline_text());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const FlattenResult once = flatten(parsed.hier);
  const FlattenResult twice = flatten(parsed.hier);
  ASSERT_TRUE(once.ok) << once.error;
  ASSERT_TRUE(twice.ok) << twice.error;
  EXPECT_EQ(io::write_soc(once.system, "x"), io::write_soc(twice.system, "x"));
}

TEST(Flatten, MatchesHandFlattenedPipeline) {
  // The same system written out flat by hand, following the documented
  // elaboration order. write_soc covers names, ids, orders, latencies and
  // capacities; the analysis comparison covers everything the TMG sees.
  SystemModel hand;
  const ProcessId src = hand.add_process("src", 2);
  const ProcessId snk = hand.add_process("snk", 1);
  struct Stage {
    ProcessId head, tail;
  };
  std::vector<Stage> stages;
  for (const char* inst : {"front", "mid", "back"}) {
    Stage s;
    s.head = hand.add_process(std::string(inst) + ".head", 4);
    s.tail = hand.add_process(std::string(inst) + ".tail", 6);
    const ChannelId link =
        hand.add_channel(std::string(inst) + ".link", s.head, s.tail, 1);
    hand.set_channel_capacity(link, 2);
    stages.push_back(s);
  }
  const ChannelId feed = hand.add_channel("feed", src, stages[0].head, 1);
  const ChannelId fm =
      hand.add_channel("fm", stages[0].tail, stages[1].head, 1);
  const ChannelId mb =
      hand.add_channel("mb", stages[1].tail, stages[2].head, 1);
  const ChannelId out = hand.add_channel("out", stages[2].tail, snk, 1);
  for (const ChannelId c : {feed, fm, mb, out}) {
    hand.set_channel_capacity(c, sysmodel::kUnboundedCapacity);
  }

  const SystemModel flat = pipeline_flat();
  EXPECT_EQ(io::write_soc(flat, "x"), io::write_soc(hand, "x"));
  expect_report_eq(analysis::analyze_system(flat),
                   analysis::analyze_system(hand), "pipeline");
}

TEST(Flatten, DepthCapRejectsRunawayNesting) {
  const io::ParseResult deep = io::parse_soc_flattened(
      ermes::testing::deep_hier_soc(kMaxHierDepth + 4));
  EXPECT_FALSE(deep.ok);
  EXPECT_FALSE(deep.error.empty());
  EXPECT_NE(deep.error.find("deeper than"), std::string::npos) << deep.error;
  // Just inside the cap elaborates fine.
  const io::ParseResult ok = io::parse_soc_flattened(
      ermes::testing::deep_hier_soc(kMaxHierDepth - 1));
  EXPECT_TRUE(ok.ok) << ok.error;
}

TEST(Flatten, HostileHierCorpusIsRejectedStructurally) {
  for (const ermes::testing::BadSoc& bad : ermes::testing::bad_hier_corpus()) {
    const io::ParseResult parsed = io::parse_soc_flattened(bad.text);
    EXPECT_FALSE(parsed.ok) << bad.label;
    EXPECT_FALSE(parsed.error.empty()) << bad.label;
  }
  // The flat corpus stays rejected through the hierarchical entry too.
  for (const ermes::testing::BadSoc& bad : ermes::testing::bad_soc_corpus()) {
    const io::ParseResult parsed = io::parse_soc_flattened(bad.text);
    EXPECT_FALSE(parsed.ok) << bad.label;
    EXPECT_FALSE(parsed.error.empty()) << bad.label;
  }
}

TEST(Flatten, InstantiationCycleErrorNamesTheCycle) {
  const io::ParseResult parsed = io::parse_soc_flattened(
      "subsystem a\ninstance x b\nend\n"
      "subsystem b\ninstance y a\nend\n"
      "instance top a\n");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("cycle"), std::string::npos) << parsed.error;
  EXPECT_NE(parsed.error.find("a"), std::string::npos) << parsed.error;
  EXPECT_NE(parsed.error.find("b"), std::string::npos) << parsed.error;
}

// ---------------------------------------------------------------------------
// Randomized flatten-equivalence property

// Generates a random two-level hierarchy together with an independently
// hand-flattened flat model of the same system. Definitions are linear
// chains of processes with bounded channels and an in/out port; the top
// scope interleaves local processes and instances and chains consecutive
// items with channels of random capacity (bounded, rendezvous, unbounded).
struct GeneratedPair {
  HierarchicalModel hier;
  SystemModel flat;
};

GeneratedPair random_hierarchy(util::Rng& rng) {
  GeneratedPair out;

  const int num_defs = static_cast<int>(rng.uniform_int(1, 3));
  std::vector<int> def_procs;
  struct DefImpl {
    sysmodel::ParetoSet set;
    std::size_t selected = 0;
    bool present = false;
  };
  std::vector<DefImpl> def_impls(static_cast<std::size_t>(num_defs));
  for (int d = 0; d < num_defs; ++d) {
    SubsystemDef def;
    def.name = "blk" + std::to_string(d);
    const int np = static_cast<int>(rng.uniform_int(1, 3));
    def_procs.push_back(np);
    for (int p = 0; p < np; ++p) {
      ProcessDecl decl;
      decl.name = "p" + std::to_string(p);
      decl.latency = rng.uniform_int(1, 9);
      decl.primed = rng.flip(0.25);
      def.add_process(decl);
    }
    for (int p = 0; p + 1 < np; ++p) {
      ChannelDecl chan;
      chan.name = "c" + std::to_string(p);
      chan.from = {"", "p" + std::to_string(p)};
      chan.to = {"", "p" + std::to_string(p + 1)};
      chan.latency = rng.uniform_int(0, 3);
      chan.capacity = rng.uniform_int(1, 3);
      def.channels.push_back(chan);
    }
    def.ports.push_back({"din", true, {"", "p0"}});
    def.ports.push_back({"dout", false, {"", "p" + std::to_string(np - 1)}});
    if (rng.flip(0.5)) {
      // Two impl rows for p0 with distinct latencies; mirror the flat
      // parser's finalize: group into a ParetoSet, restore the selection.
      DefImpl& mirror = def_impls[static_cast<std::size_t>(d)];
      mirror.present = true;
      const int selected_row = static_cast<int>(rng.uniform_int(0, 1));
      for (int k = 0; k < 2; ++k) {
        ImplDecl impl;
        impl.process = "p0";
        impl.impl.name = "v" + std::to_string(k);
        impl.impl.latency = (k + 1) * 4 + rng.uniform_int(0, 2);
        impl.impl.area = static_cast<double>(2 - k);
        impl.selected = k == selected_row;
        mirror.set.add(impl.impl);
        def.impls.push_back(impl);
      }
      mirror.selected =
          mirror.set.find(def.impls[def.impls.size() -
                                    (selected_row == 0 ? 2u : 1u)]
                              .impl);
    }
    out.hier.defs.push_back(std::move(def));
  }

  // Top scope: a chain of 2..5 items, each a local process or an instance.
  const int num_items = static_cast<int>(rng.uniform_int(2, 5));
  struct TopItem {
    bool is_instance = false;
    int def = 0;                  // when instance
    Endpoint hier_in, hier_out;   // endpoints as the hier model names them
    std::string flat_in, flat_out;  // the same endpoints in the flat model
  };
  std::vector<TopItem> items;
  struct ImplToApply {
    std::string process;
    int def = 0;
  };
  std::vector<ImplToApply> impls_to_apply;
  for (int i = 0; i < num_items; ++i) {
    TopItem item;
    item.is_instance = rng.flip(0.6);
    const std::string name =
        (item.is_instance ? "u" : "t") + std::to_string(i);
    if (item.is_instance) {
      item.def = static_cast<int>(rng.uniform_int(0, num_defs - 1));
      out.hier.top.add_instance({name, "blk" + std::to_string(item.def)});
      item.hier_in = {name, "din"};
      item.hier_out = {name, "dout"};
      item.flat_in = name + ".p0";
      item.flat_out =
          name + ".p" +
          std::to_string(def_procs[static_cast<std::size_t>(item.def)] - 1);
      // Hand-flatten the instance body in place.
      const SubsystemDef& def =
          out.hier.defs[static_cast<std::size_t>(item.def)];
      for (const ProcessDecl& p : def.processes) {
        const ProcessId id =
            out.flat.add_process(name + "." + p.name, p.latency);
        out.flat.set_primed(id, p.primed);
      }
      for (const ChannelDecl& c : def.channels) {
        const ChannelId id = out.flat.add_channel(
            name + "." + c.name, out.flat.find_process(name + "." + c.from.name),
            out.flat.find_process(name + "." + c.to.name), c.latency);
        out.flat.set_channel_capacity(id, c.capacity);
      }
      if (def_impls[static_cast<std::size_t>(item.def)].present) {
        impls_to_apply.push_back({name + ".p0", item.def});
      }
    } else {
      ProcessDecl decl;
      decl.name = name;
      decl.latency = rng.uniform_int(1, 9);
      decl.primed = rng.flip(0.25);
      out.hier.top.add_process(decl);
      const ProcessId id = out.flat.add_process(name, decl.latency);
      out.flat.set_primed(id, decl.primed);
      item.hier_in = item.hier_out = {"", name};
      item.flat_in = item.flat_out = name;
    }
    items.push_back(std::move(item));
  }

  // Chain consecutive items; channels are added after the top scope's items.
  for (int i = 0; i + 1 < num_items; ++i) {
    ChannelDecl chan;
    chan.name = "tc" + std::to_string(i);
    chan.from = items[static_cast<std::size_t>(i)].hier_out;
    chan.to = items[static_cast<std::size_t>(i + 1)].hier_in;
    chan.latency = rng.uniform_int(0, 3);
    const std::int64_t caps[] = {0, 1, 2, sysmodel::kUnboundedCapacity};
    chan.capacity = caps[rng.index(4)];
    out.hier.top.channels.push_back(chan);
    const ChannelId id = out.flat.add_channel(
        chan.name,
        out.flat.find_process(items[static_cast<std::size_t>(i)].flat_out),
        out.flat.find_process(items[static_cast<std::size_t>(i + 1)].flat_in),
        chan.latency);
    out.flat.set_channel_capacity(id, chan.capacity);
  }

  // Impl sets are applied at the end (order across processes is irrelevant:
  // set_implementations is per-process).
  for (const ImplToApply& apply : impls_to_apply) {
    const DefImpl& mirror = def_impls[static_cast<std::size_t>(apply.def)];
    out.flat.set_implementations(out.flat.find_process(apply.process),
                                 mirror.set, mirror.selected);
  }
  return out;
}

TEST(FlattenProperty, RandomHierarchiesMatchHandFlattening) {
  constexpr int kIterations = 40;
  for (int iter = 0; iter < kIterations; ++iter) {
    util::Rng rng = util::Rng::for_shard(0xf1a77e4, static_cast<std::uint64_t>(iter));
    const GeneratedPair gen = random_hierarchy(rng);
    const FlattenResult flattened = flatten(gen.hier);
    ASSERT_TRUE(flattened.ok) << "iter " << iter << ": " << flattened.error;
    EXPECT_EQ(io::write_soc(flattened.system, "x"),
              io::write_soc(gen.flat, "x"))
        << "iter " << iter;
    expect_report_eq(analysis::analyze_system(flattened.system),
                     analysis::analyze_system(gen.flat),
                     "iter " + std::to_string(iter));
  }
}

// ---------------------------------------------------------------------------
// Partitioned analysis

TEST(Partitioned, BitIdenticalToMonolithicAtEverySetting) {
  std::vector<SystemModel> systems;
  systems.push_back(sysmodel::make_dac14_motivating_example());
  systems.push_back(pipeline_flat());
  for (int iter = 0; iter < 10; ++iter) {
    util::Rng rng = util::Rng::for_shard(0x9a97, static_cast<std::uint64_t>(iter));
    systems.push_back(random_hierarchy(rng).flat);
  }
  tmg::CycleMeanSolver shared;  // one solver across every system, in turn
  for (std::size_t i = 0; i < systems.size(); ++i) {
    const SystemModel& sys = systems[i];
    const PerformanceReport mono = analysis::analyze_system(sys);
    const std::string what = "system " + std::to_string(i);
    tmg::CycleMeanSolver fresh;
    const PartitionedReport cold = analyze_partitioned(sys, fresh);
    expect_report_eq(cold.report, mono, what + " fresh solver");
    EXPECT_EQ(cold.solved, static_cast<int>(cold.sccs.size())) << what;
    expect_report_eq(analyze_partitioned(sys, shared).report, mono,
                     what + " shared solver");
  }
}

TEST(Partitioned, CsrSolverBitIdenticalWarmAndAcrossCache) {
  // A caller-owned solver in analyze_partitioned: warm re-prepares on
  // repeated solves, and agreement with the report memo, whose entries do
  // not depend on the solver that computed them.
  std::vector<SystemModel> systems;
  systems.push_back(sysmodel::make_dac14_motivating_example());
  systems.push_back(pipeline_flat());
  for (int iter = 0; iter < 6; ++iter) {
    util::Rng rng = util::Rng::for_shard(0xc5a, static_cast<std::uint64_t>(iter));
    systems.push_back(random_hierarchy(rng).flat);
  }
  tmg::CycleMeanSolver solver;
  for (std::size_t i = 0; i < systems.size(); ++i) {
    const SystemModel& sys = systems[i];
    const PerformanceReport mono = analysis::analyze_system(sys);
    const std::string what = "system " + std::to_string(i);
    expect_report_eq(analyze_partitioned(sys, solver).report, mono,
                     what + " +solver");
    // Same structure again: the solver must stay warm (weight refresh, no
    // recompile) and still reproduce the report bit for bit.
    const std::int64_t compiles = solver.stats().compiles;
    expect_report_eq(analyze_partitioned(sys, solver).report, mono,
                     what + " +solver warm");
    EXPECT_EQ(solver.stats().compiles, compiles) << what;
  }
  EXPECT_GT(solver.stats().weight_refreshes, 0);

  // A report memoized through one solver is served to a caller holding
  // another, and equals the partitioned report.
  analysis::EvalCache cache;
  tmg::CycleMeanSolver other;
  const SystemModel& sys = systems[0];
  const PerformanceReport mono = analysis::analyze_system(sys);
  expect_report_eq(cache.analyze(sys, other), mono, "memo cold");
  expect_report_eq(cache.analyze(sys, solver), mono, "memo replay");
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);
  expect_report_eq(analyze_partitioned(sys, solver).report,
                   cache.analyze(sys, other), "partitioned vs memo");
}

TEST(Partitioned, ProvenanceOnTheDecoupledPipeline) {
  const SystemModel flat = pipeline_flat();
  tmg::CycleMeanSolver solver;
  const PartitionedReport part = analyze_partitioned(flat, solver);
  ASSERT_TRUE(part.report.live);
  // Each stage is its own SCC (bounded internal channel); the unbounded
  // joins keep src, snk, and the three stages in five separate components.
  EXPECT_EQ(part.sccs.size(), 5u);
  ASSERT_GE(part.critical_scc, 0);
  const SccInfo& critical =
      part.sccs[static_cast<std::size_t>(part.critical_scc)];
  // All three stages tie at ratio (4+6+1)/1 = 11... with capacity 2 the
  // stage ring carries 2 tokens on the space place; the exact value is
  // whatever the monolithic solver reports — pin the invariants instead:
  EXPECT_EQ(critical.slack, 0.0);
  EXPECT_EQ(critical.cycle_ratio, part.report.cycle_time);
  for (const SccInfo& scc : part.sccs) {
    EXPECT_GE(scc.slack, 0.0);
    if (scc.has_cycle) {
      EXPECT_EQ(scc.slack, part.report.cycle_time - scc.cycle_ratio);
      EXPECT_LE(scc.cycle_ratio, part.report.cycle_time);
    }
  }
  // The critical component is one of the stages; the report's critical
  // processes (those on the witness cycle) are a subset of the component's
  // processes — the cycle need not touch every process in its SCC.
  ASSERT_EQ(critical.processes.size(), 2u);
  const std::string head = flat.process_name(critical.processes[0]);
  EXPECT_NE(head.find(".head"), std::string::npos) << head;
  ASSERT_FALSE(part.report.critical_processes.empty());
  for (const ProcessId p : part.report.critical_processes) {
    EXPECT_NE(std::find(critical.processes.begin(), critical.processes.end(),
                        p),
              critical.processes.end())
        << flat.process_name(p);
  }
  // src and snk sit in their own trivial (but cyclic: process ring)
  // components, strictly slower than the stages.
  bool found_src = false;
  for (const SccInfo& scc : part.sccs) {
    for (const ProcessId p : scc.processes) {
      if (flat.process_name(p) == "src") {
        found_src = true;
        EXPECT_GT(scc.slack, 0.0);
        EXPECT_NE(&scc, &critical);
      }
    }
  }
  EXPECT_TRUE(found_src);
}

// ---------------------------------------------------------------------------
// Incremental sessions

TEST(Incremental, ColdAnalysisMatchesMonolithic) {
  IncrementalAnalyzer inc(pipeline_flat());
  expect_report_eq(inc.analyze().report,
                   analysis::analyze_system(pipeline_flat()), "cold");
  EXPECT_EQ(inc.stats().analyses, 1);
  EXPECT_EQ(inc.stats().structure_rebuilds, 1);
}

TEST(Incremental, LatencyPatchesRecomputeOnlyDirtyComponents) {
  SystemModel mirror = pipeline_flat();
  IncrementalAnalyzer inc(pipeline_flat());
  inc.analyze();

  const ProcessId mid_head = mirror.find_process("mid.head");
  ASSERT_TRUE(inc.set_latency(mid_head, 9));
  mirror.set_latency(mid_head, 9);
  expect_report_eq(inc.analyze().report, analysis::analyze_system(mirror),
                   "after latency patch");
  // Only mid's component was dirtied; the other components were clean.
  EXPECT_EQ(inc.stats().structure_rebuilds, 1);
  EXPECT_GE(inc.stats().sccs_clean, 3);

  const ChannelId fm = mirror.find_channel("fm");
  ASSERT_TRUE(inc.set_channel_latency(fm, 5));
  mirror.set_channel_latency(fm, 5);
  expect_report_eq(inc.analyze().report, analysis::analyze_system(mirror),
                   "after channel-latency patch");
  EXPECT_EQ(inc.stats().structure_rebuilds, 1);
}

TEST(Incremental, RetargetForcesAStructureRebuild) {
  SystemModel mirror = pipeline_flat();
  IncrementalAnalyzer inc(pipeline_flat());
  inc.analyze();
  const ChannelId out = mirror.find_channel("out");
  const ProcessId src = mirror.find_process("src");
  ASSERT_TRUE(inc.retarget_channel(out, src));
  mirror.retarget_channel(out, src);
  expect_report_eq(inc.analyze().report, analysis::analyze_system(mirror),
                   "after retarget");
  EXPECT_EQ(inc.stats().structure_rebuilds, 2);
}

TEST(Incremental, SelectImplementationPatch) {
  // The motivating example ships without Pareto sets; attach one so the
  // select patch has something to pick from.
  SystemModel mirror = sysmodel::make_dac14_motivating_example();
  const ProcessId with_impls = 0;
  sysmodel::ParetoSet set;
  set.add({"fast", mirror.latency(with_impls), 4.0});
  set.add({"slow", mirror.latency(with_impls) + 25, 1.0});
  mirror.set_implementations(with_impls, set, 0);
  SystemModel seed = mirror;
  IncrementalAnalyzer inc(seed);
  inc.analyze();
  ASSERT_GT(mirror.implementations(with_impls).size(), 1u);
  const std::size_t pick = mirror.implementations(with_impls).size() - 1;
  ASSERT_TRUE(inc.select_implementation(with_impls, pick));
  mirror.select_implementation(with_impls, pick);
  expect_report_eq(inc.analyze().report, analysis::analyze_system(mirror),
                   "after select");
  // A rejected out-of-range pick leaves the selection alone.
  EXPECT_FALSE(inc.select_implementation(with_impls, 99));
  expect_report_eq(inc.analyze().report, analysis::analyze_system(mirror),
                   "after rejected select");
}

TEST(Incremental, InvalidPatchesAreRejectedWithoutSideEffects) {
  IncrementalAnalyzer inc(pipeline_flat());
  const PerformanceReport before = inc.analyze().report;
  std::string error;
  EXPECT_FALSE(inc.set_latency(sysmodel::kInvalidProcess, 3, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(inc.set_latency(999, 3, &error));
  EXPECT_FALSE(inc.set_latency(0, -1, &error));
  EXPECT_FALSE(inc.set_channel_latency(999, 1, &error));
  EXPECT_FALSE(inc.set_channel_latency(0, -2, &error));
  EXPECT_FALSE(inc.select_implementation(0, 99, &error));
  EXPECT_FALSE(inc.retarget_channel(999, 0, &error));
  EXPECT_FALSE(inc.retarget_channel(0, 999, &error));
  expect_report_eq(inc.analyze().report, before,
                   "rejected patches must not perturb the analysis");
}

TEST(IncrementalProperty, RandomPatchSequencesMatchColdAnalysis) {
  constexpr int kSystems = 8;
  constexpr int kPatches = 12;
  for (int s = 0; s < kSystems; ++s) {
    util::Rng rng = util::Rng::for_shard(0x1ac4e5, static_cast<std::uint64_t>(s));
    SystemModel mirror = random_hierarchy(rng).flat;
    IncrementalAnalyzer inc(mirror);
    expect_report_eq(inc.analyze().report, analysis::analyze_system(mirror),
                     "system " + std::to_string(s) + " cold");
    for (int k = 0; k < kPatches; ++k) {
      const std::string what =
          "system " + std::to_string(s) + " patch " + std::to_string(k);
      switch (rng.uniform_int(0, 3)) {
        case 0: {
          const auto p =
              static_cast<ProcessId>(rng.index(
                  static_cast<std::size_t>(mirror.num_processes())));
          const std::int64_t latency = rng.uniform_int(1, 9);
          ASSERT_TRUE(inc.set_latency(p, latency)) << what;
          mirror.set_latency(p, latency);
          break;
        }
        case 1: {
          const auto c =
              static_cast<ChannelId>(rng.index(
                  static_cast<std::size_t>(mirror.num_channels())));
          const std::int64_t latency = rng.uniform_int(0, 4);
          ASSERT_TRUE(inc.set_channel_latency(c, latency)) << what;
          mirror.set_channel_latency(c, latency);
          break;
        }
        case 2: {
          ProcessId with_impls = sysmodel::kInvalidProcess;
          for (ProcessId p = 0; p < mirror.num_processes(); ++p) {
            if (mirror.has_implementations(p)) with_impls = p;
          }
          if (with_impls == sysmodel::kInvalidProcess) continue;
          const std::size_t pick =
              rng.index(mirror.implementations(with_impls).size());
          ASSERT_TRUE(inc.select_implementation(with_impls, pick)) << what;
          mirror.select_implementation(with_impls, pick);
          break;
        }
        default: {
          const auto c =
              static_cast<ChannelId>(rng.index(
                  static_cast<std::size_t>(mirror.num_channels())));
          const auto target =
              static_cast<ProcessId>(rng.index(
                  static_cast<std::size_t>(mirror.num_processes())));
          std::string error;
          if (inc.retarget_channel(c, target, &error)) {
            mirror.retarget_channel(c, target);
          }
          break;
        }
      }
      expect_report_eq(inc.analyze().report, analysis::analyze_system(mirror),
                       what);
    }
    EXPECT_EQ(inc.stats().patches + 1, inc.stats().analyses)
        << "one analyze per patch plus the cold one";
  }
}

// ---------------------------------------------------------------------------
// DOT export

TEST(HierDot, SccColorsAndClusterSubgraphs) {
  const SystemModel flat = pipeline_flat();
  const analysis::SystemTmg stmg = analysis::build_tmg(flat);

  tmg::TmgDotOptions options;
  options.color_sccs = true;
  options.transition_cluster = [&](tmg::TransitionId t) -> std::string {
    // Transition names look like "L_front.head" / "ch_front.link": the
    // instance path sits between the role prefix and the first dot.
    const std::string name = analysis::transition_name(flat, stmg, t);
    const std::size_t us = name.find('_');
    const std::string rest =
        us == std::string::npos ? name : name.substr(us + 1);
    const std::size_t dot = rest.find('.');
    return dot == std::string::npos ? std::string() : rest.substr(0, dot);
  };
  const std::string dot = to_dot(stmg.graph, options);
  EXPECT_NE(dot.find("subgraph \"cluster_front\""), std::string::npos) << dot;
  EXPECT_NE(dot.find("subgraph \"cluster_mid\""), std::string::npos);
  EXPECT_NE(dot.find("subgraph \"cluster_back\""), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=\"#"), std::string::npos);
  EXPECT_NE(dot.find(graph::scc_palette(0)), std::string::npos);

  // Default options: no SCC colors (the lightgrey token fill predates v2
  // and stays), no clusters.
  EXPECT_EQ(to_dot(stmg.graph).find("cluster_"), std::string::npos);
  EXPECT_EQ(to_dot(stmg.graph).find("fillcolor=\"#"), std::string::npos);
}

TEST(HierDot, PaletteCyclesAndHandlesSentinels) {
  EXPECT_EQ(graph::scc_palette(-1), "white");
  EXPECT_EQ(graph::scc_palette(0), graph::scc_palette(12));
  EXPECT_NE(graph::scc_palette(0), graph::scc_palette(1));
}

}  // namespace
}  // namespace ermes::comp
