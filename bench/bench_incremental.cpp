// Incremental re-analysis benchmark (comp::IncrementalAnalyzer).
//
// Workload: a chain of B primed, bounded-channel rings ("blocks") joined by
// unbounded channels. Each ring is one SCC of the ratio graph; the unbounded
// joins decouple them, so a latency patch inside one block dirties exactly
// 1 of B components. A rotating patch sequence then compares:
//
//   cold:        mirror model + full analysis::analyze_system per patch
//                (the pre-subsystem path: re-elaborate, re-partition,
//                re-solve every component);
//   incremental: one IncrementalAnalyzer session absorbing the same patches
//                (only the dirtied component re-runs Howard).
//
// Every step asserts bit-identity of the incremental report against the
// cold one; the run fails on any mismatch, and (outside --smoke) when the
// speedup falls below 5x — the ISSUE's floor for a 1-of-8-SCC dirty patch.
//
// Flags: --smoke (tiny rings, used as the bench-smoke CTest entry),
// --blocks N, --ring N, --steps N, --out path (default
// BENCH_incremental.json).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/performance.h"
#include "comp/incremental.h"
#include "svc/json.h"
#include "sysmodel/system.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace ermes;

namespace {

sysmodel::SystemModel make_block_chain(int blocks, int ring) {
  sysmodel::SystemModel sys;
  std::vector<sysmodel::ProcessId> first(static_cast<std::size_t>(blocks));
  for (int b = 0; b < blocks; ++b) {
    const std::string prefix = "b" + std::to_string(b) + ".";
    std::vector<sysmodel::ProcessId> procs;
    procs.reserve(static_cast<std::size_t>(ring));
    for (int i = 0; i < ring; ++i) {
      // Latencies vary around the ring so blocks have distinct, nontrivial
      // cycle ratios (and the critical block moves as patches land).
      procs.push_back(sys.add_process(prefix + "p" + std::to_string(i),
                                      5 + (i * 7 + b) % 11));
    }
    // One initial token per ring (the primed process) keeps it live.
    sys.set_primed(procs[0], true);
    for (int i = 0; i < ring; ++i) {
      const sysmodel::ChannelId c = sys.add_channel(
          prefix + "c" + std::to_string(i), procs[static_cast<std::size_t>(i)],
          procs[static_cast<std::size_t>((i + 1) % ring)], /*latency=*/1);
      sys.set_channel_capacity(c, 2);
    }
    first[static_cast<std::size_t>(b)] = procs[0];
  }
  // Unbounded joins: a chain, not a ring, so no cross-block cycle forms and
  // each block stays its own strongly connected component.
  for (int b = 0; b + 1 < blocks; ++b) {
    const sysmodel::ChannelId j = sys.add_channel(
        "j" + std::to_string(b), first[static_cast<std::size_t>(b)],
        first[static_cast<std::size_t>(b + 1)], /*latency=*/1);
    sys.set_channel_capacity(j, sysmodel::kUnboundedCapacity);
  }
  return sys;
}

struct Patch {
  sysmodel::ProcessId process;
  std::int64_t latency;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int blocks = 8;
  int ring = 160;
  int steps = 32;
  std::string out_path = "BENCH_incremental.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--blocks") == 0 && i + 1 < argc) {
      blocks = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--ring") == 0 && i + 1 < argc) {
      ring = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      steps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  if (smoke) {
    ring = 24;
    steps = 16;
  }
  if (blocks < 2 || ring < 2 || steps < 1) {
    std::fprintf(stderr, "bad sizes\n");
    return 2;
  }

  const sysmodel::SystemModel base = make_block_chain(blocks, ring);
  std::printf("bench_incremental: %d blocks x %d-process rings "
              "(%d processes), %d rotating patches%s\n",
              blocks, ring, blocks * ring, steps, smoke ? " [smoke]" : "");

  // The rotating patch sequence: step s touches one process of block
  // s % blocks, so exactly 1 of `blocks` components dirties per step.
  std::vector<Patch> patches;
  patches.reserve(static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    const int b = s % blocks;
    const int i = 1 + (s / blocks) % (ring - 1);
    patches.push_back({static_cast<sysmodel::ProcessId>(b * ring + i),
                       5 + (s * 13) % 37});
  }

  // Cold baseline: full re-analysis of a mutated mirror per patch.
  sysmodel::SystemModel mirror = base;
  std::vector<analysis::PerformanceReport> cold_reports;
  cold_reports.reserve(patches.size());
  util::Stopwatch sw;
  for (const Patch& patch : patches) {
    mirror.set_latency(patch.process, patch.latency);
    cold_reports.push_back(analysis::analyze_system(mirror));
  }
  const double cold_ms = sw.elapsed_ms();

  // Incremental session: same patches, dirty-component re-solve only. The
  // initial (full) analysis is deliberately outside the timed loop — it is
  // the session-open cost, paid once.
  comp::IncrementalAnalyzer inc(base);
  inc.analyze();
  int mismatches = 0;
  sw.reset();
  for (std::size_t s = 0; s < patches.size(); ++s) {
    if (!inc.set_latency(patches[s].process, patches[s].latency)) {
      std::fprintf(stderr, "patch %zu rejected\n", s);
      return 1;
    }
    if (!analysis::reports_bit_identical(inc.analyze().report,
                                         cold_reports[s])) {
      ++mismatches;
    }
  }
  const double inc_ms = sw.elapsed_ms();
  const comp::IncrementalAnalyzer::Stats& stats = inc.stats();

  const double speedup = inc_ms > 0.0 ? cold_ms / inc_ms : 0.0;
  const double per_patch_sccs =
      stats.analyses > 1
          ? static_cast<double>(stats.sccs_solved - blocks) /
                static_cast<double>(stats.analyses - 1)
          : 0.0;

  util::Table table({"configuration", "time (ms)", "per patch (ms)",
                     "speedup", "bit-identical"});
  table.add_row({"cold re-analysis", util::format_double(cold_ms, 1),
                 util::format_double(cold_ms / steps, 2), "1.00", "baseline"});
  table.add_row({"incremental session", util::format_double(inc_ms, 1),
                 util::format_double(inc_ms / steps, 2),
                 util::format_double(speedup, 2),
                 mismatches == 0 ? "yes" : "NO"});
  std::printf("%s\n", table.to_text(2).c_str());
  std::printf("  dirty components per patch: %.2f of %d\n", per_patch_sccs,
              blocks);

  const bool identical = mismatches == 0;
  // Smoke rings are too small for a stable timing claim; the 5x floor is
  // asserted on the full-size run only.
  const bool fast_enough = smoke || speedup >= 5.0;

  svc::JsonValue report = svc::JsonValue::object();
  report.set("bench", svc::JsonValue::string("incremental"));
  report.set("smoke", svc::JsonValue::boolean(smoke));
  report.set("blocks", svc::JsonValue::integer(blocks));
  report.set("ring", svc::JsonValue::integer(ring));
  report.set("processes", svc::JsonValue::integer(
                              static_cast<std::int64_t>(blocks) * ring));
  report.set("patches", svc::JsonValue::integer(steps));
  report.set("cold_ms", svc::JsonValue::number(cold_ms));
  report.set("incremental_ms", svc::JsonValue::number(inc_ms));
  report.set("speedup", svc::JsonValue::number(speedup));
  report.set("speedup_floor", svc::JsonValue::number(5.0));
  report.set("meets_floor", svc::JsonValue::boolean(speedup >= 5.0));
  report.set("bit_identical", svc::JsonValue::boolean(identical));
  report.set("sccs_solved", svc::JsonValue::integer(stats.sccs_solved));
  report.set("sccs_clean", svc::JsonValue::integer(stats.sccs_clean));
  report.set("structure_rebuilds",
             svc::JsonValue::integer(stats.structure_rebuilds));

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  const std::string json = report.to_string();
  std::fwrite(json.data(), 1, json.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("  report written to %s\n", out_path.c_str());

  if (!identical || !fast_enough) {
    std::fprintf(stderr, "bench_incremental FAILED: identical=%d speedup=%.2f\n",
                 identical, speedup);
    return 1;
  }
  std::printf("bench_incremental PASSED\n");
  return 0;
}
