// perfbench: one workload run of the ERMES benchmark.
//
//   perfbench --workload explore|flow10k|serve_mixed --seed N --seconds S
//             --trace 0|1 [--corpus-seed N] [--smoke]
//             [--ermes path/to/ermes] [--workdir dir] [--revision text]
//
// The last stdout line is the run's JSON result: {"correct", "attempted",
// "failed", "metrics"} with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). Lines before it describe the samples and
// the host. perfbench/run.py builds this binary and is the usual entry.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload explore|flow10k|serve_mixed "
               "--seed N --seconds S --trace 0|1 [--corpus-seed N] [--smoke] "
               "[--ermes PATH] [--workdir DIR] [--revision TEXT]\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed" && parse_u64(value, &number)) {
      options.seed = number;
    } else if (arg == "--corpus-seed" && parse_u64(value, &number)) {
      options.corpus_seed = number;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
      have_seconds = options.seconds > 0;
    } else if (arg == "--trace" && parse_u64(value, &number) && number <= 1) {
      options.trace = number == 1;
    } else if (arg == "--ermes") {
      options.ermes_bin = value;
    } else if (arg == "--workdir") {
      options.work_dir = value;
    } else if (arg == "--revision") {
      options.revision = value;
    } else {
      return usage();
    }
  }
  if (!have_seconds) return usage();

  perfbench::Report report;
  const perfbench::HostContext host;
  bool ok = false;
  if (options.workload == "explore") {
    ok = perfbench::run_explore(options, report);
  } else if (options.workload == "flow10k") {
    ok = perfbench::run_flow10k(options, report);
  } else if (options.workload == "serve_mixed") {
    ok = perfbench::run_serve_mixed(options, report);
  } else {
    return usage();
  }
  if (!ok || report.attempted() == 0) {
    std::fprintf(stderr, "perfbench: %s run invalid, no result\n",
                 options.workload.c_str());
    return 1;
  }
  report.note(host.finish(options.revision));
  report.print(report.failed() == 0);
  return 0;
}
