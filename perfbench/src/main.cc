// udm_perfbench — the repository's end-to-end benchmark driver.
//
//   udm_perfbench --workload fit|classify|serve --seed N --seconds S
//                 --trace 0|1 --work-dir DIR [--serve-bin PATH]
//
// Sets the workload up from the seed, measures for S seconds, checks the
// outputs, and prints one JSON line last: {"correct", "attempted",
// "failed", "metrics"} with every end-to-end metric (--trace 0) or every
// per-layer metric (--trace 1). Check results go to stderr. Exit code 0
// only when every check passed. perfbench/run.py builds this binary and
// is the command BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--serve-bin") {
      args.serve_bin = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.work_dir.empty() &&
         args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: udm_perfbench --workload fit|classify|serve --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--serve-bin PATH]\n");
    return 2;
  }
  perfbench::Outcome outcome;
  if (args.workload == "fit") {
    outcome = perfbench::RunFit(args);
  } else if (args.workload == "classify") {
    outcome = perfbench::RunClassify(args);
  } else if (args.workload == "serve") {
    outcome = perfbench::RunServe(args);
  } else {
    std::fprintf(stderr, "udm_perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  for (const std::string& note : outcome.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
  if (args.trace &&
      !perfbench::Tracer::Get().WriteChromeTrace(
          args.work_dir + "/trace-" + args.workload + ".json")) {
    std::fprintf(stderr, "udm_perfbench: cannot write the trace\n");
    outcome.correct = false;
  }
  perfbench::PrintResult(outcome, args.trace);
  return outcome.correct ? 0 : 1;
}
