// The three udm_perfbench workloads. Each sets up its inputs from
// args.seed, measures for args.seconds, checks the program's outputs, and
// fills every end-to-end metric (untraced) or per-layer metric (traced).
#ifndef UDM_PERFBENCH_WORKLOADS_H_
#define UDM_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Micro-cluster training plus sharded, checkpointed stream ingest.
Outcome RunFit(const Args& args);
/// Roll-up classification (Explain) over held-out noisy points.
Outcome RunClassify(const Args& args);
/// Open-loop eval traffic against a spawned udm_serve daemon.
Outcome RunServe(const Args& args);

/// Set-up repetitions per run; setup_s reports their median.
inline constexpr int kSetupReps = 5;

}  // namespace perfbench

#endif  // UDM_PERFBENCH_WORKLOADS_H_
