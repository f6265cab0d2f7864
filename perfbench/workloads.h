#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Analytic star queries at DOP 2 over a 1M-row fact table (closed loop).
void RunOlapStar(const Config& cfg, Recorder* rec);

/// The POP workload of the paper's Figures 1-3 under a small memory grant
/// (closed loop, DOP 1).
void RunRobustTrap(const Config& cfg, Recorder* rec);

/// Point lookups and dashboards through the QueryScheduler with the plan
/// and result caches on, plus periodic appends (open loop).
void RunServeMixed(const Config& cfg, Recorder* rec);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
