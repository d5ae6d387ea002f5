// The three workloads. The batch ones run their measured operation
// repeatedly for about `--seconds`; serve_pool runs a fixed ladder of
// rates. Each checks its outputs and returns end-to-end metrics
// (untraced) or per-layer metrics (traced) by their BENCHMARK.json
// names. Metrics of layers a workload does not exercise are reported as
// 0 so every run carries the full per-layer set.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Everything a workload needs besides its own flags.
struct RunContext {
  const Options* options = nullptr;
  Tracer* tracer = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Worker threads the workload may use in total (<= online CPUs).
  int threads = 4;
};

WorkloadResult RunSweepTable9(const RunContext& ctx);
WorkloadResult RunServePool(const RunContext& ctx);
WorkloadResult RunCorpusProfile(const RunContext& ctx);

/// The learners of the batch sweep, in table order.
const std::vector<std::string>& SweepLearners();

/// Every per-layer metric name, so each workload can start from a
/// zero-filled set and fill in what it measures.
std::map<std::string, double> ZeroPerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
