// oebench_perf — runs one benchmark workload in this process and prints
// one JSON object on stdout: host facts, the output digest, failed
// checks, delivery accounting and the measured metrics. perfbench/run.py
// builds this binary, passes the committed workload settings from
// perfbench/workloads.json and turns the object into the result line.
//
//   oebench_perf --workload=serve_pool --seed=1 --seconds=12 --trace=0 ...
//
// Exit codes: 0 when the object was printed (the checks may still have
// failed; see "errors"), 2 on bad flags.

#include <algorithm>
#include <cstdio>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {

const std::vector<std::string>& SweepLearners() {
  static const std::vector<std::string> kLearners = {
      "Naive-NN", "iCaRL", "Naive-DT", "Naive-GBDT", "SEA-DT", "SEA-GBDT"};
  return kLearners;
}

std::map<std::string, double> ZeroPerLayerMetrics() {
  std::map<std::string, double> m;
  for (const char* name :
       {"streamgen.generate_s", "streamgen.rows", "preprocess.prepare_s",
        "preprocess.impute_s", "preprocess.detect_s", "preprocess.windows",
        "preprocess.rows", "core.tasks", "core.task_s_max",
        "core.queue_wait_s", "core.busy_frac", "stats.missing_s",
        "stats.data_drift_s", "stats.concept_drift_s", "stats.outlier_s",
        "cluster.select_s", "serve.init_s", "serve.state_pool.hits",
        "serve.state_pool.misses", "serve.state_pool.bytes_held",
        "serve.offer_s", "serve.offers", "serve.offer_rejects",
        "serve.accept_ratio", "serve.backlog_peak", "serve.activations",
        "serve.records_per_activation", "serve.compute_s", "serve.drain_s",
        "serve.p50_ms.low", "serve.p99_ms.low", "serve.p50_ms.high",
        "serve.p99_ms.high", "loadgen.late_p99_ms"}) {
    m[name] = 0.0;
  }
  for (const std::string& learner : SweepLearners()) {
    m["models.train_s." + learner] = 0.0;
    m["models.test_s." + learner] = 0.0;
    m["models.items." + learner] = 0.0;
  }
  return m;
}

namespace {

std::string MetricsJson(const std::map<std::string, double>& metrics) {
  std::string out = "{";
  for (const auto& [name, value] : metrics) {
    if (out.size() > 1) out += ",";
    out += JsonString(name) + ":" + JsonNumber(value);
  }
  return out + "}";
}

std::string AccountingJson(const Accounting& a) {
  return "{\"attempted\":" + std::to_string(a.attempted) +
         ",\"succeeded\":" + std::to_string(a.succeeded) +
         ",\"failed\":" + std::to_string(a.failed) +
         ",\"dropped\":" + std::to_string(a.dropped) +
         ",\"shed\":" + std::to_string(a.shed) + "}";
}

std::string StringsJson(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(items[i]);
  }
  return out + "]";
}

int Main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!options.Parse(argc, argv, &error)) {
    std::fprintf(stderr, "oebench_perf: %s\n", error.c_str());
    return 2;
  }
  const std::string workload = options.Str("workload");
  RunContext ctx;
  ctx.options = &options;
  ctx.seed = options.U64("seed");
  ctx.seconds = options.Num("seconds");
  const int64_t trace = options.Int("trace");
  const int64_t threads = options.Int("threads");
  const std::string spans_out = options.Has("spans-out")
                                    ? options.Str("spans-out")
                                    : std::string();
  if (!options.errors().empty() || threads < 1 || ctx.seconds <= 0.0 ||
      (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "oebench_perf: bad flags\n%s",
                 options.errors().c_str());
    return 2;
  }
  // Never more threads than online CPUs.
  ctx.threads = std::min<int>(static_cast<int>(threads), OnlineCpus());
  Tracer tracer(trace == 1);
  ctx.tracer = &tracer;

  WorkloadResult result;
  if (workload == "sweep_table9") {
    result = RunSweepTable9(ctx);
  } else if (workload == "serve_pool") {
    result = RunServePool(ctx);
  } else if (workload == "corpus_profile") {
    result = RunCorpusProfile(ctx);
  } else {
    std::fprintf(stderr, "oebench_perf: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  if (!options.errors().empty()) {
    std::fprintf(stderr, "oebench_perf: bad flags\n%s",
                 options.errors().c_str());
    return 2;
  }
  if (tracer.enabled() && !spans_out.empty() && !tracer.Write(spans_out)) {
    result.errors.push_back("could not write spans to " + spans_out);
  }

  std::string phases = "[";
  for (size_t i = 0; i < result.phases.size(); ++i) {
    if (i > 0) phases += ",";
    phases += "{\"phase\":" + JsonString(result.phases[i].first) +
              ",\"accounting\":" + AccountingJson(result.phases[i].second) +
              "}";
  }
  phases += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%lld,"
      "\"host\":{\"nproc\":%d,\"threads\":%d,\"cpu\":%s,\"compiler\":%s,"
      "\"build_flags\":%s},\"digest\":%s,\"errors\":%s,\"notes\":%s,"
      "\"accounting\":%s,\"phases\":%s,\"spans\":%zu,"
      "\"end_to_end\":%s,\"per_layer\":%s}\n",
      JsonString(workload).c_str(), static_cast<unsigned long long>(ctx.seed),
      JsonNumber(ctx.seconds).c_str(), static_cast<long long>(trace),
      OnlineCpus(), ctx.threads, JsonString(CpuModel()).c_str(),
      JsonString(CompilerVersion()).c_str(),
      JsonString(BuildFlags()).c_str(), JsonString(result.digest).c_str(),
      StringsJson(result.errors).c_str(), StringsJson(result.notes).c_str(),
      AccountingJson(result.total).c_str(), phases.c_str(), tracer.size(),
      MetricsJson(result.end_to_end).c_str(),
      MetricsJson(result.per_layer).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
