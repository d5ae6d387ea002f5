// sweep_table9: the Table 9 batch shape. ParallelSweepEntries over all
// 55 corpus entries x six learners x one repeat on a fixed pool, run to
// completion (closed), repeated for about --seconds.
//
// Inputs from the seed: every entry name carries the seed as a suffix
// (so each stream's generator seed, which SpecFromEntry derives from the
// name, changes with it) and the seed is the sweep's base seed (so every
// task's learner seed changes with it).
//
// End-to-end: wall_s (median sweep wall), setup_s (median set-up: the
// inputs plus a warm-up sweep of one small entry), prequential records
// per second, peak RSS, ok_frac.

#include <set>

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/evaluator.h"
#include "core/learner.h"
#include "core/parallel_eval.h"
#include "linalg/vector_ops.h"
#include "preprocess/pipeline.h"
#include "streamgen/corpus.h"
#include "streamgen/stream_generator.h"
#include "sweep/result_log.h"
#include "workloads.h"

namespace perfbench {
namespace {

using oebench::CorpusEntry;
using oebench::EvalResult;
using oebench::MetricsRegistry;
using oebench::MetricsSnapshot;
using oebench::StrFormat;
using oebench::SweepConfig;
using oebench::SweepOutcome;

/// The corpus with every name salted by the seed.
std::vector<CorpusEntry> SeededEntries(uint64_t seed) {
  std::vector<CorpusEntry> entries = oebench::Corpus();
  for (CorpusEntry& entry : entries) {
    entry.name += StrFormat("~s%llu", static_cast<unsigned long long>(seed));
  }
  return entries;
}

/// Canonical bytes of one sweep's results: every cell's identity, item
/// count and loss bytes. Wall-clock fields are excluded.
std::string SweepDigest(const SweepOutcome& outcome) {
  Digest digest;
  for (const oebench::SweepRow& row : outcome.rows) {
    digest.Add(row.dataset);
    for (const oebench::SweepCell& cell : row.cells) {
      digest.AddInt(cell.failed_runs);
      digest.AddInt(cell.repeated.not_applicable ? 1 : 0);
      for (const EvalResult& run : cell.runs) {
        digest.Add(run.learner);
        digest.AddInt(run.items_processed);
        digest.AddDouble(run.mean_loss);
        digest.AddDouble(run.faded_loss);
        for (double loss : run.per_window_loss) digest.AddDouble(loss);
      }
    }
  }
  return digest.Hex();
}

/// Recomputes one task outside the sweep engine — generate, prepare,
/// fresh learner under its TaskSeed, RunPrequential — and compares the
/// loss bytes with the sweep's cell. Catches an engine that returns the
/// wrong result for a cell, which a self-consistent digest cannot.
std::string CrossCheckTask(const SweepConfig& config,
                           const std::vector<CorpusEntry>& entries,
                           const SweepOutcome& outcome, size_t d, size_t l) {
  const std::string& learner = SweepLearners()[l];
  const oebench::SweepCell& cell = outcome.rows[d].cells[l];
  if (cell.runs.size() != 1) return "";  // N/A pair: nothing to compare
  oebench::StreamSpec spec = oebench::SpecFromEntry(entries[d], config.scale);
  oebench::Result<oebench::GeneratedStream> stream =
      oebench::GenerateStream(spec);
  if (!stream.ok()) {
    return "cross-check generate: " + stream.status().ToString();
  }
  oebench::Result<oebench::PreparedStream> prepared =
      oebench::PrepareStream(*stream, config.pipeline);
  if (!prepared.ok()) {
    return "cross-check prepare: " + prepared.status().ToString();
  }
  oebench::LearnerConfig task_config = config.base_config;
  task_config.seed =
      oebench::TaskSeed(config.base_config.seed, spec.name, learner, 0);
  auto made = oebench::MakeLearner(learner, task_config, prepared->task,
                                   prepared->num_classes);
  if (!made.ok()) return "cross-check learner: " + made.status().ToString();
  EvalResult batch = oebench::RunPrequential(made->get(), *prepared);
  const EvalResult& swept = cell.runs[0];
  if (oebench::sweep::EncodeDouble(batch.mean_loss) !=
          oebench::sweep::EncodeDouble(swept.mean_loss) ||
      batch.per_window_loss.size() != swept.per_window_loss.size() ||
      batch.items_processed != swept.items_processed) {
    return StrFormat("cell %s|%s differs from a standalone RunPrequential",
                     entries[d].name.c_str(), learner.c_str());
  }
  for (size_t w = 0; w < batch.per_window_loss.size(); ++w) {
    if (oebench::sweep::EncodeDouble(batch.per_window_loss[w]) !=
        oebench::sweep::EncodeDouble(swept.per_window_loss[w])) {
      return StrFormat("cell %s|%s window %zu differs from RunPrequential",
                       entries[d].name.c_str(), learner.c_str(), w);
    }
  }
  return "";
}

}  // namespace

WorkloadResult RunSweepTable9(const RunContext& ctx) {
  const Options& opt = *ctx.options;
  Tracer* tracer = ctx.tracer;
  WorkloadResult out;
  out.per_layer = ZeroPerLayerMetrics();

  SweepConfig config;
  config.base_config.seed = ctx.seed;
  config.base_config.epochs = static_cast<int>(opt.Int("sweep-epochs"));
  config.repeats = 1;
  config.threads = ctx.threads;
  config.scale = opt.Num("sweep-scale");
  const int64_t min_reps = opt.Int("min-reps");
  const std::string warmup_name = opt.Str("sweep-warmup-entry");
  if (!opt.errors().empty()) return out;
  const std::vector<std::string>& learners = SweepLearners();

  std::vector<double> walls, setups, rates;
  std::map<std::string, std::vector<double>> layer;  // per-rep samples
  std::set<std::string> digests;
  std::vector<CorpusEntry> entries;
  SweepOutcome last;
  const Clock::time_point run_start = Clock::now();
  for (int64_t rep = 0;
       rep < min_reps || SecondsSince(run_start) < ctx.seconds; ++rep) {
    ScopedSpan rep_span(tracer, "sweep_table9.rep", 0, rep);

    // Set-up: the seeded inputs plus a warm-up sweep of one small entry,
    // so thread start-up, allocator growth and lazy statics are paid
    // before the clock starts.
    const Clock::time_point setup_start = Clock::now();
    {
      ScopedSpan span(tracer, "setup", rep_span.id(), rep);
      entries = SeededEntries(ctx.seed);
      std::vector<CorpusEntry> warmup;
      for (const CorpusEntry& entry : entries) {
        if (entry.name.rfind(warmup_name + "~", 0) == 0) {
          warmup.push_back(entry);
        }
      }
      if (warmup.size() != 1) {
        out.errors.push_back("warm-up entry '" + warmup_name + "' not found");
        return out;
      }
      ScopedSpan warm(tracer, "core.ParallelSweepEntries(warmup)", span.id(),
                      rep);
      oebench::ParallelSweepEntries(warmup, learners, config);
    }
    setups.push_back(SecondsSince(setup_start));

    MetricsRegistry::Global()->Reset();
    const Clock::time_point start = Clock::now();
    SweepOutcome outcome;
    {
      ScopedSpan span(tracer, "core.ParallelSweepEntries", rep_span.id(), rep);
      outcome = oebench::ParallelSweepEntries(entries, learners, config);
    }
    const double wall = SecondsSince(start);
    walls.push_back(wall);
    const MetricsSnapshot snap = MetricsRegistry::Global()->Snapshot();

    Accounting acct;
    acct.attempted = outcome.tasks_run;
    acct.failed = outcome.tasks_failed;
    acct.succeeded = outcome.tasks_run - outcome.tasks_failed;
    out.phases.push_back({StrFormat("rep %lld", static_cast<long long>(rep)),
                          acct});
    out.total.attempted += acct.attempted;
    out.total.failed += acct.failed;
    out.total.succeeded += acct.succeeded;
    digests.insert(SweepDigest(outcome));

    int64_t items = 0;
    std::map<std::string, double> train, test, learner_items;
    for (const oebench::SweepRow& row : outcome.rows) {
      for (size_t l = 0; l < row.cells.size(); ++l) {
        for (const EvalResult& run : row.cells[l].runs) {
          items += run.items_processed;
          train[learners[l]] += run.train_seconds;
          test[learners[l]] += run.test_seconds;
          learner_items[learners[l]] +=
              static_cast<double>(run.items_processed);
        }
      }
    }
    rates.push_back(static_cast<double>(items) / wall);
    if (tracer->enabled()) {
      for (const std::string& name : learners) {
        layer["models.train_s." + name].push_back(train[name]);
        layer["models.test_s." + name].push_back(test[name]);
        layer["models.items." + name].push_back(learner_items[name]);
      }
      const double task_seconds = HistogramSum(snap, "sweep.task_seconds");
      layer["core.tasks"].push_back(static_cast<double>(outcome.tasks_run));
      layer["core.task_s_max"].push_back(
          HistogramMax(snap, "sweep.task_seconds"));
      layer["core.queue_wait_s"].push_back(
          HistogramSum(snap, "sweep.queue_wait_seconds"));
      layer["core.busy_frac"].push_back(task_seconds / (ctx.threads * wall));
      layer["preprocess.impute_s"].push_back(
          HistogramSum(snap, "prepare.impute_seconds"));
      layer["preprocess.detect_s"].push_back(
          HistogramSum(snap, "prepare.detect_seconds"));
      layer["preprocess.windows"].push_back(
          CounterValue(snap.counters, "prepare.windows"));
      layer["preprocess.rows"].push_back(
          CounterValue(snap.counters, "prepare.rows"));
      double generated_rows = 0.0;
      for (const CorpusEntry& entry : entries) {
        generated_rows += static_cast<double>(
            oebench::SpecFromEntry(entry, config.scale).num_instances);
      }
      layer["streamgen.rows"].push_back(generated_rows);
    }
    last = std::move(outcome);
  }

  // Correctness: every repetition produced the same bytes, nothing
  // failed, every pair ran, and one seeded cell matches a standalone
  // prequential run.
  if (digests.size() != 1) {
    out.errors.push_back(StrFormat(
        "repetitions disagree: %zu distinct digests", digests.size()));
  }
  out.digest = *digests.begin();
  if (out.total.failed != 0) {
    out.errors.push_back(StrFormat("%lld task(s) failed",
                                   static_cast<long long>(out.total.failed)));
  }
  const int64_t expected_tasks =
      static_cast<int64_t>(entries.size() * learners.size()) -
      last.pairs_skipped;
  if (last.tasks_run != expected_tasks) {
    out.errors.push_back(StrFormat("ran %lld tasks, expected %lld",
                                   static_cast<long long>(last.tasks_run),
                                   static_cast<long long>(expected_tasks)));
  }
  {
    ScopedSpan span(tracer, "verify.RunPrequential", 0, 0);
    const size_t d = static_cast<size_t>(ctx.seed % entries.size());
    const size_t l = static_cast<size_t>((ctx.seed / entries.size()) %
                                         learners.size());
    std::string error = CrossCheckTask(config, entries, last, d, l);
    if (!error.empty()) out.errors.push_back(error);
  }

  out.end_to_end["wall_s"] = Median(walls);
  out.end_to_end["setup_s"] = Median(setups);
  out.end_to_end["max_rate_rps"] = Median(rates);
  out.end_to_end["peak_rss_mib"] = PeakRssMib();
  out.end_to_end["ok_frac"] =
      out.total.attempted > 0
          ? static_cast<double>(out.total.succeeded) / out.total.attempted
          : 0.0;
  for (const auto& [name, samples] : layer) out.per_layer[name] = oebench::Mean(samples);
  out.notes.push_back(StrFormat("%zu sweep(s)", walls.size()));
  return out;
}

}  // namespace perfbench
