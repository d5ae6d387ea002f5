// corpus_profile: the paper's §4.3/§4.4 pipeline. For all 55 corpus
// specs, on a fixed pool: GenerateStream, then the ProfileDataset stages
// called one by one (PrepareStream with the mean imputer and
// ComputeMissingValueStats / ComputeDataDriftStats /
// ComputeConceptDriftStats / ComputeOutlierStats), then
// SelectRepresentatives over the 55 profiles. Closed; repeated for about
// --seconds.
//
// Inputs from the seed: every spec's generator seed is salted with it.
//
// End-to-end: wall_s (median pass wall), setup_s (median set-up: the
// seeded specs plus a warm-up profile of one small spec), rows profiled
// per second, peak RSS, ok_frac.

#include <algorithm>
#include <cmath>
#include <future>
#include <set>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/selection.h"
#include "linalg/vector_ops.h"
#include "stats/profile.h"
#include "streamgen/corpus.h"
#include "streamgen/stream_generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using oebench::DatasetProfile;
using oebench::MetricsRegistry;
using oebench::Result;
using oebench::StrFormat;
using oebench::StreamSpec;

/// Seconds spent in each stage call for one spec.
struct StageTimes {
  double generate = 0.0;
  double prepare = 0.0;
  double missing = 0.0;
  double data_drift = 0.0;
  double concept_drift = 0.0;
  double outlier = 0.0;
  double rows = 0.0;
};

struct SpecOutcome {
  Result<DatasetProfile> profile = oebench::Status::Internal("not run");
  StageTimes times;
};

/// Elapsed seconds of `fn()`, recorded as a span under `parent`.
template <typename Fn>
double Timed(Tracer* tracer, const char* name, int64_t parent, int64_t run,
             Fn&& fn) {
  ScopedSpan span(tracer, name, parent, run);
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsSince(start);
}

/// GenerateStream plus the ProfileDataset stages, each timed. Assembles
/// the profile exactly as ProfileDataset does.
SpecOutcome ProfileSpec(const StreamSpec& spec, Tracer* tracer, int64_t parent,
                        int64_t run) {
  SpecOutcome out;
  ScopedSpan spec_span(tracer, "profile.spec:" + spec.name, parent, run);
  const int64_t sid = spec_span.id();
  Result<oebench::GeneratedStream> stream =
      oebench::Status::Internal("not run");
  out.times.generate =
      Timed(tracer, "streamgen.GenerateStream", sid, run,
            [&] { stream = oebench::GenerateStream(spec); });
  if (!stream.ok()) {
    out.profile = stream.status();
    return out;
  }
  oebench::PipelineOptions pipeline;
  const oebench::ProfileOptions defaults;
  pipeline.imputer = defaults.imputer;
  pipeline.window_factor = defaults.window_factor;
  Result<oebench::PreparedStream> prepared =
      oebench::Status::Internal("not run");
  out.times.prepare =
      Timed(tracer, "preprocess.PrepareStream", sid, run,
            [&] { prepared = oebench::PrepareStream(*stream, pipeline); });
  if (!prepared.ok()) {
    out.profile = prepared.status();
    return out;
  }
  DatasetProfile profile;
  profile.name = stream->spec.name;
  profile.category = stream->spec.category;
  profile.task = stream->spec.task;
  profile.log_instances =
      std::log10(static_cast<double>(stream->table.num_rows()));
  profile.num_features = static_cast<double>(prepared->feature_names.size());
  profile.num_windows = static_cast<double>(prepared->windows.size());
  profile.is_classification =
      stream->spec.task == oebench::TaskType::kClassification ? 1.0 : 0.0;
  out.times.missing =
      Timed(tracer, "stats.ComputeMissingValueStats", sid, run, [&] {
        profile.missing = oebench::ComputeMissingValueStats(
            stream->table, prepared->ranges, "target");
      });
  out.times.data_drift =
      Timed(tracer, "stats.ComputeDataDriftStats", sid, run, [&] {
        profile.data_drift = oebench::ComputeDataDriftStats(*prepared);
      });
  out.times.concept_drift =
      Timed(tracer, "stats.ComputeConceptDriftStats", sid, run, [&] {
        profile.concept_drift = oebench::ComputeConceptDriftStats(*prepared);
      });
  out.times.outlier = Timed(tracer, "stats.ComputeOutlierStats", sid, run, [&] {
    profile.outliers = oebench::ComputeOutlierStats(*prepared);
  });
  out.times.rows = static_cast<double>(stream->table.num_rows());
  out.profile = std::move(profile);
  return out;
}

/// Feature cells of a spec's stream, the benchmark's cost estimate.
double Cells(const StreamSpec& spec) {
  return static_cast<double>(spec.num_instances) *
         (spec.num_numeric_features + spec.num_categorical_features);
}

/// Every numeric field a profile exposes, in facet order.
void AddProfile(const DatasetProfile& p, Digest* digest) {
  digest->Add(p.name);
  for (const auto& facet :
       {p.BasicFacet(), p.MissingFacet(), p.DataDriftFacet(),
        p.ConceptDriftFacet(), p.OutlierFacet()}) {
    digest->AddInt(static_cast<int64_t>(facet.size()));
    for (double v : facet) digest->AddDouble(v);
  }
  for (const auto& window : p.missing.valid_ratio_per_window) {
    for (double v : window) digest->AddDouble(v);
  }
  for (const oebench::OutlierStats& s : p.outliers) {
    digest->Add(s.detector);
    for (double v : s.ratio_per_window) digest->AddDouble(v);
  }
  for (const auto& group : {p.data_drift, p.concept_drift}) {
    for (const oebench::DetectorStats& s : group) digest->Add(s.detector);
  }
}

bool SameProfile(const DatasetProfile& a, const DatasetProfile& b) {
  Digest da, db;
  AddProfile(a, &da);
  AddProfile(b, &db);
  return da.Hex() == db.Hex();
}

}  // namespace

WorkloadResult RunCorpusProfile(const RunContext& ctx) {
  const Options& opt = *ctx.options;
  Tracer* tracer = ctx.tracer;
  WorkloadResult out;
  out.per_layer = ZeroPerLayerMetrics();
  const double scale = opt.Num("profile-scale");
  const int64_t min_reps = opt.Int("min-reps");
  const int64_t k = opt.Int("profile-representatives");
  const std::string warmup_name = opt.Str("profile-warmup-entry");
  if (!opt.errors().empty()) return out;

  std::vector<double> walls, setups, rates;
  std::map<std::string, std::vector<double>> layer;
  std::set<std::string> digests;
  std::vector<StreamSpec> specs;
  std::vector<DatasetProfile> last_profiles;
  const Clock::time_point run_start = Clock::now();
  for (int64_t rep = 0;
       rep < min_reps || SecondsSince(run_start) < ctx.seconds; ++rep) {
    ScopedSpan rep_span(tracer, "corpus_profile.rep", 0, rep);

    // Set-up: the seeded specs plus a warm-up profile of one small spec.
    const Clock::time_point setup_start = Clock::now();
    {
      ScopedSpan span(tracer, "setup", rep_span.id(), rep);
      specs = oebench::BuildCorpusSpecs(scale, ctx.seed);
      const StreamSpec* warmup = nullptr;
      for (const StreamSpec& spec : specs) {
        if (spec.name == warmup_name) warmup = &spec;
      }
      if (warmup == nullptr) {
        out.errors.push_back("warm-up spec '" + warmup_name + "' not found");
        return out;
      }
      ProfileSpec(*warmup, tracer, span.id(), rep);
    }
    setups.push_back(SecondsSince(setup_start));

    MetricsRegistry::Global()->Reset();
    const Clock::time_point start = Clock::now();
    std::vector<SpecOutcome> outcomes(specs.size());
    {
      ScopedSpan span(tracer, "profile.specs", rep_span.id(), rep);
      oebench::ThreadPool pool(ctx.threads);
      std::vector<std::future<void>> futures;
      // Largest streams first, so no big spec starts last and sets the
      // pass's tail; results stay in spec order.
      std::vector<size_t> order(specs.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return Cells(specs[a]) > Cells(specs[b]);
      });
      for (size_t i : order) {
        futures.push_back(pool.Submit([&, i, parent = span.id()] {
          outcomes[i] = ProfileSpec(specs[i], tracer, parent, rep);
        }));
      }
      for (std::future<void>& f : futures) f.get();
    }
    Accounting acct;
    std::vector<DatasetProfile> profiles;
    for (const SpecOutcome& o : outcomes) {
      ++acct.attempted;
      if (o.profile.ok()) {
        ++acct.succeeded;
        profiles.push_back(*o.profile);
      } else {
        ++acct.failed;
        out.errors.push_back(o.profile.status().ToString());
      }
    }
    Result<oebench::SelectionResult> selection =
        oebench::Status::Internal("not run");
    const double select_s =
        Timed(tracer, "cluster.SelectRepresentatives", rep_span.id(), rep,
              [&] { selection = oebench::SelectRepresentatives(profiles, k); });
    const double wall = SecondsSince(start);
    walls.push_back(wall);
    ++acct.attempted;  // the selection itself is one more operation
    if (selection.ok()) {
      ++acct.succeeded;
    } else {
      ++acct.failed;
      out.errors.push_back("selection: " + selection.status().ToString());
    }
    out.phases.push_back({StrFormat("rep %lld", static_cast<long long>(rep)),
                          acct});
    out.total.attempted += acct.attempted;
    out.total.succeeded += acct.succeeded;
    out.total.failed += acct.failed;
    if (!out.errors.empty()) return out;

    Digest digest;
    for (const DatasetProfile& p : profiles) AddProfile(p, &digest);
    for (int cluster : selection->assignments) digest.AddInt(cluster);
    for (int64_t r : selection->representatives) {
      digest.Add(profiles[static_cast<size_t>(r)].name);
    }
    digests.insert(digest.Hex());

    double rows = 0.0;
    StageTimes sum;
    for (const SpecOutcome& outcome : outcomes) {
      const StageTimes& t = outcome.times;
      rows += t.rows;
      sum.generate += t.generate;
      sum.prepare += t.prepare;
      sum.missing += t.missing;
      sum.data_drift += t.data_drift;
      sum.concept_drift += t.concept_drift;
      sum.outlier += t.outlier;
    }
    rates.push_back(rows / wall);
    if (tracer->enabled()) {
      const oebench::MetricsSnapshot snap =
          MetricsRegistry::Global()->Snapshot();
      layer["streamgen.generate_s"].push_back(sum.generate);
      layer["streamgen.rows"].push_back(rows);
      layer["preprocess.prepare_s"].push_back(sum.prepare);
      layer["preprocess.impute_s"].push_back(
          HistogramSum(snap, "prepare.impute_seconds"));
      layer["preprocess.detect_s"].push_back(
          HistogramSum(snap, "prepare.detect_seconds"));
      layer["preprocess.windows"].push_back(
          CounterValue(snap.counters, "prepare.windows"));
      layer["preprocess.rows"].push_back(
          CounterValue(snap.counters, "prepare.rows"));
      layer["stats.missing_s"].push_back(sum.missing);
      layer["stats.data_drift_s"].push_back(sum.data_drift);
      layer["stats.concept_drift_s"].push_back(sum.concept_drift);
      layer["stats.outlier_s"].push_back(sum.outlier);
      layer["cluster.select_s"].push_back(select_s);
    }
    last_profiles = std::move(profiles);
  }

  // Correctness: repetitions agree, and one seeded spec's stage-by-stage
  // profile equals the library's own ProfileDataset.
  if (digests.size() != 1) {
    out.errors.push_back(StrFormat(
        "repetitions disagree: %zu distinct digests", digests.size()));
  }
  out.digest = *digests.begin();
  {
    ScopedSpan span(tracer, "verify.ProfileDataset", 0, 0);
    const size_t i = static_cast<size_t>(ctx.seed % specs.size());
    Result<oebench::GeneratedStream> stream = oebench::GenerateStream(specs[i]);
    Result<DatasetProfile> reference =
        stream.ok() ? oebench::ProfileDataset(*stream) : stream.status();
    if (!reference.ok()) {
      out.errors.push_back("reference profile: " +
                           reference.status().ToString());
    } else if (!SameProfile(*reference, last_profiles[i])) {
      out.errors.push_back("profile of " + specs[i].name +
                           " differs from ProfileDataset");
    }
  }

  out.end_to_end["wall_s"] = Median(walls);
  out.end_to_end["setup_s"] = Median(setups);
  out.end_to_end["max_rate_rps"] = Median(rates);
  out.end_to_end["peak_rss_mib"] = PeakRssMib();
  out.end_to_end["ok_frac"] =
      static_cast<double>(out.total.succeeded) / out.total.attempted;
  for (const auto& [name, samples] : layer) out.per_layer[name] = oebench::Mean(samples);
  out.notes.push_back(StrFormat("%zu pass(es)", walls.size()));
  return out;
}

}  // namespace perfbench
