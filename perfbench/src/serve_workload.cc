// serve_pool: the serving shape. Many StreamSessions over a few distinct
// corpus specs share one StatePool and are multiplexed over a small
// ServeEngine. The benchmark's own generator (this thread) offers
// records on a seeded open-loop schedule at each rate of a fixed ladder,
// under block admission (an overloaded ring is retried, never dropped),
// so every session's output is deterministic at every rate.
//
// Each ladder rung is an independent serve run with a fixed number of
// windows per session: set-up (generate the specs' streams, warm the
// state pool, Init every session, start the engine), offer on the
// schedule, drain, verify. The last rung offers more than the engine
// can take; the records it accepts per second are the engine's capacity.
//
// Record latency is measured by the serve layer itself, from the due
// time the generator stamps on each record (so a stall delays every
// later record's latency instead of hiding), into a histogram this
// benchmark registers with log-linear bounds before any session exists.

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <thread>

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/evaluator.h"
#include "core/learner.h"
#include "linalg/vector_ops.h"
#include "preprocess/pipeline.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/state_pool.h"
#include "streamgen/corpus.h"
#include "streamgen/stream_generator.h"
#include "sweep/result_log.h"
#include "workloads.h"

namespace perfbench {
namespace {

using oebench::EvalResult;
using oebench::GeneratedStream;
using oebench::Histogram;
using oebench::HistogramSnapshot;
using oebench::MetricsRegistry;
using oebench::StrFormat;
using oebench::serve::AdmitResult;
using oebench::serve::ServeEngine;
using oebench::serve::StreamSession;

constexpr char kLatencyHistogram[] = "serve.record_latency_seconds";

/// Log-linear bounds from 1 us to 100 s: 90 linear steps per decade
/// (1.0, 1.1, ..., 9.9 x 10^k), so a bucket is at most 10% wide relative
/// to its lower edge.
std::vector<double> LogLinearBounds() {
  std::vector<double> bounds;
  for (int exp = -6; exp <= 1; ++exp) {
    for (int m = 10; m <= 99; ++m) {
      bounds.push_back(m * std::pow(10.0, exp - 1));
    }
  }
  bounds.push_back(100.0);
  return bounds;
}

/// Bit-exact dump of one prequential outcome (wall-clock fields
/// excluded) — the serve-vs-batch comparison key.
std::string DumpResult(const EvalResult& r) {
  std::string out =
      r.learner + "|" + r.dataset + "|" +
      StrFormat("%lld|%lld|", static_cast<long long>(r.items_processed),
                static_cast<long long>(r.peak_memory_bytes)) +
      oebench::sweep::EncodeDouble(r.mean_loss) + "|" +
      oebench::sweep::EncodeDouble(r.faded_loss) + "|";
  for (double loss : r.per_window_loss) {
    out += oebench::sweep::EncodeDouble(loss) + ",";
  }
  return out;
}

/// splitmix64: decorrelated per-rung / per-session seeds.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The seeded open-loop schedule of one rung: arrival k is row
/// `rows[k]` of session `sessions[k]`, due `due[k]` seconds after the
/// schedule starts. Every session is an independent Poisson stream whose
/// rate is proportional to its window size, so all sessions share one
/// window period P = sum(window rows) / rate and the aggregate is a
/// Poisson stream at `rate`. Each session starts at a uniform offset in
/// [0, P), so sessions cross window boundaries (where training runs) out
/// of step instead of all at once; the rate is steady on [P, windows*P].
struct Schedule {
  std::vector<uint32_t> sessions;
  std::vector<int64_t> rows;
  std::vector<double> due;
  std::vector<char> last;  // 1 when the arrival is its session's last row
  double period = 0.0;     // P
};

Schedule MakeSchedule(const std::vector<int64_t>& end_rows,
                      const std::vector<int64_t>& window_rows, double rate,
                      uint64_t seed) {
  double total_window_rows = 0.0;
  for (int64_t w : window_rows) total_window_rows += static_cast<double>(w);
  Schedule s;
  s.period = total_window_rows / rate;
  std::mt19937_64 rng(seed);
  auto uniform = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  struct Arrival {
    double due;
    uint32_t session;
    int64_t row;
  };
  std::vector<Arrival> arrivals;
  for (size_t i = 0; i < end_rows.size(); ++i) {
    const double session_rate =
        rate * static_cast<double>(window_rows[i]) / total_window_rows;
    double t = uniform() * s.period;
    for (int64_t row = 0; row < end_rows[i]; ++row) {
      t += -std::log1p(-uniform()) / session_rate;
      arrivals.push_back({t, static_cast<uint32_t>(i), row});
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.due < b.due || (a.due == b.due && a.session < b.session);
            });
  for (const Arrival& a : arrivals) {
    s.sessions.push_back(a.session);
    s.rows.push_back(a.row);
    s.due.push_back(a.due);
    s.last.push_back(a.row + 1 == end_rows[a.session] ? 1 : 0);
  }
  return s;
}

/// The workload's flags.
struct ServeConfig {
  int64_t sessions = 0;
  int64_t specs = 0;
  double scale = 0.0;
  std::vector<double> rates;
  std::vector<int64_t> windows;  // per session, one entry per rate
  double warmup_rate = 0.0;
  int64_t warmup_windows = 0;
  double limit_ms = 0.0;
  double interval_s = 0.0;
  double late_limit_ms = 0.0;
  std::vector<std::string> learners;
  int64_t verify_per_class = 0;
  int64_t setup_reps = 1;
  int workers = 1;

  const std::string& LearnerOf(int64_t i) const {
    return learners[static_cast<size_t>(
        (i / specs) % static_cast<int64_t>(learners.size()))];
  }
};

/// Per-layer sums over the reported rungs.
struct Layer {
  double generate_s = 0.0, rows = 0.0, prepare_s = 0.0, init_s = 0.0;
  double pool_hits = 0.0, pool_misses = 0.0, pool_bytes = 0.0;
  double offer_s = 0.0, offers = 0.0, data_offers = 0.0, rejects = 0.0;
  double accepted = 0.0, backlog_peak = 0.0;
  double activations = 0.0, records = 0.0, drain_s = 0.0;
  double windows = 0.0, items = 0.0;
  std::map<std::string, double> train_s, test_s, learner_items;
};

/// One rung's serve run. Members are declared so that the engine, which
/// owns the sessions, is destroyed before the state pool they point to.
struct Rung {
  double rate = 0.0;
  bool warmup = false;
  size_t max_windows = 0;
  std::vector<std::shared_ptr<const GeneratedStream>> streams;
  oebench::serve::StatePool pool;
  std::vector<oebench::LearnerConfig> configs;
  std::vector<int64_t> window_rows;  // per session
  std::vector<int64_t> end_rows;     // per session
  std::unique_ptr<ServeEngine> engine;

  // Measurements.
  std::vector<double> setups;  // every set-up of this rung
  double setup_s = 0.0;        // their median
  double wall_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double all_p99_ms = 0.0;  // over every record, stalls included
  size_t intervals = 0;
  size_t valid_intervals = 0;  // intervals the generator kept on schedule
  double achieved_rps = 0.0;  // accepted per second, first due to drained
  double compute_s = 0.0;     // sessions' train + test seconds
  bool backlog_grows = false;
  bool meets_limit = false;
  double late_p99_ms = 0.0;
  Accounting acct;
};

/// Builds the rung's streams, state pool, sessions and engine, timing
/// each public call. Returns false (with an error) on failure.
bool SetUpRung(const ServeConfig& cfg, const RunContext& ctx, int64_t parent,
               int64_t run, Rung* rung, Layer* layer,
               std::vector<std::string>* errors) {
  Tracer* tracer = ctx.tracer;
  const std::vector<oebench::CorpusEntry>& corpus = oebench::Corpus();
  // The seed salts every stream's data, drives the arrival schedule and
  // seeds every session's learner. Under block admission the sessions'
  // outputs do not depend on the schedule, and the tree learners do not
  // draw random numbers, so the data salt is what changes the outputs.
  for (int64_t k = 0; k < cfg.specs; ++k) {
    const oebench::StreamSpec spec = oebench::SpecFromEntry(
        corpus[static_cast<size_t>(k) % corpus.size()], cfg.scale,
        Mix(ctx.seed * 1000003ull + static_cast<uint64_t>(k)));
    ScopedSpan span(tracer, "streamgen.GenerateStream", parent, run);
    const Clock::time_point t0 = Clock::now();
    oebench::Result<GeneratedStream> stream = oebench::GenerateStream(spec);
    layer->generate_s += SecondsSince(t0);
    if (!stream.ok()) {
      errors->push_back("generate: " + stream.status().ToString());
      return false;
    }
    layer->rows += static_cast<double>(stream->table.num_rows());
    rung->streams.push_back(
        std::make_shared<const GeneratedStream>(std::move(*stream)));
  }
  const oebench::PipelineOptions pipeline;
  std::vector<int64_t> spec_window_rows;
  size_t spec_windows = SIZE_MAX;
  for (const auto& stream : rung->streams) {
    ScopedSpan span(tracer, "serve.StatePool.GetOrBuild", parent, run);
    const Clock::time_point t0 = Clock::now();
    auto built = rung->pool.GetOrBuild(*stream, pipeline);
    layer->prepare_s += SecondsSince(t0);
    if (!built.ok() || (*built)->ranges.empty()) {
      errors->push_back("state pool build failed for " + stream->spec.name);
      return false;
    }
    spec_window_rows.push_back((*built)->ranges[0].size());
    spec_windows = std::min(spec_windows, (*built)->ranges.size());
  }
  if (rung->max_windows > spec_windows) {
    errors->push_back(StrFormat("rate %.0f: %zu windows per session, but a "
                                "spec has only %zu",
                                rung->rate, rung->max_windows, spec_windows));
    return false;
  }
  for (int64_t i = 0; i < cfg.sessions; ++i) {
    rung->window_rows.push_back(
        spec_window_rows[static_cast<size_t>(i % cfg.specs)]);
  }

  oebench::serve::ServerOptions engine_options;
  engine_options.workers = cfg.workers;
  std::vector<std::unique_ptr<StreamSession>> sessions;
  for (int64_t i = 0; i < cfg.sessions; ++i) {
    oebench::serve::SessionOptions options;
    options.max_windows = rung->max_windows;
    options.learner = cfg.LearnerOf(i);
    options.learner_config.seed =
        Mix(ctx.seed ^ Mix(static_cast<uint64_t>(i)));
    options.pipeline = pipeline;
    options.state_pool = &rung->pool;
    rung->configs.push_back(options.learner_config);
    auto session = std::make_unique<StreamSession>(
        i, rung->streams[static_cast<size_t>(i % cfg.specs)],
        std::move(options));
    ScopedSpan span(tracer, "serve.StreamSession.Init", parent, run);
    const Clock::time_point t0 = Clock::now();
    const oebench::Status status = session->Init();
    layer->init_s += SecondsSince(t0);
    if (!status.ok()) {
      errors->push_back("session init: " + status.ToString());
      return false;
    }
    sessions.push_back(std::move(session));
  }
  rung->engine = std::make_unique<ServeEngine>(engine_options);
  for (auto& session : sessions) {
    rung->end_rows.push_back(session->end_row());
    rung->engine->AddSession(std::move(session));
  }
  layer->pool_hits += static_cast<double>(rung->pool.hits());
  layer->pool_misses += static_cast<double>(rung->pool.misses());
  layer->pool_bytes =
      std::max(layer->pool_bytes, static_cast<double>(rung->pool.bytes_held()));
  return true;
}

/// What the generator observed while offering one rung's schedule.
struct OfferLog {
  double t_first = 0.0;  // registry time of schedule offset 0
  std::vector<double> late;  // per arrival: offer time - due time
  std::vector<std::pair<double, int64_t>> backlog;  // (offset, inflight)
  /// Latency histogram snapshots, at least interval_s apart.
  std::vector<std::pair<double, HistogramSnapshot>> snapshots;
};

/// Offers every arrival at its due time (spinning, sleeping only for
/// gaps over half a millisecond), stamped with the due time. Block
/// admission: an overloaded ring is retried until it accepts.
OfferLog OfferSchedule(const ServeConfig& cfg, const Schedule& schedule,
                       bool timed, ServeEngine* engine, Layer* layer,
                       Accounting* acct) {
  MetricsRegistry* registry = MetricsRegistry::Global();
  Histogram* latency = registry->GetHistogram(kLatencyHistogram);
  OfferLog log;
  log.late.reserve(schedule.due.size());
  auto offer = [&](size_t idx, int64_t row, double due) {
    for (;;) {
      const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point();
      const AdmitResult res = row == oebench::serve::kEndOfStream
                                  ? engine->OfferEnd(idx, due)
                                  : engine->Offer(idx, row, due);
      if (timed) layer->offer_s += SecondsSince(t0);
      layer->offers += 1.0;
      if (row != oebench::serve::kEndOfStream) layer->data_offers += 1.0;
      if (res != AdmitResult::kOverloaded) return res;
      layer->rejects += 1.0;
      std::this_thread::yield();
    }
  };
  log.t_first = registry->NowSeconds() + 0.01;
  double next_sample = 0.0, next_snapshot = 0.0;
  for (size_t k = 0; k < schedule.due.size(); ++k) {
    const double due = log.t_first + schedule.due[k];
    double now = registry->NowSeconds();
    while (now < due) {
      if (due - now > 0.0005) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(due - now - 0.0003));
      }
      now = registry->NowSeconds();
    }
    log.late.push_back(now - due);
    const double offset = now - log.t_first;
    if (offset >= next_sample) {
      log.backlog.emplace_back(offset, engine->inflight());
      next_sample = offset + 0.005;
    }
    if (offset >= next_snapshot) {
      log.snapshots.emplace_back(offset, latency->Snapshot());
      next_snapshot = offset + cfg.interval_s;
    }
    const size_t idx = schedule.sessions[k];
    ++acct->attempted;
    const AdmitResult res = offer(idx, schedule.rows[k], due);
    if (res == AdmitResult::kAccepted) {
      ++acct->succeeded;
    } else if (res == AdmitResult::kShed) {
      ++acct->shed;
    } else {
      ++acct->failed;  // the session finished early (quarantined)
    }
    if (schedule.last[k]) offer(idx, oebench::serve::kEndOfStream, due);
  }
  return log;
}

/// Records between two snapshots of one histogram, built the way
/// serve::AdmissionController builds its window estimate: bucket-wise
/// differences, with min/max falling back to the lifetime extremes.
HistogramSnapshot SnapshotDelta(const HistogramSnapshot& from,
                                const HistogramSnapshot& to) {
  HistogramSnapshot delta;
  delta.bounds = to.bounds;
  delta.buckets.resize(to.buckets.size());
  for (size_t b = 0; b < to.buckets.size(); ++b) {
    delta.buckets[b] =
        to.buckets[b] - (b < from.buckets.size() ? from.buckets[b] : 0);
  }
  delta.count = to.count - from.count;
  delta.min = to.min;
  delta.max = to.max;
  return delta;
}

/// Latency and capacity verdict of one rung from the generator's log.
void SummarizeRung(const ServeConfig& cfg, const Schedule& schedule,
                   const OfferLog& log, Rung* rung, Layer* layer) {
  // The steady part: every session active, arrivals at the full rate.
  const double lo = schedule.period;
  const double hi = static_cast<double>(rung->max_windows) * schedule.period;
  auto due_index = [&](double offset) {
    return static_cast<size_t>(
        std::lower_bound(schedule.due.begin(), schedule.due.end(), offset) -
        schedule.due.begin());
  };
  rung->late_p99_ms =
      log.late.empty() ? 0.0 : 1000.0 * oebench::Quantile(log.late, 0.99);

  // p50 / p99 of every interval wholly inside the steady part; the rung
  // reports their medians, so one stall moves one interval, not the
  // rung. An interval in which the generator itself ran late (p99
  // lateness over the limit) was not offered on schedule, so its
  // latencies are not valid samples of the engine; such intervals are
  // left out unless they are the majority. An interval narrower than
  // half of interval_s (after a generator stall the next snapshots are
  // taken back to back), or one without arrivals or consumed records,
  // is no sample at all and is skipped.
  std::vector<double> p50s, p99s, valid_p50s, valid_p99s;
  for (size_t i = 0; i + 1 < log.snapshots.size(); ++i) {
    const double from = log.snapshots[i].first;
    const double to = log.snapshots[i + 1].first;
    if (from < lo || to > hi || to - from < 0.5 * cfg.interval_s) continue;
    const size_t first = due_index(from);
    const size_t last = due_index(to);
    const HistogramSnapshot delta =
        SnapshotDelta(log.snapshots[i].second, log.snapshots[i + 1].second);
    if (first == last || delta.count == 0) continue;
    const double p50 =
        1000.0 * oebench::serve::QuantileFromHistogram(delta, 0.50);
    const double p99 =
        1000.0 * oebench::serve::QuantileFromHistogram(delta, 0.99);
    p50s.push_back(p50);
    p99s.push_back(p99);
    const std::vector<double> late(log.late.begin() + first,
                                   log.late.begin() + last);
    if (1000.0 * oebench::Quantile(late, 0.99) <= cfg.late_limit_ms) {
      valid_p50s.push_back(p50);
      valid_p99s.push_back(p99);
    }
  }
  rung->intervals = p99s.size();
  rung->valid_intervals = valid_p99s.size();
  if (2 * valid_p99s.size() >= p99s.size()) {
    p50s = std::move(valid_p50s);
    p99s = std::move(valid_p99s);
  }
  rung->p50_ms = Median(p50s);
  rung->p99_ms = Median(p99s);

  // The backlog grows when its mean over the third quarter of the
  // schedule exceeds its mean over the second quarter by more than a
  // tenth of the records offered in a quarter. (The last quarter is
  // left out: sessions finish there, so arrivals ramp down.)
  const double horizon = schedule.due.empty() ? 0.0 : schedule.due.back();
  double q2 = 0.0, q3 = 0.0;
  int n2 = 0, n3 = 0;
  for (const auto& [offset, inflight] : log.backlog) {
    layer->backlog_peak =
        std::max(layer->backlog_peak, static_cast<double>(inflight));
    if (offset >= 0.25 * horizon && offset < 0.5 * horizon) {
      q2 += static_cast<double>(inflight);
      ++n2;
    } else if (offset >= 0.5 * horizon && offset < 0.75 * horizon) {
      q3 += static_cast<double>(inflight);
      ++n3;
    }
  }
  q2 = n2 > 0 ? q2 / n2 : 0.0;
  q3 = n3 > 0 ? q3 / n3 : 0.0;
  rung->backlog_grows = q3 - q2 > 0.1 * rung->rate * 0.25 * horizon;
  rung->meets_limit = rung->p99_ms <= cfg.limit_ms && !rung->backlog_grows;
}

/// Checks every session finished cleanly, adds its result to the digest
/// and re-runs a seeded sample as batch PrepareStream + RunPrequential
/// over the same windows: the dumps must be identical.
void VerifyRung(const ServeConfig& cfg, uint64_t seed, size_t r, Rung* rung,
                Layer* layer, Digest* digest,
                std::vector<std::string>* errors) {
  ServeEngine* engine = rung->engine.get();
  digest->Add(StrFormat("rung %zu windows %zu", r, rung->max_windows));
  for (size_t i = 0; i < engine->num_sessions(); ++i) {
    StreamSession* session = engine->session(i);
    if (session->quarantined() || session->abandoned() ||
        !session->finished()) {
      rung->acct.failed += session->records_discarded();
      errors->push_back(StrFormat("rate %.0f: session %zu failed: %s",
                                  rung->rate, i,
                                  session->status().ToString().c_str()));
      continue;
    }
    const EvalResult& result = session->result();
    digest->Add(DumpResult(result));
    rung->compute_s += result.train_seconds + result.test_seconds;
    layer->train_s[result.learner] += result.train_seconds;
    layer->test_s[result.learner] += result.test_seconds;
    layer->learner_items[result.learner] +=
        static_cast<double>(result.items_processed);
  }
  if (!errors->empty()) return;

  // Per (spec, learner) class, verify_per_class seeded sessions (0 =
  // every session).
  const int64_t classes = cfg.specs * static_cast<int64_t>(cfg.learners.size());
  std::vector<int64_t> picks;
  std::mt19937_64 pick(Mix(seed + 31ull * (r + 1)));
  for (int64_t i = 0; cfg.verify_per_class <= 0 && i < cfg.sessions; ++i) {
    picks.push_back(i);
  }
  for (int64_t c = 0; cfg.verify_per_class > 0 && c < classes; ++c) {
    const int64_t members = (cfg.sessions - c + classes - 1) / classes;
    for (int64_t v = 0; v < cfg.verify_per_class && members > 0; ++v) {
      picks.push_back(c + classes * static_cast<int64_t>(pick() % members));
    }
  }
  std::map<int64_t, oebench::PreparedStream> prepared;  // by spec
  for (int64_t i : picks) {
    const int64_t spec = i % cfg.specs;
    if (prepared.count(spec) == 0) {
      auto built =
          oebench::PrepareStream(*rung->streams[static_cast<size_t>(spec)],
                                 oebench::PipelineOptions());
      if (!built.ok()) {
        errors->push_back("batch prepare: " + built.status().ToString());
        return;
      }
      prepared.emplace(spec, std::move(*built));
    }
    StreamSession* session = engine->session(static_cast<size_t>(i));
    oebench::PreparedStream truncated = prepared.at(spec);
    truncated.windows.resize(session->num_windows());
    truncated.ranges.resize(session->num_windows());
    auto made = oebench::MakeLearner(cfg.LearnerOf(i),
                                     rung->configs[static_cast<size_t>(i)],
                                     truncated.task, truncated.num_classes);
    if (!made.ok()) {
      errors->push_back("batch learner: " + made.status().ToString());
      return;
    }
    const EvalResult batch = oebench::RunPrequential(made->get(), truncated);
    if (DumpResult(batch) != DumpResult(session->result())) {
      errors->push_back(StrFormat(
          "rate %.0f: session %lld differs from batch RunPrequential",
          rung->rate, static_cast<long long>(i)));
    }
  }
}

}  // namespace

WorkloadResult RunServePool(const RunContext& ctx) {
  const Options& opt = *ctx.options;
  Tracer* tracer = ctx.tracer;
  WorkloadResult out;
  out.per_layer = ZeroPerLayerMetrics();
  ServeConfig cfg;
  cfg.sessions = opt.Int("serve-sessions");
  cfg.specs = opt.Int("serve-specs");
  cfg.scale = opt.Num("serve-scale");
  cfg.rates = opt.NumList("serve-rates");
  const std::vector<double> windows = opt.NumList("serve-windows");
  cfg.warmup_rate = opt.Num("serve-warmup-rate");
  cfg.warmup_windows = opt.Int("serve-warmup-windows");
  cfg.limit_ms = opt.Num("serve-p99-limit-ms");
  cfg.interval_s = opt.Num("serve-interval-s");
  cfg.late_limit_ms = opt.Num("serve-late-limit-ms");
  cfg.learners = opt.StrList("serve-learners");
  cfg.verify_per_class = opt.Int("serve-verify-sessions");
  cfg.setup_reps = opt.Int("serve-setup-reps");
  const int64_t workers = opt.Int("serve-workers");
  if (!opt.errors().empty()) return out;
  for (double w : windows) cfg.windows.push_back(static_cast<int64_t>(w));
  if (cfg.rates.size() < 3 || windows.size() != cfg.rates.size() ||
      cfg.specs < 1 || cfg.sessions < cfg.specs || cfg.learners.empty() ||
      cfg.warmup_windows < 1 || cfg.setup_reps < 1 || cfg.interval_s <= 0.0 ||
      cfg.warmup_rate <= 0.0 ||
      *std::min_element(cfg.rates.begin(), cfg.rates.end()) <= 0.0 ||
      *std::min_element(windows.begin(), windows.end()) < 1.0) {
    out.errors.push_back("serve: bad workload settings");
    return out;
  }
  // Workers plus this generator thread stay within the thread budget.
  cfg.workers = static_cast<int>(
      std::clamp<int64_t>(workers, 1, std::max(1, ctx.threads - 1)));

  // Register the latency histogram before any session exists: sessions
  // cache the pointer on first use, so these bounds are the ones used.
  MetricsRegistry* registry = MetricsRegistry::Global();
  const std::vector<double> bounds = LogLinearBounds();
  if (registry->GetHistogram(kLatencyHistogram, bounds)->Snapshot().bounds !=
      bounds) {
    out.errors.push_back("latency histogram exists with other bounds");
    return out;
  }

  // A warm-up rung first (fewest windows, not reported): the first
  // serve run in a process pays allocator growth and page faults in the
  // workers, which would otherwise land in the lowest rung's tail.
  std::vector<double> ladder = {cfg.warmup_rate};
  ladder.insert(ladder.end(), cfg.rates.begin(), cfg.rates.end());
  std::vector<int64_t> ladder_windows = {cfg.warmup_windows};
  ladder_windows.insert(ladder_windows.end(), cfg.windows.begin(),
                        cfg.windows.end());
  std::vector<std::unique_ptr<Rung>> rungs;
  Layer layer;
  Digest digest;
  for (size_t r = 0; r < ladder.size(); ++r) {
    const int64_t run = static_cast<int64_t>(r);
    auto rung = std::make_unique<Rung>();
    rung->rate = ladder[r];
    rung->warmup = r == 0;
    rung->max_windows = static_cast<size_t>(ladder_windows[r]);
    ScopedSpan rung_span(tracer,
                         StrFormat("serve_pool.%s:%.0f",
                                   rung->warmup ? "warmup" : "rung",
                                   rung->rate),
                         0, run);

    // Set-up takes tens of milliseconds, so it runs setup_reps times and
    // the rung reports the median. Every repetition but the last is
    // discarded, with its per-layer figures, before the registry reset.
    for (int64_t rep = 1; rep < cfg.setup_reps; ++rep) {
      Rung discarded;
      discarded.rate = rung->rate;
      discarded.warmup = rung->warmup;
      discarded.max_windows = rung->max_windows;
      Layer unused;
      const Clock::time_point setup_start = Clock::now();
      ScopedSpan span(tracer, "setup(discarded)", rung_span.id(), run);
      if (!SetUpRung(cfg, ctx, span.id(), run, &discarded, &unused,
                     &out.errors)) {
        return out;
      }
      rung->setups.push_back(SecondsSince(setup_start));
    }
    registry->Reset();
    const Clock::time_point setup_start = Clock::now();
    {
      ScopedSpan span(tracer, "setup", rung_span.id(), run);
      if (!SetUpRung(cfg, ctx, span.id(), run, rung.get(), &layer,
                     &out.errors)) {
        return out;
      }
    }
    rung->setups.push_back(SecondsSince(setup_start));
    rung->setup_s = Median(rung->setups);

    const Schedule schedule =
        MakeSchedule(rung->end_rows, rung->window_rows, rung->rate,
                     Mix(ctx.seed + 7919ull * (r + 1)));
    OfferLog log;
    {
      ScopedSpan span(tracer, "serve.ServeEngine.Offer(schedule)",
                      rung_span.id(), run);
      log = OfferSchedule(cfg, schedule, tracer->enabled(),
                          rung->engine.get(), &layer, &rung->acct);
    }
    const double t_last_offer = registry->NowSeconds();
    bool drained = false;
    {
      ScopedSpan span(tracer, "serve.ServeEngine.WaitAllFinished",
                      rung_span.id(), run);
      drained = rung->engine->WaitAllFinished(120.0);
    }
    const double t_done = registry->NowSeconds();
    layer.drain_s += t_done - t_last_offer;
    rung->wall_s = t_done - log.t_first;
    if (!drained) {
      out.errors.push_back(
          StrFormat("rate %.0f: sessions did not finish", rung->rate));
      return out;
    }

    const oebench::MetricsSnapshot snap = registry->Snapshot();
    const oebench::HistogramSnapshot& latency =
        snap.histograms.at(kLatencyHistogram);
    rung->all_p99_ms =
        1000.0 * oebench::serve::QuantileFromHistogram(latency, 0.99);
    SummarizeRung(cfg, schedule, log, rung.get(), &layer);
    const Accounting& acct = rung->acct;
    rung->achieved_rps = static_cast<double>(acct.succeeded) / rung->wall_s;
    if (latency.count != acct.succeeded) {
      out.errors.push_back(StrFormat(
          "rate %.0f: latency histogram holds %lld samples for %lld accepted "
          "records",
          rung->rate, static_cast<long long>(latency.count),
          static_cast<long long>(acct.succeeded)));
    }
    if (acct.attempted != acct.succeeded + acct.dropped + acct.shed) {
      out.errors.push_back(StrFormat(
          "rate %.0f: offered %lld != accepted %lld + dropped %lld + shed %lld",
          rung->rate, static_cast<long long>(acct.attempted),
          static_cast<long long>(acct.succeeded),
          static_cast<long long>(acct.dropped),
          static_cast<long long>(acct.shed)));
    }
    if (!rung->warmup && rung->intervals == 0) {
      out.errors.push_back(StrFormat(
          "rate %.0f: no whole %.2f s interval in the steady part",
          rung->rate, cfg.interval_s));
    }
    layer.activations +=
        CounterValue(snap.volatile_counters, "serve.activations");
    layer.records += CounterValue(snap.counters, "serve.records");
    layer.windows += CounterValue(snap.counters, "serve.windows");
    layer.items += CounterValue(snap.counters, "serve.items");
    layer.accepted += static_cast<double>(acct.succeeded);
    {
      ScopedSpan span(tracer, "verify", rung_span.id(), run);
      VerifyRung(cfg, ctx.seed, r, rung.get(), &layer, &digest, &out.errors);
    }

    out.phases.push_back({StrFormat("%s %.0f/s",
                                    rung->warmup ? "warm-up" : "rate",
                                    rung->rate),
                          acct});
    out.total.attempted += acct.attempted;
    out.total.succeeded += acct.succeeded;
    out.total.failed += acct.failed;
    out.total.dropped += acct.dropped;
    out.total.shed += acct.shed;
    out.notes.push_back(StrFormat(
        "%s %.0f/s: %zu windows/session, %lld records, p50 %.3f ms, p99 "
        "%.3f ms (medians of %zu intervals, %zu on schedule; p99 of all "
        "records %.3f ms), achieved %.0f/s, backlog %s, generator late p99 "
        "%.3f ms, set-up %.3f s, wall %.3f s, compute %.3f s -> %s",
        rung->warmup ? "warm-up" : "rate", rung->rate, rung->max_windows,
        static_cast<long long>(acct.attempted), rung->p50_ms, rung->p99_ms,
        rung->intervals, rung->valid_intervals, rung->all_p99_ms,
        rung->achieved_rps, rung->backlog_grows ? "grows" : "steady",
        rung->late_p99_ms, rung->setup_s, rung->wall_s, rung->compute_s,
        rung->meets_limit ? "meets limit" : "misses"));
    if (!out.errors.empty()) return out;
    rung->engine.reset();  // joins the workers before the next rung
    if (rung->warmup) {
      layer = Layer();
      continue;
    }
    rungs.push_back(std::move(rung));
  }
  out.digest = digest.Hex();

  std::vector<double> setups;
  double wall = 0.0;
  for (const auto& rung : rungs) {
    setups.insert(setups.end(), rung->setups.begin(), rung->setups.end());
    wall += rung->wall_s;
  }
  // The last rung offers more than the engine can take, so block
  // admission holds the generator back and the records accepted per
  // second are the engine's capacity. If that rung met the latency
  // limit, the engine kept up and its rate, not the engine, is the cap.
  const Rung& overload = *rungs.back();
  if (overload.meets_limit) {
    out.notes.push_back(StrFormat(
        "the overload rate %.0f/s met the latency limit: max_rate_rps is "
        "capped by it; raise the last serve rate",
        overload.rate));
  }
  const double lost = static_cast<double>(out.total.dropped + out.total.shed +
                                          out.total.failed);
  out.end_to_end["wall_s"] = wall;
  out.end_to_end["setup_s"] = Median(setups);
  out.end_to_end["max_rate_rps"] = overload.achieved_rps;
  out.end_to_end["peak_rss_mib"] = PeakRssMib();
  out.end_to_end["ok_frac"] =
      1.0 - lost / static_cast<double>(out.total.attempted);

  if (tracer->enabled()) {
    std::map<std::string, double>& m = out.per_layer;
    m["streamgen.generate_s"] = layer.generate_s;
    m["streamgen.rows"] = layer.rows;
    m["preprocess.prepare_s"] = layer.prepare_s;
    m["preprocess.windows"] = layer.windows;
    m["preprocess.rows"] = layer.items;
    double compute = 0.0;
    for (const auto& [name, seconds] : layer.train_s) {
      m["models.train_s." + name] = seconds;
      m["models.test_s." + name] = layer.test_s[name];
      m["models.items." + name] = layer.learner_items[name];
      compute += seconds + layer.test_s[name];
    }
    m["serve.init_s"] = layer.init_s;
    m["serve.state_pool.hits"] = layer.pool_hits;
    m["serve.state_pool.misses"] = layer.pool_misses;
    m["serve.state_pool.bytes_held"] = layer.pool_bytes;
    m["serve.offer_s"] = layer.offer_s;
    m["serve.offers"] = layer.offers;
    m["serve.offer_rejects"] = layer.rejects;
    m["serve.accept_ratio"] =
        layer.data_offers > 0.0 ? layer.accepted / layer.data_offers : 0.0;
    m["serve.backlog_peak"] = layer.backlog_peak;
    m["serve.activations"] = layer.activations;
    m["serve.records_per_activation"] =
        layer.activations > 0.0 ? layer.records / layer.activations : 0.0;
    m["serve.compute_s"] = compute;
    m["serve.drain_s"] = layer.drain_s;
    m["serve.p50_ms.low"] = rungs[0]->p50_ms;
    m["serve.p99_ms.low"] = rungs[0]->p99_ms;
    m["serve.p50_ms.high"] = rungs[1]->p50_ms;
    m["serve.p99_ms.high"] = rungs[1]->p99_ms;
    m["loadgen.late_p99_ms"] =
        std::max(rungs[0]->late_p99_ms, rungs[1]->late_p99_ms);
  }
  return out;
}

}  // namespace perfbench
