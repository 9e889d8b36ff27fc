// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// bench_pipeline: end-to-end and per-layer benchmark of the production
// path — mapped CSV (ReadCsvMappedFile, the CLI's --mmap loader) → router
// → shard ring queues → engine → shedder → merged matches, or, for the
// shedding workload, mapped CSV → ShedRunner with the registry's hybrid
// (the CLI's --shedder path). Every layer is measured from outside: the
// bench times its calls into public functions, stamps events in
// ShardRuntimeOptions::ingest_tap, and wraps the shedder in a forwarding
// ProbeShedder (probe_shedder.h). No library code is instrumented.
//
//   bench_pipeline --workload W --seed N --data DIR --generate
//       writes the workload's seeded input CSVs into DIR and exits;
//   bench_pipeline --workload W --seed N --data DIR --seconds S
//                  [--trace 0|1] [--trace-out FILE] [--smoke]
//       runs the workload over them and prints one line per metric,
//       `<workload> <metric> <value> <unit>`, then one JSON object
//       {"correct", "attempted", "failed", "metrics"}. --trace 0 prints
//       the end-to-end metrics, --trace 1 the per-layer ones (from
//       alternating untraced/traced passes) and writes a Chrome trace.
//
// Generation is a separate process so that the run's peak RSS holds only
// what the pipeline itself keeps. bench/pipeline/run.py drives both steps.
//
// Run protocol: set up; run the plain single-threaded Engine::Process loop
// over every input segment as the reference (match set, checksum,
// shard_speedup baseline); one untimed warm-up pass, so that no timed pass
// runs on cold caches and a fresh allocator; then timed passes, cycling
// through the segments, until --seconds have elapsed, with set-up repeated
// between them. End-to-end metrics take each segment's best pass and the
// median over segments, per-layer metrics the median over traced passes,
// set-up metrics a low quantile of the repetitions. Every pass is checked
// against its segment's reference; any mismatch fails the run.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/pipeline/probe_shedder.h"
#include "src/runtime/experiment.h"
#include "src/runtime/shard_runtime.h"
#include "src/shed/registry.h"
#include "src/workload/csv.h"
#include "src/workload/csv_mmap.h"
#include "src/workload/ds1.h"
#include "src/workload/google_trace.h"
#include "src/workload/queries.h"

#ifndef CEPSHED_BENCH_BUILD_TYPE
#define CEPSHED_BENCH_BUILD_TYPE ""
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CEPSHED_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CEPSHED_BENCH_SANITIZED 1
#endif
#endif
#ifndef CEPSHED_BENCH_SANITIZED
#define CEPSHED_BENCH_SANITIZED 0
#endif

namespace cepshed::pipeline {
namespace {

// --- Workloads ---------------------------------------------------------------

enum class Dataset { kDs1, kGoogle };

struct WorkloadSpec {
  const char* name;
  Dataset dataset;
  /// Single engine through ShedRunner + hybrid; otherwise ShardRuntime::Run
  /// hash-partitioned over kShards without shedding.
  bool hybrid;
  /// > 0: open loop at this many events/s; 0: closed loop.
  double pace_eps;
};

// Why each workload is in the set, and why the Google stream runs only as
// an open loop, is recorded in README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"ds1_q1_hash2", Dataset::kDs1, false, 0.0},
    {"google_churn_paced", Dataset::kGoogle, false, 500'000.0},
    {"ds1_q1_hybrid", Dataset::kDs1, true, 0.0},
};

/// A router thread plus two spin-yield workers: three busy threads.
constexpr int kShards = 2;
/// Passes cycle through this many independently seeded input segments.
/// The detection tail is set by a few data-dependent pauses per segment
/// (store compaction), so one segment replayed would make every run's
/// tail a property of its seed.
constexpr int kSegments = 8;
/// Events per segment; --smoke divides them by kSmokeDivisor.
constexpr size_t kDs1SegmentEvents = 50'000;
constexpr size_t kDs1TrainEvents = 20'000;
constexpr size_t kGoogleSegmentEvents = 250'000;
constexpr size_t kSmokeDivisor = 100;
/// Hybrid latency bound as a fraction of the unshed average latency.
constexpr double kHybridBound = 0.5;
/// An open-loop event injected this late counts toward paced_late_frac.
constexpr int64_t kLateNs = 50'000;
/// Set-up repetitions before the first pass, and (sharded set-up takes
/// microseconds) after every pass, so that they sample the whole run.
constexpr int kInitialSetupReps = 3;
constexpr int kSetupRepsPerPass = 20;
/// Set-up metrics are this quantile of the run's repetitions.
constexpr double kSetupQuantile = 0.10;
/// Step samples per shard written to the Chrome trace.
constexpr size_t kTraceStepCap = 5000;

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Schema MakeSchema(Dataset d) {
  return d == Dataset::kDs1 ? MakeDs1Schema() : MakeGoogleTraceSchema();
}

Result<Query> MakeQuery(Dataset d) {
  return d == Dataset::kDs1 ? queries::Q1("8ms") : queries::GoogleTaskChurn();
}

const char* PartitionAttr(Dataset d) { return d == Dataset::kDs1 ? "ID" : "task"; }

/// Generator seed of one stream of the benchmark seed. Both workloads of a
/// dataset share their data, so the salt names the stream, not the
/// workload.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;  // SplitMix64
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string SegmentCsv(const std::string& dir, int k) {
  return dir + "/segment-" + std::to_string(k) + ".csv";
}
std::string TrainCsv(const std::string& dir) { return dir + "/train.csv"; }

Status Generate(const WorkloadSpec& w, uint64_t seed, size_t divisor,
                const std::string& dir) {
  const Schema schema = MakeSchema(w.dataset);
  for (int k = 0; k < kSegments; ++k) {
    if (w.dataset == Dataset::kGoogle) {
      GoogleTraceOptions o;
      o.num_events = kGoogleSegmentEvents / divisor;
      o.seed = DeriveSeed(seed, 3000 + static_cast<uint64_t>(k));
      CEPSHED_RETURN_NOT_OK(WriteCsvFile(GenerateGoogleTrace(schema, o), SegmentCsv(dir, k)));
    } else {
      Ds1Options o;
      o.num_events = kDs1SegmentEvents / divisor;
      o.seed = DeriveSeed(seed, 1000 + static_cast<uint64_t>(k));
      CEPSHED_RETURN_NOT_OK(WriteCsvFile(GenerateDs1(schema, o), SegmentCsv(dir, k)));
    }
  }
  if (!w.hybrid) return Status::OK();
  Ds1Options o;
  o.num_events = kDs1TrainEvents / divisor;
  o.seed = DeriveSeed(seed, 2000);
  return WriteCsvFile(GenerateDs1(schema, o), TrainCsv(dir));
}

// --- Statistics ----------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid), v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  return 0.5 * (hi + *std::max_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid)));
}

/// Element floor(q * (n-1)) of the sorted samples: the rank convention of
/// ShedRunner and the obs histograms.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t i =
      std::min(v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size() - 1)));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(i), v.end());
  return v[i];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Pearson(const std::vector<double>& x, const std::vector<double>& y) {
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  return sxx > 0.0 && syy > 0.0 ? sxy / std::sqrt(sxx * syy) : 0.0;
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// --- Match identity ------------------------------------------------------------

/// FNV-1a over (detected_at, event seqs) of one match.
uint64_t MatchHash(const Match& m) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<uint64_t>(m.detected_at));
  for (const EventPtr& e : m.events) mix(e->seq());
  return h;
}

/// Order-independent digest of a match set: a sharded run merges matches
/// in (detected_at, key) order, the reference emits them in stream order.
struct MatchDigest {
  uint64_t count = 0;
  uint64_t sum = 0;  // wrapping sum of MatchHash
  bool operator==(const MatchDigest& o) const { return count == o.count && sum == o.sum; }
};

/// One input segment and what the single-engine reference found in it.
struct Segment {
  std::string csv;
  uint64_t events = 0;
  std::vector<uint64_t> match_hashes;  // sorted
  MatchDigest digest;
  double wall_s = 0.0;  // the reference Engine::Process loop alone
  double cost = 0.0;    // its total cost units
  /// The first hybrid pass over the segment; later ones must equal it.
  std::optional<MatchDigest> shed_digest;
};

// --- Passes --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool higher_is_better = false;
};

/// One timed run of the workload's path over one segment, from
/// ReadCsvMappedFile to the run result in hand.
struct PassResult {
  int segment = 0;
  bool traced = false;
  uint64_t events = 0;
  uint64_t failed = 0;  // lost + rejected
  int64_t begin_ns = 0;
  double load_s = 0.0;
  double run_s = 0.0;
  /// The run loop's own wall time (ShardRunResult / RunResult::wall_seconds).
  double wall_s = 0.0;
  MatchDigest digest;
  uint64_t found_in_reference = 0;
  EngineStats stats;
  std::vector<uint64_t> shard_events;
  uint64_t dropped = 0;
  uint64_t shed_pms = 0;
  uint64_t bound_checked = 0;
  uint64_t bound_violations = 0;
  uint64_t late = 0;
  /// Router work between a tap's return and the next sampled tap's entry
  /// (sharded traced passes).
  double router_work_ns = 0.0;
  uint64_t router_samples = 0;
  std::vector<ShardRecord> records;
  /// This pass's values: end-to-end metrics of an untraced pass, per-layer
  /// metrics of a traced one, summarised over the run by BestPerSegment or
  /// MedianOverPasses.
  std::vector<Metric> metrics;

  double throughput() const { return Ratio(static_cast<double>(events), load_s + run_s); }
};

/// Every shard's detection samples of one pass.
std::vector<double> DetectSamples(const PassResult& p) {
  std::vector<double> detect;
  for (const ShardRecord& r : p.records) {
    detect.insert(detect.end(), r.detect_us.begin(), r.detect_us.end());
  }
  return detect;
}

/// Per metric: the median of the passes' values.
std::vector<Metric> MedianOverPasses(const std::vector<const PassResult*>& passes) {
  std::vector<Metric> out;
  for (size_t i = 0; i < passes.front()->metrics.size(); ++i) {
    std::vector<double> values;
    for (const PassResult* p : passes) values.push_back(p->metrics[i].value);
    out.push_back(passes.front()->metrics[i]);
    out.back().value = Median(values);
  }
  return out;
}

/// Per metric: each segment's best pass, then the median over segments.
/// Other tenants of the machine can only slow a pass down, so the best of a
/// segment's passes filters them out, and the median over independently
/// seeded segments keeps the spread of the data.
std::vector<Metric> BestPerSegment(const std::vector<const PassResult*>& passes) {
  std::vector<Metric> out;
  for (size_t i = 0; i < passes.front()->metrics.size(); ++i) {
    const Metric& m = passes.front()->metrics[i];
    std::vector<std::optional<double>> best(kSegments);
    for (const PassResult* p : passes) {
      const double v = p->metrics[i].value;
      std::optional<double>& b = best[static_cast<size_t>(p->segment)];
      if (!b.has_value() || (m.higher_is_better ? v > *b : v < *b)) b = v;
    }
    std::vector<double> values;
    for (const std::optional<double>& b : best) {
      if (b.has_value()) values.push_back(*b);
    }
    out.push_back(m);
    out.back().value = Median(values);
  }
  return out;
}

struct Options {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 1;
  std::string data_dir;
  bool generate = false;
  double seconds = 20.0;
  bool traced = false;
  std::string trace_out;
  bool smoke = false;
};

class PipelineBench {
 public:
  explicit PipelineBench(Options opts)
      : opts_(std::move(opts)), w_(*opts_.workload), schema_(MakeSchema(w_.dataset)) {}

  /// Runs the whole protocol and prints the metrics. An error Status means
  /// the run could not complete; a wrong result clears correct() instead.
  Status Run();
  bool correct() const { return correct_; }

 private:
  Status SetUp();
  /// One repetition of the set-up setup_s times: query parse, Nfa::Compile,
  /// and ShardRuntime::Create or ExperimentHarness::Prepare.
  Status SetUpOnce();
  Status RunReference(Segment* seg);
  Result<PassResult> RunPass(int segment, bool traced);
  Status RunShardedPass(PassResult* p, const EventStream& stream);
  Status RunHybridPass(PassResult* p, const EventStream& stream);
  void Digest(const std::vector<Match>& matches, PassResult* p) const;
  void Check(const PassResult& p);
  void Fail(const std::string& what) {
    std::fprintf(stderr, "%s: correctness: %s\n", w_.name, what.c_str());
    correct_ = false;
  }
  /// Router tap: paces an open loop, stamps ingest times.
  void Tap(const EventPtr& event);
  std::vector<Metric> EndToEndMetrics(const PassResult& p) const;
  std::vector<Metric> LayerMetrics(const PassResult& p) const;
  Status WriteTrace(const PassResult& pass, const std::vector<Metric>& layer) const;
  Result<std::unique_ptr<ShardRuntime>> CreateRuntime(std::shared_ptr<const Nfa> nfa,
                                                      bool with_tap);

  Options opts_;
  const WorkloadSpec& w_;
  Schema schema_;
  bool correct_ = true;
  std::vector<Segment> segments_;

  // Set-up.
  std::vector<double> setup_s_, compile_ms_, runtime_setup_ms_;
  int64_t setup_begin_ns_ = 0, setup_end_ns_ = 0;
  std::shared_ptr<const Nfa> nfa_;
  std::unique_ptr<ShardRuntime> runtime_;         // production configuration
  std::unique_ptr<ShardRuntime> traced_runtime_;  // with a stamping tap
  std::unique_ptr<EventStream> train_, test_;  // hybrid set-up inputs
  std::unique_ptr<ExperimentHarness> harness_;
  double theta_ = 0.0;

  // Router-side pass state (the tap runs on the calling thread).
  std::vector<int64_t> stamps_;
  int64_t pace_origin_ns_ = 0;
  int64_t tap_exit_ns_ = 0;
  PassResult* tap_pass_ = nullptr;
};

Result<std::unique_ptr<ShardRuntime>> PipelineBench::CreateRuntime(
    std::shared_ptr<const Nfa> nfa, bool with_tap) {
  ShardRuntimeOptions opts;
  opts.num_shards = kShards;
  opts.routing = ShardRouting::kHashPartition;
  opts.partition_attr = schema_.AttributeIndex(PartitionAttr(w_.dataset));
  if (with_tap) {
    opts.ingest_tap = [this](const EventPtr& event, const std::vector<int>&) { Tap(event); };
  }
  return ShardRuntime::Create(std::move(nfa), std::move(opts));
}

void PipelineBench::Tap(const EventPtr& event) {
  const uint64_t seq = event->seq();
  const bool paced = w_.pace_eps > 0.0;
  const bool traced = tap_pass_->traced;
  int64_t now = paced || Sampled(seq) ? NowNs() : 0;
  if (traced && Sampled(seq) && tap_exit_ns_ > 0) {
    tap_pass_->router_work_ns += static_cast<double>(now - tap_exit_ns_);
    ++tap_pass_->router_samples;
  }
  if (paced) {
    if (seq == 0) pace_origin_ns_ = now;
    const int64_t due =
        pace_origin_ns_ + static_cast<int64_t>(static_cast<double>(seq) * 1e9 / w_.pace_eps);
    if (now - due > kLateNs) ++tap_pass_->late;
    while (now < due) now = NowNs();
    stamps_[seq] = due;
  } else if (Sampled(seq)) {
    stamps_[seq] = now;
  }
  tap_exit_ns_ = traced && Sampled(seq + 1) ? NowNs() : 0;
}

Status PipelineBench::SetUp() {
  if (w_.hybrid) {
    CEPSHED_ASSIGN_OR_RETURN(EventStream t, ReadCsvMappedFile(schema_, TrainCsv(opts_.data_dir)));
    train_ = std::make_unique<EventStream>(std::move(t));
    CEPSHED_ASSIGN_OR_RETURN(EventStream s, ReadCsvMappedFile(schema_, segments_[0].csv));
    test_ = std::make_unique<EventStream>(std::move(s));
  }
  setup_begin_ns_ = NowNs();
  for (int rep = 0; rep < kInitialSetupReps; ++rep) CEPSHED_RETURN_NOT_OK(SetUpOnce());
  setup_end_ns_ = NowNs();
  if (w_.hybrid) {
    theta_ = kHybridBound * harness_->BaselineLatency(LatencyStat::kAverage);
    train_.reset();
    test_.reset();
  } else if (opts_.traced && w_.pace_eps == 0.0) {
    CEPSHED_ASSIGN_OR_RETURN(traced_runtime_, CreateRuntime(nfa_, /*with_tap=*/true));
  }
  return Status::OK();
}

Status PipelineBench::SetUpOnce() {
  const int64_t t0 = NowNs();
  CEPSHED_ASSIGN_OR_RETURN(Query query, MakeQuery(w_.dataset));
  CEPSHED_ASSIGN_OR_RETURN(std::shared_ptr<const Nfa> nfa, Nfa::Compile(query, &schema_));
  const int64_t t1 = NowNs();
  if (w_.hybrid) {
    // The latency bound derives from the unshed latency of segment 0; the
    // segments share one generator configuration.
    auto harness = std::make_unique<ExperimentHarness>(&schema_, query, HarnessOptions{});
    CEPSHED_RETURN_NOT_OK(harness->Prepare(*train_, *test_));
    harness_ = std::move(harness);
  } else {
    CEPSHED_ASSIGN_OR_RETURN(runtime_, CreateRuntime(nfa, w_.pace_eps > 0.0));
  }
  const int64_t t2 = NowNs();
  setup_s_.push_back(Seconds(t2 - t0));
  compile_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
  runtime_setup_ms_.push_back(static_cast<double>(t2 - t1) / 1e6);
  nfa_ = std::move(nfa);
  return Status::OK();
}

Status PipelineBench::RunReference(Segment* seg) {
  CEPSHED_ASSIGN_OR_RETURN(EventStream stream, ReadCsvMappedFile(schema_, seg->csv));
  seg->events = stream.size();
  Engine engine(nfa_, EngineOptions{});
  std::vector<Match> matches;
  const int64_t t0 = NowNs();
  for (const EventPtr& event : stream) engine.Process(event, &matches);
  seg->wall_s = Seconds(NowNs() - t0);
  seg->cost = engine.stats().total_cost;
  for (const Match& m : matches) {
    const uint64_t h = MatchHash(m);
    seg->match_hashes.push_back(h);
    ++seg->digest.count;
    seg->digest.sum += h;
  }
  std::sort(seg->match_hashes.begin(), seg->match_hashes.end());
  if (std::adjacent_find(seg->match_hashes.begin(), seg->match_hashes.end()) !=
      seg->match_hashes.end()) {
    return Status::Internal("reference match hashes collide in " + seg->csv);
  }
  if (matches.empty()) return Status::Internal("the reference found no matches in " + seg->csv);
  return Status::OK();
}

void PipelineBench::Digest(const std::vector<Match>& matches, PassResult* p) const {
  const std::vector<uint64_t>& reference = segments_[static_cast<size_t>(p->segment)].match_hashes;
  for (const Match& m : matches) {
    const uint64_t h = MatchHash(m);
    ++p->digest.count;
    p->digest.sum += h;
    p->found_in_reference += std::binary_search(reference.begin(), reference.end(), h);
  }
}

Status PipelineBench::RunShardedPass(PassResult* p, const EventStream& stream) {
  PassContext ctx;
  ctx.traced = p->traced;
  ctx.paced = w_.pace_eps > 0.0;
  ctx.stamps = ctx.paced || p->traced ? &stamps_ : nullptr;
  tap_pass_ = p;
  tap_exit_ns_ = 0;
  ShardRuntime* rt = traced_runtime_ != nullptr && p->traced ? traced_runtime_.get()
                                                             : runtime_.get();
  const int64_t t0 = NowNs();
  CEPSHED_ASSIGN_OR_RETURN(ShardRunResult r,
                           rt->Run(stream, [&](int shard) -> std::unique_ptr<Shedder> {
                             return std::make_unique<ProbeShedder>(
                                 std::make_unique<NoShedder>(), &ctx,
                                 &p->records[static_cast<size_t>(shard)], shard);
                           }));
  p->run_s = Seconds(NowNs() - t0);
  p->wall_s = r.wall_seconds;
  p->failed = r.lost_events;
  p->stats = r.stats;
  p->dropped = r.dropped_events;
  p->shed_pms = r.shed_pms;
  for (const ShardResult& s : r.shards) {
    p->shard_events.push_back(s.events_routed);
    p->bound_checked += s.bound_checked;
    p->bound_violations += s.bound_violations;
  }
  Digest(r.matches, p);
  return Status::OK();
}

Status PipelineBench::RunHybridPass(PassResult* p, const EventStream& stream) {
  PassContext ctx;
  ctx.traced = p->traced;
  const int64_t t0 = NowNs();
  // What ExperimentHarness::RunBoundSpec("hybrid", kHybridBound) does, with
  // the strategy wrapped in the probe.
  const ShedderContext shed_ctx =
      harness_->MakeContext(theta_, /*fraction=*/-1.0, harness_->options().seed);
  CEPSHED_ASSIGN_OR_RETURN(std::unique_ptr<Shedder> hybrid,
                           ShedderRegistry::Instance().Create("hybrid", shed_ctx));
  ProbeShedder probe(std::move(hybrid), &ctx, &p->records[0], 0);
  Engine engine(harness_->nfa(), harness_->options().engine);
  ShedRunner runner(&engine, &probe, harness_->options().latency);
  const RunResult r = runner.Run(stream);
  p->run_s = Seconds(NowNs() - t0);
  p->wall_s = r.wall_seconds;
  p->stats = r.engine_stats;
  p->shard_events.push_back(r.total_events);
  p->dropped = r.dropped_events;
  p->shed_pms = r.shed_pms;
  p->bound_checked = r.bound_checked;
  p->bound_violations = r.bound_violations;
  Digest(r.matches, p);
  return Status::OK();
}

Result<PassResult> PipelineBench::RunPass(int segment, bool traced) {
  PassResult p;
  p.segment = segment;
  p.traced = traced;
  p.records.resize(w_.hybrid ? 1 : kShards);
  const Segment& seg = segments_[static_cast<size_t>(segment)];
  // Untimed: the stamp slots the tap writes during the run.
  if (!w_.hybrid && (w_.pace_eps > 0.0 || traced)) stamps_.assign(seg.events, -1);
  p.begin_ns = NowNs();
  CEPSHED_ASSIGN_OR_RETURN(EventStream stream, ReadCsvMappedFile(schema_, seg.csv));
  p.load_s = Seconds(NowNs() - p.begin_ns);
  p.events = stream.size();
  CEPSHED_RETURN_NOT_OK(w_.hybrid ? RunHybridPass(&p, stream) : RunShardedPass(&p, stream));
  Check(p);
  p.metrics = traced ? LayerMetrics(p) : EndToEndMetrics(p);
  return p;
}

void PipelineBench::Check(const PassResult& p) {
  Segment& seg = segments_[static_cast<size_t>(p.segment)];
  if (p.events != seg.events) Fail("pass read a different number of events");
  if (w_.hybrid) {
    // Q1 has no negation, so shedding can only lose matches, never invent
    // them; and the cost-unit clock makes the shedding deterministic.
    if (p.found_in_reference != p.digest.count) Fail("hybrid precision below 1.0");
    if (!seg.shed_digest.has_value()) seg.shed_digest = p.digest;
    if (!(*seg.shed_digest == p.digest)) Fail("hybrid passes found different match sets");
  } else if (!(p.digest == seg.digest)) {
    Fail("match checksum differs from the single-engine reference");
  }
}

Status PipelineBench::Run() {
  segments_.resize(kSegments);
  for (int k = 0; k < kSegments; ++k) {
    segments_[static_cast<size_t>(k)].csv = SegmentCsv(opts_.data_dir, k);
  }
  CEPSHED_RETURN_NOT_OK(SetUp());
  for (Segment& seg : segments_) CEPSHED_RETURN_NOT_OK(RunReference(&seg));
  CEPSHED_RETURN_NOT_OK(RunPass(0, /*traced=*/false).status());  // warm-up
  // A traced run gives each segment an untraced and a traced pass in turn:
  // the per-layer numbers come from the traced ones, and the two
  // throughputs give the tracing overhead.
  const int per_segment = opts_.traced ? 2 : 1;
  const int64_t end_ns = NowNs() + static_cast<int64_t>(opts_.seconds * 1e9);
  std::vector<PassResult> passes;
  std::optional<PassResult> trace_pass;
  for (int i = 0; i < kSegments * per_segment || NowNs() < end_ns; ++i) {
    CEPSHED_ASSIGN_OR_RETURN(
        PassResult p, RunPass((i / per_segment) % kSegments, opts_.traced && i % 2 == 1));
    if (p.traced && !trace_pass.has_value()) trace_pass = p;
    p.records.clear();  // bounded memory: only the summaries stay
    passes.push_back(std::move(p));
    for (int rep = 0; !w_.hybrid && rep < kSetupRepsPerPass; ++rep) {
      CEPSHED_RETURN_NOT_OK(SetUpOnce());
    }
  }

  std::vector<const PassResult*> reported;
  std::vector<double> traced_tput, untraced_tput;
  uint64_t attempted = 0, failed = 0;
  for (const PassResult& p : passes) {
    if (p.traced == opts_.traced) reported.push_back(&p);
    (p.traced ? traced_tput : untraced_tput).push_back(p.throughput());
    attempted += p.events;
    failed += p.failed;
  }
  std::vector<Metric> metrics =
      opts_.traced ? MedianOverPasses(reported) : BestPerSegment(reported);
  if (opts_.traced) {
    metrics.push_back({"query.compile_ms", Quantile(compile_ms_, kSetupQuantile), "ms"});
    metrics.push_back({"runtime.setup_ms", Quantile(runtime_setup_ms_, kSetupQuantile), "ms"});
    metrics.push_back({"trace.overhead_frac",
                       1.0 - Ratio(Median(traced_tput), Median(untraced_tput)), "fraction"});
    if (!opts_.trace_out.empty()) CEPSHED_RETURN_NOT_OK(WriteTrace(*trace_pass, metrics));
  } else {
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    metrics.push_back({"setup_s", Quantile(setup_s_, kSetupQuantile), "s"});
    metrics.push_back({"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"});
  }

  std::printf("# %s: %zu %s passes over %d segments of %llu events (%s), %zu set-ups\n",
              w_.name, reported.size(), opts_.traced ? "traced" : "untraced", kSegments,
              static_cast<unsigned long long>(segments_[0].events),
              opts_.traced ? "median over passes" : "best pass per segment, median over segments",
              setup_s_.size());
  for (const Metric& m : metrics) {
    std::printf("%s %s %.6g %s\n", w_.name, m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct_ ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return Status::OK();
}

std::vector<Metric> PipelineBench::EndToEndMetrics(const PassResult& p) const {
  return {
      {"throughput_eps", p.throughput(), "events/s", /*higher_is_better=*/true},
      {"detect_p50_us", Quantile(DetectSamples(p), 0.50), "us"},
      {"recall",
       Ratio(static_cast<double>(p.found_in_reference),
             static_cast<double>(segments_[static_cast<size_t>(p.segment)].digest.count)),
       "fraction", /*higher_is_better=*/true},
  };
}

std::vector<Metric> PipelineBench::LayerMetrics(const PassResult& p) const {
  const Segment& seg = segments_[static_cast<size_t>(p.segment)];
  std::vector<double> dwell_ns, process_ns, cost_units, filter_ns, after_ns;
  double max_busy = 0.0;
  uint64_t reaped = 0;
  size_t peak_bytes = 0;
  for (size_t s = 0; s < p.records.size(); ++s) {
    const ShardRecord& r = p.records[s];
    reaped += r.expiry_reaped;
    peak_bytes += r.peak_state_bytes;
    std::vector<double> step_ns;
    for (const StepSample& x : r.steps) {
      step_ns.push_back(static_cast<double>(x.after_out_ns - x.filter_in_ns));
      filter_ns.push_back(static_cast<double>(x.filter_out_ns - x.filter_in_ns));
      after_ns.push_back(static_cast<double>(x.after_out_ns - x.after_in_ns));
      if (x.ingest_ns >= 0) dwell_ns.push_back(static_cast<double>(x.filter_in_ns - x.ingest_ns));
      if (!x.dropped) {
        process_ns.push_back(static_cast<double>(x.after_in_ns - x.filter_out_ns));
        cost_units.push_back(x.cost_units);
      }
    }
    max_busy = std::max(max_busy, Mean(step_ns) * static_cast<double>(p.shard_events[s]) /
                                      (p.wall_s * 1e9));
  }
  // The router's own work per event runs from one tap's return to the
  // next tap's entry, which leaves out an open loop's pacing spin; the
  // single-engine runner has no router, and its own per-event time is the
  // gap between one step's exit and the next step's entry.
  const double router_ns = w_.hybrid ? Mean(dwell_ns)
                                     : Ratio(p.router_work_ns,
                                             static_cast<double>(p.router_samples));
  const double max_events =
      static_cast<double>(*std::max_element(p.shard_events.begin(), p.shard_events.end()));
  double process_sum = 0.0, cost_sum = 0.0;
  for (size_t i = 0; i < process_ns.size(); ++i) {
    process_sum += process_ns[i];
    cost_sum += cost_units[i];
  }
  const EngineStats& st = p.stats;
  const double processed = static_cast<double>(st.events_processed);
  const auto per_event = [processed](uint64_t count) {
    return Ratio(static_cast<double>(count), processed);
  };
  return {
      {"workload.parse_s", p.load_s, "s"},
      {"workload.parse_ns_per_event", p.load_s * 1e9 / static_cast<double>(p.events), "ns"},
      {"workload.parse_share", Ratio(p.load_s, p.load_s + p.run_s), "fraction"},
      {"runtime.router_ns_per_event", router_ns, "ns"},
      {"runtime.queue_dwell_p50_us", Quantile(dwell_ns, 0.50) / 1e3, "us"},
      {"runtime.queue_dwell_p99_us", Quantile(dwell_ns, 0.99) / 1e3, "us"},
      // The tail of detect_p50_us. Not an end-to-end bound: on the paced
      // workload it is set by store-compaction pauses, whose wall time
      // follows the memory speed of a shared machine.
      {"runtime.detect_p99_us", Quantile(DetectSamples(p), 0.99), "us"},
      {"runtime.shard_busy_frac_max", max_busy, "fraction"},
      {"runtime.shard_event_skew",
       Ratio(max_events * static_cast<double>(p.shard_events.size()),
             static_cast<double>(p.events)),
       "ratio"},
      // Run() minus the run loop's own wall time: building the shard states
      // before its clock starts, and the merge after it stops.
      {"runtime.merge_s", p.run_s - p.wall_s, "s"},
      {"runtime.shard_speedup", Ratio(seg.wall_s, p.run_s), "ratio"},
      {"runtime.paced_late_frac",
       Ratio(static_cast<double>(p.late), static_cast<double>(p.events)), "fraction"},
      {"cep.process_ns_per_event", Mean(process_ns), "ns"},
      {"cep.process_p99_ns", Quantile(process_ns, 0.99), "ns"},
      {"cep.candidates_per_event", per_event(st.candidates_scanned), "count/event"},
      {"cep.predicate_evals_per_event", per_event(st.predicate_evals), "count/event"},
      {"cep.index_probes_per_event", per_event(st.index_probes), "count/event"},
      {"cep.pms_created_per_event", per_event(st.pms_created + st.witnesses_created),
       "count/event"},
      {"cep.matches_per_event", per_event(st.matches_emitted), "count/event"},
      {"cep.pms_evicted_per_event", per_event(st.pms_evicted), "count/event"},
      {"cep.expiry_reaped_per_event", per_event(reaped), "count/event"},
      {"cep.bind_yield",
       Ratio(static_cast<double>(st.pms_created + st.matches_emitted),
             static_cast<double>(st.candidates_scanned)),
       "ratio"},
      {"cep.peak_pms", static_cast<double>(st.peak_pms), "count"},
      {"cep.peak_state_bytes", static_cast<double>(peak_bytes), "bytes"},
      {"cep.cost_units_per_event", Ratio(st.total_cost, processed), "cu"},
      {"cep.ns_per_cost_unit", Ratio(process_sum, cost_sum), "ns/cu"},
      {"cep.cost_wall_corr", Pearson(cost_units, process_ns), "r"},
      {"shed.filter_ns_per_event", Mean(filter_ns), "ns"},
      {"shed.after_event_ns_per_event", Mean(after_ns), "ns"},
      {"shed.after_event_p99_ns", Quantile(after_ns, 0.99), "ns"},
      {"shed.drop_ratio", Ratio(static_cast<double>(p.dropped), static_cast<double>(p.events)),
       "fraction"},
      {"shed.pm_shed_ratio",
       Ratio(static_cast<double>(p.shed_pms),
             static_cast<double>(st.pms_created + st.witnesses_created)),
       "fraction"},
      // Against the plain unshed Engine::Process loop over the segment.
      {"shed.cost_saved_frac", w_.hybrid ? 1.0 - Ratio(st.total_cost, seg.cost) : 0.0,
       "fraction"},
      {"shed.wall_saved_frac", w_.hybrid ? 1.0 - Ratio(p.wall_s, seg.wall_s) : 0.0, "fraction"},
      {"shed.bound_violation_ratio",
       Ratio(static_cast<double>(p.bound_violations), static_cast<double>(p.bound_checked)),
       "fraction"},
  };
}

// --- Chrome trace ---------------------------------------------------------------

/// Writes Chrome trace-event JSON (Perfetto and chrome://tracing open it).
/// Steps nest on their thread's track as "X" slices; `event` and its
/// `runtime.queue` child cross from the router to a shard and overlap other
/// events' slices, so they are async b/e pairs keyed by the event's seq.
class TraceWriter {
 public:
  TraceWriter(std::FILE* f, int64_t origin_ns) : f_(f), origin_ns_(origin_ns) {}

  void Meta(const char* what, int tid, const std::string& name) {
    Emit("{\"name\": \"%s\", \"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"args\": {\"name\": \"%s\"}}",
         what, tid, name.c_str());
  }

  void Slice(const char* name, int tid, int64_t begin_ns, int64_t end_ns, int64_t seq,
             uint64_t id, uint64_t parent) {
    Emit("{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
         "\"dur\": %.3f, \"args\": {\"seq\": %lld, \"id\": %llu, \"parent\": %llu}}",
         name, tid, Us(begin_ns), static_cast<double>(end_ns - begin_ns) / 1e3,
         static_cast<long long>(seq), static_cast<unsigned long long>(id),
         static_cast<unsigned long long>(parent));
  }

  void Async(const char* name, int tid, int64_t begin_ns, int64_t end_ns, uint64_t seq,
             uint64_t id, uint64_t parent) {
    for (const auto& [ph, ts] : {std::pair{"b", begin_ns}, std::pair{"e", end_ns}}) {
      Emit("{\"name\": \"%s\", \"cat\": \"event\", \"ph\": \"%s\", \"id\": %llu, \"pid\": 1, "
           "\"tid\": %d, \"ts\": %.3f, \"args\": {\"seq\": %llu, \"id\": %llu, \"parent\": %llu}}",
           name, ph, static_cast<unsigned long long>(seq), tid, Us(ts),
           static_cast<unsigned long long>(seq), static_cast<unsigned long long>(id),
           static_cast<unsigned long long>(parent));
    }
  }

 private:
  double Us(int64_t ns) const { return static_cast<double>(ns - origin_ns_) / 1e3; }

  template <typename... Args>
  void Emit(const char* fmt, Args... args) {
    std::fputs(first_ ? "\n" : ",\n", f_);
    first_ = false;
    std::fprintf(f_, fmt, args...);
  }

  std::FILE* f_;
  int64_t origin_ns_;
  bool first_ = true;
};

/// The trace of the first traced pass, plus the set-up phase, with the
/// run's per-layer metrics as metadata.
Status PipelineBench::WriteTrace(const PassResult& pass, const std::vector<Metric>& layer) const {
  std::FILE* f = std::fopen(opts_.trace_out.c_str(), "w");
  if (f == nullptr) return Status::InvalidArgument("cannot write " + opts_.trace_out);
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [", f);
  TraceWriter t(f, setup_begin_ns_);
  t.Meta("process_name", 0, w_.name);
  t.Meta("thread_name", 0, w_.hybrid ? "runner" : "router");
  for (int s = 0; !w_.hybrid && s < kShards; ++s) {
    t.Meta("thread_name", 1 + s, "shard " + std::to_string(s));
  }
  // Whole-run spans take ids below kEventIdBase; an event's spans take
  // kEventIdBase + 8 * seq + (0..5).
  constexpr uint64_t kEventIdBase = 16;
  const int64_t run_begin = pass.begin_ns + static_cast<int64_t>(pass.load_s * 1e9);
  const int64_t run_end = run_begin + static_cast<int64_t>(pass.run_s * 1e9);
  t.Slice("setup", 0, setup_begin_ns_, setup_end_ns_, -1, 1, 0);
  t.Slice("workload.parse", 0, pass.begin_ns, run_begin, -1, 2, 0);
  t.Slice(w_.hybrid ? "shed.run" : "runtime.run", 0, run_begin, run_end, -1, 3, 0);
  t.Slice("runtime.merge", 0, run_end - static_cast<int64_t>((pass.run_s - pass.wall_s) * 1e9),
          run_end, -1, 4, 3);
  for (const ShardRecord& r : pass.records) {
    for (size_t i = 0; i < r.steps.size() && i < kTraceStepCap; ++i) {
      const StepSample& x = r.steps[i];
      const int tid = w_.hybrid ? 0 : 1 + x.shard;
      const uint64_t id = kEventIdBase + x.seq * 8;
      const int64_t seq = static_cast<int64_t>(x.seq);
      if (x.ingest_ns >= 0) {
        t.Async("event", tid, x.ingest_ns, x.after_out_ns, x.seq, id, 0);
        t.Async("runtime.queue", tid, x.ingest_ns, x.filter_in_ns, x.seq, id + 1, id);
      }
      t.Slice("shard.step", tid, x.filter_in_ns, x.after_out_ns, seq, id + 2, id);
      t.Slice("shed.filter", tid, x.filter_in_ns, x.filter_out_ns, seq, id + 3, id + 2);
      if (!x.dropped) {
        t.Slice("cep.process", tid, x.filter_out_ns, x.after_in_ns, seq, id + 4, id + 2);
      }
      t.Slice("shed.after_event", tid, x.after_in_ns, x.after_out_ns, seq, id + 5, id + 2);
    }
  }
  std::fputs("\n], \"metadata\": {", f);
  for (size_t i = 0; i < layer.size(); ++i) {
    std::fprintf(f, "%s\"%s\": %.17g", i > 0 ? ", " : "", layer[i].name.c_str(),
                 std::isfinite(layer[i].value) ? layer[i].value : 0.0);
  }
  std::fputs("}}\n", f);
  if (std::fclose(f) != 0) return Status::InvalidArgument("cannot write " + opts_.trace_out);
  return Status::OK();
}

// --- Command line ---------------------------------------------------------------

void Usage() {
  std::fprintf(stderr,
               "usage: bench_pipeline --workload NAME --seed N --data DIR --generate\n"
               "       bench_pipeline --workload NAME --seed N --data DIR --seconds S\n"
               "                      [--trace 0|1] [--trace-out FILE] [--smoke]\n"
               "workloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto take = [&]() -> const char* {
      ++i;
      return value;
    };
    if (flag == "--generate") {
      o->generate = true;
    } else if (flag == "--smoke") {
      o->smoke = true;
    } else if (value == nullptr) {
      std::fprintf(stderr, "%s needs a value\n", flag.c_str());
      return false;
    } else if (flag == "--workload") {
      o->workload = FindWorkload(take());
      if (o->workload == nullptr) {
        std::fprintf(stderr, "unknown workload %s\n", value);
        return false;
      }
    } else if (flag == "--seed") {
      o->seed = std::strtoull(take(), nullptr, 10);
    } else if (flag == "--data") {
      o->data_dir = take();
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(take(), nullptr);
    } else if (flag == "--trace") {
      o->traced = std::string(take()) == "1";
    } else if (flag == "--trace-out") {
      o->trace_out = take();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (o->workload == nullptr || o->data_dir.empty()) {
    std::fprintf(stderr, "--workload and --data are required\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage();
    return 2;
  }
  if (opts.generate) {
    const Status st =
        Generate(*opts.workload, opts.seed, opts.smoke ? kSmokeDivisor : 1, opts.data_dir);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  // Timings from a debug or sanitized build describe the instrumentation,
  // not the engine; only the smoke check may run there.
  const std::string build_type = CEPSHED_BENCH_BUILD_TYPE;
  if (!opts.smoke && (build_type != "Release" || CEPSHED_BENCH_SANITIZED)) {
    std::fprintf(stderr, "error: timing needs a sanitizer-free Release build (this is '%s'%s)\n",
                 build_type.c_str(), CEPSHED_BENCH_SANITIZED ? ", sanitized" : "");
    return 2;
  }
  if (std::thread::hardware_concurrency() < 3) {
    std::printf("# warning: %u CPUs for a router and %d shard workers; timings are contended\n",
                std::thread::hardware_concurrency(), kShards);
  }
  PipelineBench bench(std::move(opts));
  const Status st = bench.Run();
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  return bench.correct() ? 0 : 1;
}

}  // namespace
}  // namespace cepshed::pipeline

int main(int argc, char** argv) { return cepshed::pipeline::Main(argc, argv); }
