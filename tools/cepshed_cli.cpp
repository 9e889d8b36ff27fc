// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// cepshed_cli: evaluate a SASE-style query over a CSV event trace, with
// optional hybrid load shedding under a latency bound.
//
//   cepshed_cli --schema schema.txt --query query.sase --input trace.csv
//               [--train historic.csv --strategy hybrid --bound 0.5
//                --stat avg|p95|p99] [--matches out.csv] [--pm-series]
//               [--shards N --partition ATTR | --shards N --slice-stride US]
//               [--lenient]
//               [--fault-schedule SPEC --fault-seed N]
//               [--guard-theta COST --memory-budget-mb MB]
//               [--metrics-out FILE[.json|.prom] --metrics-interval SEC]
//               [--record-trace FILE] [--trace-prefix N]
//               [--scale-schedule SPEC] [--min-shards N] [--max-shards N]
//
// Trace record/replay (the adversarial lab's regression loop):
// --record-trace captures every ingested event into a binary trace file
// (src/workload/lab/trace.h) — on the sharded path including the router's
// shard targets. An --input ending in ".trace" is replayed from such a
// capture: the schema embedded in the file is used and --schema may be
// omitted. --trace-prefix N replays only the first N events of a capture,
// which is how a failing trace is minimized (bisect N until the failure
// disappears).
//
// Elastic resharding: --scale-schedule applies scripted resize anchors
// ("resize:at=900,delta=+2;resize:at=2000,delta=-1" — the fault DSL) and
// requires --max-shards for the grow headroom. --max-shards *without* a
// scale schedule arms the dynamic ReshardController instead: the runtime
// scales between --min-shards and --max-shards off queue depth and guard
// level. Both start from --shards and need --partition (partial-match
// ownership follows the key hash). A dynamic run is load-dependent, but
// --record-trace captures every executed resize; replaying that .trace
// re-applies the recorded schedule as scripted anchors, making the replay
// bit-for-bit deterministic.
//
// --metrics-out exports the run's observability snapshot (per-shard event
// counters, shed counts by class, guard-level transitions, latency
// histograms, and the shed-decision audit trail) as Prometheus text, or as
// JSON when FILE ends in ".json". With --metrics-interval N the file is
// additionally rewritten every N seconds while the run is in flight, so a
// long run can be watched live (`watch cat metrics.prom`).
//
// --lenient skips malformed input rows (counted and reported) instead of
// failing the load. The --input and --train CSVs must be regular files:
// they are memory-mapped and parsed in place (src/workload/csv_mmap.h),
// so a pipe fails with "not a regular file". The fault/guard flags apply
// to the sharded path:
// --fault-schedule replays a deterministic fault schedule (see
// src/fault/fault_injector.h for the DSL, e.g.
// "burst:at=1000,count=500,factor=30;death:shard=0,at=2000"), and either
// --guard-theta (latency bound, cost units) or --memory-budget-mb
// (partial-match state cap per shard) arms the per-shard overload guard.
//
// Schema file format (one declaration per line, '#' comments):
//   type BikeTrip
//   attr bike int
//   attr start int
//   attr end int
//
// The input/train CSVs use the same format WriteCsv produces:
//   type,timestamp,<attr1>,<attr2>,...

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "src/obs/export.h"
#include "src/runtime/experiment.h"
#include "src/runtime/shard_runtime.h"
#include "src/query/parser.h"
#include "src/workload/csv.h"
#include "src/workload/csv_mmap.h"
#include "src/workload/lab/trace.h"

using namespace cepshed;

namespace {

struct CliArgs {
  std::string schema_path;
  std::string query_path;
  std::string input_path;
  std::string train_path;
  std::string matches_path;
  std::string strategy = "none";
  /// Registry strategy spec (NAME[:key=value,...]); supersedes --strategy.
  std::string shedder;
  std::string stat = "avg";
  double bound = 0.5;
  bool pm_series = false;
  int shards = 1;
  std::string partition_attr;
  long long slice_stride_us = 0;
  bool lenient = false;
  std::string fault_schedule;
  unsigned long long fault_seed = 0;
  double guard_theta = 0.0;
  double memory_budget_mb = 0.0;
  std::string metrics_out;
  double metrics_interval_sec = 0.0;
  std::string record_trace;
  unsigned long long trace_prefix = 0;
  std::string scale_schedule;
  int min_shards = 1;
  int max_shards = 0;
};

bool IsTracePath(const std::string& path) {
  const std::string suffix = ".trace";
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: cepshed_cli --schema FILE --query FILE --input FILE\n"
               "                   [--train FILE] [--strategy none|ri|si|rs|ss|hybrid]\n"
               "                   [--shedder NAME[:key=value,...]]\n"
               "                   [--bound FRACTION] [--stat avg|p95|p99]\n"
               "                   [--matches FILE] [--pm-series]\n"
               "                   [--shards N (--partition ATTR | --slice-stride US)]\n"
               "                   [--lenient]\n"
               "                   [--fault-schedule SPEC] [--fault-seed N]\n"
               "                   [--guard-theta COST] [--memory-budget-mb MB]\n"
               "                   [--metrics-out FILE] [--metrics-interval SEC]\n"
               "                   [--record-trace FILE] [--trace-prefix N]\n"
               "                   [--scale-schedule SPEC --max-shards N]\n"
               "                   [--min-shards N] [--max-shards N]\n"
               "an --input ending in .trace is replayed from a recorded capture\n"
               "(embedded schema; --schema optional); --max-shards without a\n"
               "--scale-schedule arms the dynamic reshard controller\n");
}

Result<CliArgs> ParseArgs(int argc, char** argv) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) return Status::InvalidArgument(flag + " needs a value");
      return std::string(argv[++i]);
    };
    if (flag == "--schema") {
      CEPSHED_ASSIGN_OR_RETURN(args.schema_path, next());
    } else if (flag == "--query") {
      CEPSHED_ASSIGN_OR_RETURN(args.query_path, next());
    } else if (flag == "--input") {
      CEPSHED_ASSIGN_OR_RETURN(args.input_path, next());
    } else if (flag == "--train") {
      CEPSHED_ASSIGN_OR_RETURN(args.train_path, next());
    } else if (flag == "--matches") {
      CEPSHED_ASSIGN_OR_RETURN(args.matches_path, next());
    } else if (flag == "--strategy") {
      CEPSHED_ASSIGN_OR_RETURN(args.strategy, next());
    } else if (flag == "--shedder") {
      CEPSHED_ASSIGN_OR_RETURN(args.shedder, next());
    } else if (flag == "--stat") {
      CEPSHED_ASSIGN_OR_RETURN(args.stat, next());
    } else if (flag == "--bound") {
      std::string v;
      CEPSHED_ASSIGN_OR_RETURN(v, next());
      args.bound = std::stod(v);
    } else if (flag == "--pm-series") {
      args.pm_series = true;
    } else if (flag == "--shards") {
      std::string v;
      CEPSHED_ASSIGN_OR_RETURN(v, next());
      args.shards = std::stoi(v);
      if (args.shards < 1) return Status::InvalidArgument("--shards must be >= 1");
    } else if (flag == "--partition") {
      CEPSHED_ASSIGN_OR_RETURN(args.partition_attr, next());
    } else if (flag == "--slice-stride") {
      std::string v;
      CEPSHED_ASSIGN_OR_RETURN(v, next());
      args.slice_stride_us = std::stoll(v);
      if (args.slice_stride_us <= 0) {
        return Status::InvalidArgument("--slice-stride must be positive microseconds");
      }
    } else if (flag == "--lenient") {
      args.lenient = true;
    } else if (flag == "--fault-schedule") {
      CEPSHED_ASSIGN_OR_RETURN(args.fault_schedule, next());
    } else if (flag == "--fault-seed") {
      std::string v;
      CEPSHED_ASSIGN_OR_RETURN(v, next());
      args.fault_seed = std::stoull(v);
    } else if (flag == "--guard-theta") {
      std::string v;
      CEPSHED_ASSIGN_OR_RETURN(v, next());
      args.guard_theta = std::stod(v);
      if (args.guard_theta <= 0.0) {
        return Status::InvalidArgument("--guard-theta must be positive cost units");
      }
    } else if (flag == "--memory-budget-mb") {
      std::string v;
      CEPSHED_ASSIGN_OR_RETURN(v, next());
      args.memory_budget_mb = std::stod(v);
      if (args.memory_budget_mb <= 0.0) {
        return Status::InvalidArgument("--memory-budget-mb must be positive");
      }
    } else if (flag == "--record-trace") {
      CEPSHED_ASSIGN_OR_RETURN(args.record_trace, next());
    } else if (flag == "--trace-prefix") {
      std::string v;
      CEPSHED_ASSIGN_OR_RETURN(v, next());
      args.trace_prefix = std::stoull(v);
      if (args.trace_prefix == 0) {
        return Status::InvalidArgument("--trace-prefix must be a positive event count");
      }
    } else if (flag == "--scale-schedule") {
      CEPSHED_ASSIGN_OR_RETURN(args.scale_schedule, next());
    } else if (flag == "--min-shards") {
      std::string v;
      CEPSHED_ASSIGN_OR_RETURN(v, next());
      args.min_shards = std::stoi(v);
      if (args.min_shards < 1) {
        return Status::InvalidArgument("--min-shards must be >= 1");
      }
    } else if (flag == "--max-shards") {
      std::string v;
      CEPSHED_ASSIGN_OR_RETURN(v, next());
      args.max_shards = std::stoi(v);
      if (args.max_shards < 1) {
        return Status::InvalidArgument("--max-shards must be >= 1");
      }
    } else if (flag == "--metrics-out") {
      CEPSHED_ASSIGN_OR_RETURN(args.metrics_out, next());
    } else if (flag == "--metrics-interval") {
      std::string v;
      CEPSHED_ASSIGN_OR_RETURN(v, next());
      args.metrics_interval_sec = std::stod(v);
      if (args.metrics_interval_sec <= 0.0) {
        return Status::InvalidArgument("--metrics-interval must be positive seconds");
      }
    } else if (flag == "--help" || flag == "-h") {
      Usage();
      std::exit(0);
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (args.query_path.empty() || args.input_path.empty()) {
    return Status::InvalidArgument("--query and --input are required");
  }
  if (args.schema_path.empty() && !IsTracePath(args.input_path)) {
    return Status::InvalidArgument(
        "--schema is required (only a .trace input embeds its schema)");
  }
  if (args.trace_prefix > 0 && !IsTracePath(args.input_path)) {
    return Status::InvalidArgument("--trace-prefix requires a .trace input");
  }
  if (!args.record_trace.empty() && !IsTracePath(args.record_trace)) {
    return Status::InvalidArgument("--record-trace file must end in .trace");
  }
  if (args.metrics_interval_sec > 0.0 && args.metrics_out.empty()) {
    return Status::InvalidArgument("--metrics-interval requires --metrics-out");
  }
  if (!args.scale_schedule.empty() && args.max_shards == 0) {
    return Status::InvalidArgument(
        "--scale-schedule requires --max-shards (the grow headroom: workers "
        "are provisioned for it up front)");
  }
  if (args.max_shards > 0 && args.max_shards < args.shards) {
    return Status::InvalidArgument("--max-shards must be >= --shards");
  }
  if (args.min_shards > args.shards) {
    return Status::InvalidArgument("--min-shards must be <= --shards");
  }
  if (!args.shedder.empty() && args.strategy != "none") {
    return Status::InvalidArgument(
        "--shedder and --strategy are mutually exclusive (--shedder reaches "
        "every registered strategy, including the --strategy names)");
  }
  return args;
}

Result<Schema> LoadSchema(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::InvalidArgument("cannot open " + path);
  Schema schema;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ss(line);
    std::string kind;
    if (!(ss >> kind) || kind[0] == '#') continue;
    if (kind == "type") {
      std::string name;
      if (!(ss >> name)) return Status::ParseError("schema line " + std::to_string(line_no));
      CEPSHED_RETURN_NOT_OK(schema.AddEventType(name).status());
    } else if (kind == "attr") {
      std::string name;
      std::string type;
      if (!(ss >> name >> type)) {
        return Status::ParseError("schema line " + std::to_string(line_no));
      }
      ValueType vt;
      if (type == "int") {
        vt = ValueType::kInt;
      } else if (type == "double") {
        vt = ValueType::kDouble;
      } else if (type == "string") {
        vt = ValueType::kString;
      } else {
        return Status::ParseError("schema line " + std::to_string(line_no) +
                                  ": unknown attribute type '" + type + "'");
      }
      CEPSHED_RETURN_NOT_OK(schema.AddAttribute(name, vt).status());
    } else {
      return Status::ParseError("schema line " + std::to_string(line_no) +
                                ": expected 'type' or 'attr'");
    }
  }
  return schema;
}

Result<std::string> LoadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::InvalidArgument("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteMatches(const std::vector<Match>& matches, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::InvalidArgument("cannot open " + path);
  out << "match,detected_at,event_seqs\n";
  for (size_t i = 0; i < matches.size(); ++i) {
    out << i << "," << matches[i].detected_at << ",";
    for (size_t j = 0; j < matches[i].events.size(); ++j) {
      if (j > 0) out << ":";
      out << matches[i].events[j]->seq();
    }
    out << "\n";
  }
  return Status::OK();
}

/// Owns the --metrics-out lifecycle: an optional background thread rewrites
/// the snapshot file every interval while the run is in flight; Finish()
/// (idempotent) stops it and writes the final snapshot.
class MetricsExporter {
 public:
  MetricsExporter(obs::MetricsRegistry* registry, std::string path, double interval_sec)
      : registry_(registry), path_(std::move(path)) {
    if (interval_sec > 0.0) {
      writer_ = std::thread([this, interval_sec] {
        std::unique_lock<std::mutex> lock(mu_);
        while (!cv_.wait_for(lock, std::chrono::duration<double>(interval_sec),
                             [this] { return done_; })) {
          obs::WriteMetricsFile(path_, registry_->Snapshot());
        }
      });
    }
  }
  ~MetricsExporter() { Finish(); }

  /// Returns false when the final write fails.
  bool Finish() {
    if (finished_) return last_write_ok_;
    finished_ = true;
    if (writer_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        done_ = true;
      }
      cv_.notify_all();
      writer_.join();
    }
    last_write_ok_ = obs::WriteMetricsFile(path_, registry_->Snapshot());
    return last_write_ok_;
  }

 private:
  obs::MetricsRegistry* registry_;
  std::string path_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  bool finished_ = false;
  bool last_write_ok_ = false;
  std::thread writer_;
};

Status Run(const CliArgs& args) {
  CEPSHED_ASSIGN_OR_RETURN(std::string query_text, LoadFile(args.query_path));
  CEPSHED_ASSIGN_OR_RETURN(Query query, ParseQuery(query_text));
  CsvReadOptions read_options;
  read_options.lenient = args.lenient;
  CsvReadStats read_stats;

  // The input is either a CSV over a schema file or a recorded .trace
  // capture, which carries its own schema.
  Schema csv_schema;
  std::unique_ptr<EventStream> csv_input;
  std::unique_ptr<lab::TraceData> capture;
  if (IsTracePath(args.input_path)) {
    CEPSHED_ASSIGN_OR_RETURN(lab::TraceData data,
                             lab::ReadTrace(args.input_path, args.trace_prefix));
    capture = std::make_unique<lab::TraceData>(std::move(data));
  } else {
    CEPSHED_ASSIGN_OR_RETURN(csv_schema, LoadSchema(args.schema_path));
    CEPSHED_ASSIGN_OR_RETURN(
        EventStream stream,
        ReadCsvMappedFile(csv_schema, args.input_path, read_options, &read_stats));
    csv_input = std::make_unique<EventStream>(std::move(stream));
  }
  const Schema& schema = capture != nullptr ? *capture->schema : csv_schema;
  const EventStream& input = capture != nullptr ? capture->stream : *csv_input;
  std::printf("query:  %s\n", query.ToString().c_str());
  std::printf("input:  %zu events from %s", input.size(), args.input_path.c_str());
  if (capture != nullptr && args.trace_prefix > 0) {
    std::printf("  (trace prefix of %llu)", args.trace_prefix);
  }
  if (read_stats.malformed_rows > 0) {
    std::printf("  (%llu malformed rows skipped)",
                static_cast<unsigned long long>(read_stats.malformed_rows));
  }
  std::printf("\n");

  obs::MetricsRegistry metrics;
  std::unique_ptr<MetricsExporter> exporter;
  if (!args.metrics_out.empty()) {
    exporter = std::make_unique<MetricsExporter>(&metrics, args.metrics_out,
                                                 args.metrics_interval_sec);
  }
  auto finish_metrics = [&]() -> Status {
    if (exporter == nullptr) return Status::OK();
    if (!exporter->Finish()) {
      return Status::InvalidArgument("cannot write " + args.metrics_out);
    }
    std::printf("wrote %s\n", args.metrics_out.c_str());
    return Status::OK();
  };

  // A replayed capture that resized re-applies its recorded scale schedule
  // as scripted anchors: the replay is deterministic where the dynamic
  // controller was not.
  const std::string replay_schedule =
      capture != nullptr ? lab::ResizeScheduleSpec(capture->resizes) : std::string();
  const bool elastic = !args.scale_schedule.empty() || args.max_shards > 0 ||
                       !replay_schedule.empty();
  const bool wants_guard = args.guard_theta > 0.0 || args.memory_budget_mb > 0.0;
  if ((!args.fault_schedule.empty() || wants_guard) && args.shards <= 1 &&
      !elastic) {
    return Status::InvalidArgument(
        "--fault-schedule / --guard-theta / --memory-budget-mb apply to the "
        "sharded path; add --shards N with a routing mode");
  }

  if (args.shards > 1 || elastic) {
    if (args.strategy != "none" || !args.shedder.empty()) {
      return Status::InvalidArgument(
          "--shards currently applies to raw evaluation only (--strategy none); "
          "sharded shedding runs through ShardRuntime's shedder factory");
    }
    CEPSHED_ASSIGN_OR_RETURN(auto nfa, Nfa::Compile(query, &schema));
    ShardRuntimeOptions opts;
    opts.num_shards = args.shards;
    if (!args.partition_attr.empty()) {
      opts.routing = ShardRouting::kHashPartition;
      opts.partition_attr = schema.AttributeIndex(args.partition_attr);
      if (opts.partition_attr < 0) {
        return Status::InvalidArgument("unknown partition attribute " +
                                       args.partition_attr);
      }
    } else if (args.slice_stride_us > 0) {
      opts.routing = ShardRouting::kWindowSlice;
      opts.slice_stride = static_cast<Duration>(args.slice_stride_us);
    } else {
      return Status::InvalidArgument(
          "--shards needs a routing mode: --partition ATTR or --slice-stride US");
    }
    // Scripted resizes ride the fault DSL: --scale-schedule and a replayed
    // capture's recorded schedule are appended to the fault spec.
    std::string spec = args.fault_schedule;
    for (const std::string& extra : {args.scale_schedule, replay_schedule}) {
      if (extra.empty()) continue;
      if (!spec.empty()) spec += ';';
      spec += extra;
    }
    FaultInjector faults;
    if (!spec.empty()) {
      CEPSHED_ASSIGN_OR_RETURN(faults, FaultInjector::Parse(spec, args.fault_seed));
      opts.faults = &faults;
      std::printf("faults: %s (seed %llu)\n", faults.ToString().c_str(),
                  static_cast<unsigned long long>(faults.seed()));
    }
    if (elastic) {
      opts.reshard.min_shards = args.min_shards;
      opts.reshard.max_shards = args.max_shards;
      // A recorded schedule may scale past the replay flags: widen the
      // provisioned headroom to cover it.
      for (const lab::TraceResize& r :
           capture != nullptr ? capture->resizes : std::vector<lab::TraceResize>()) {
        opts.reshard.max_shards =
            std::max(opts.reshard.max_shards, std::max(r.old_shards, r.new_shards));
      }
      // Scripted anchors own the schedule; only a bare --max-shards arms
      // the dynamic controller.
      opts.reshard.enabled =
          args.max_shards > 0 && args.scale_schedule.empty() && replay_schedule.empty();
      std::printf("elastic: %s, shards %d..%d\n",
                  opts.reshard.enabled ? "dynamic controller" : "scripted schedule",
                  opts.reshard.min_shards,
                  std::max(opts.reshard.max_shards, args.shards));
    }
    if (wants_guard) {
      opts.guard.enabled = true;
      opts.guard.theta = args.guard_theta;
      opts.guard.memory_budget_bytes =
          static_cast<size_t>(args.memory_budget_mb * 1024.0 * 1024.0);
      opts.guard.seed = args.fault_seed != 0 ? args.fault_seed : opts.guard.seed;
      std::printf("guard:  theta %.2f, memory budget %.1f MB\n", args.guard_theta,
                  args.memory_budget_mb);
    }
    if (exporter != nullptr) opts.metrics = &metrics;
    // The ingest tap sees every event after routing, so the capture holds
    // the router's shard targets alongside the stream.
    std::unique_ptr<lab::TraceWriter> recorder;
    Status record_status = Status::OK();
    if (!args.record_trace.empty()) {
      CEPSHED_ASSIGN_OR_RETURN(
          recorder,
          lab::TraceWriter::Open(args.record_trace, schema, /*with_routes=*/true));
      opts.ingest_tap = [&recorder, &record_status](const EventPtr& event,
                                                    const std::vector<int>& targets) {
        if (!record_status.ok()) return;
        record_status = recorder->Append(*event, targets);
      };
      opts.resize_tap = [&recorder](uint64_t seq, int old_shards, int new_shards) {
        recorder->RecordResize(seq, old_shards, new_shards);
      };
    }
    CEPSHED_ASSIGN_OR_RETURN(auto runtime, ShardRuntime::Create(nfa, opts));
    CEPSHED_ASSIGN_OR_RETURN(ShardRunResult result, runtime->Run(input));
    if (recorder != nullptr) {
      CEPSHED_RETURN_NOT_OK(record_status);
      CEPSHED_RETURN_NOT_OK(recorder->Close());
      std::printf("recorded %llu events to %s\n",
                  static_cast<unsigned long long>(recorder->num_events()),
                  args.record_trace.c_str());
    }
    std::printf("shards: %d (%s routing)\n", args.shards,
                opts.routing == ShardRouting::kHashPartition ? "hash" : "slice");
    std::printf("matches: %zu in %.3fs\n", result.matches.size(), result.wall_seconds);
    for (size_t i = 0; i < result.shards.size(); ++i) {
      const ShardResult& s = result.shards[i];
      std::printf("  shard %zu: routed %llu, processed %llu, peak state %zu", i,
                  static_cast<unsigned long long>(s.events_routed),
                  static_cast<unsigned long long>(s.events_processed), s.stats.peak_pms);
      if (s.worker_restarts > 0 || s.abandoned) {
        std::printf(", restarts %llu%s",
                    static_cast<unsigned long long>(s.worker_restarts),
                    s.abandoned ? ", ABANDONED" : "");
      }
      if (opts.guard.enabled) {
        std::printf(", guard peak %s",
                    GuardLevelName(static_cast<GuardLevel>(s.guard_peak_level)));
      }
      std::printf("\n");
    }
    if (result.resizes > 0) {
      std::printf("elastic: %llu resizes, migrated %llu partial matches (%llu bytes), "
                  "final live shards %d\n",
                  static_cast<unsigned long long>(result.resizes),
                  static_cast<unsigned long long>(result.migrated_pms),
                  static_cast<unsigned long long>(result.migrated_bytes),
                  result.final_live_shards);
    }
    if (result.lost_events > 0 || result.worker_restarts > 0 ||
        result.shards_abandoned > 0) {
      std::printf("degraded: lost %llu events, %llu worker restarts, %d shards abandoned\n",
                  static_cast<unsigned long long>(result.lost_events),
                  static_cast<unsigned long long>(result.worker_restarts),
                  result.shards_abandoned);
    }
    if (opts.guard.enabled) {
      std::printf("guard:  dropped %llu events, trimmed %llu + evicted %llu partial matches\n",
                  static_cast<unsigned long long>(result.guard_input_drops),
                  static_cast<unsigned long long>(result.guard_trims),
                  static_cast<unsigned long long>(result.guard_evictions));
    }
    if (!args.matches_path.empty()) {
      CEPSHED_RETURN_NOT_OK(WriteMatches(result.matches, args.matches_path));
      std::printf("wrote %s\n", args.matches_path.c_str());
    }
    return finish_metrics();
  }

  // Single-engine paths ingest the whole input stream, so the capture is
  // simply the stream itself (no routes).
  if (!args.record_trace.empty()) {
    CEPSHED_RETURN_NOT_OK(lab::WriteTrace(input, args.record_trace));
    std::printf("recorded %zu events to %s\n", input.size(), args.record_trace.c_str());
  }

  const size_t pm_stride = args.pm_series ? std::max<size_t>(1, input.size() / 50) : 0;
  const auto print_pm_series = [](const RunResult& run) {
    for (size_t i = 0; i < run.pm_series.size(); ++i) {
      std::printf("pm-series,%zu,%zu\n", i * run.pm_series_stride, run.pm_series[i]);
    }
  };

  if (args.strategy == "none" && args.shedder.empty()) {
    CEPSHED_ASSIGN_OR_RETURN(auto nfa, Nfa::Compile(query, &schema));
    Engine engine(nfa, EngineOptions{});
    NoShedder none;
    ShedRunner runner(&engine, &none, LatencyMonitor::Options{});
    if (exporter != nullptr) {
      metrics.EnsureShards(1);
      runner.set_obs(metrics.shard(0));
    }
    const RunResult run = runner.Run(input, pm_stride);
    print_pm_series(run);
    std::printf("matches: %zu  (peak state: %zu partial matches)\n", run.matches.size(),
                run.engine_stats.peak_pms);
    if (!args.matches_path.empty()) {
      CEPSHED_RETURN_NOT_OK(WriteMatches(run.matches, args.matches_path));
      std::printf("wrote %s\n", args.matches_path.c_str());
    }
    return finish_metrics();
  }

  if (args.train_path.empty()) {
    return Status::InvalidArgument("--strategy / --shedder require --train (historic "
                                   "data for the cost model and ground truth "
                                   "calibration)");
  }
  CEPSHED_ASSIGN_OR_RETURN(EventStream train,
                           ReadCsvMappedFile(schema, args.train_path, read_options));

  // --strategy names are a subset of the registry; both flags resolve to a
  // registry spec and share the run path below.
  std::string spec = args.shedder;
  if (spec.empty()) {
    if (args.strategy != "ri" && args.strategy != "si" && args.strategy != "rs" &&
        args.strategy != "ss" && args.strategy != "hybrid") {
      return Status::InvalidArgument("unknown strategy " + args.strategy);
    }
    spec = args.strategy;
  }
  LatencyStat stat;
  if (args.stat == "avg") {
    stat = LatencyStat::kAverage;
  } else if (args.stat == "p95") {
    stat = LatencyStat::kP95;
  } else if (args.stat == "p99") {
    stat = LatencyStat::kP99;
  } else {
    return Status::InvalidArgument("unknown stat " + args.stat);
  }

  HarnessOptions harness_options;
  if (exporter != nullptr) harness_options.metrics = &metrics;
  ExperimentHarness harness(&schema, query, harness_options);
  CEPSHED_RETURN_NOT_OK(harness.Prepare(train, input));
  std::printf("trained cost model in %.2fs; exhaustive: %zu matches, %s latency %.1f\n",
              harness.model().train_seconds(), harness.truth().size(), args.stat.c_str(),
              harness.BaselineLatency(stat));

  CEPSHED_ASSIGN_OR_RETURN(const ExperimentResult r,
                           harness.RunBoundSpec(spec, args.bound, stat, pm_stride));
  std::printf("strategy %s @ bound %.2f:\n", r.name.c_str(), args.bound);
  std::printf("  recall      %.2f%%\n", 100.0 * r.quality.recall);
  std::printf("  precision   %.2f%%\n", 100.0 * r.quality.precision);
  std::printf("  throughput  %.0f events/s\n", r.throughput_eps);
  std::printf("  dropped     %llu events (%.1f%%)\n",
              static_cast<unsigned long long>(r.raw.dropped_events),
              100.0 * r.shed_event_ratio);
  std::printf("  shed        %llu partial matches (%.1f%%)\n",
              static_cast<unsigned long long>(r.raw.shed_pms), 100.0 * r.shed_pm_ratio);
  std::printf("  violations  %.1f%% of bound checks\n", 100.0 * r.bound_violation_ratio);
  print_pm_series(r.raw);
  if (!args.matches_path.empty()) {
    CEPSHED_RETURN_NOT_OK(WriteMatches(r.raw.matches, args.matches_path));
    std::printf("wrote %s\n", args.matches_path.c_str());
  }
  return finish_metrics();
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().ToString().c_str());
    Usage();
    return 2;
  }
  const Status st = Run(*args);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
