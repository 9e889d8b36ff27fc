// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Trace recorder/replayer tests: exact round-trips over every value type,
// the headline record→replay determinism property (a faulted, shedded,
// guarded multi-shard run captured via the ingest tap replays bit-for-bit
// — matches, stats, and metrics snapshots — across two independent
// replays), prefix reads for trace minimization, and rejection of
// corrupted, truncated, and never-finalized captures. Plus structural
// checks of the hostile generators the lab records.

#include "src/workload/lab/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/runtime/shard_runtime.h"
#include "src/shed/shedder.h"
#include "src/workload/ds1.h"
#include "src/workload/lab/hostile.h"
#include "src/workload/queries.h"

namespace cepshed {
namespace lab {
namespace {

/// Unique-ish temp path per test; files are small and removed on success.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Representation equality — stricter than Value::operator==, which has
/// SQL semantics (null != null, cross-type numeric promotion). Replay
/// fidelity is about bits: -0.0 must stay -0.0, null must stay null.
void ExpectValueIdentical(const Value& x, const Value& y) {
  ASSERT_EQ(x.type(), y.type());
  switch (x.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      EXPECT_EQ(x.AsInt(), y.AsInt());
      break;
    case ValueType::kDouble: {
      const double xd = x.AsDouble(), yd = y.AsDouble();
      uint64_t xb, yb;
      std::memcpy(&xb, &xd, sizeof(xb));
      std::memcpy(&yb, &yd, sizeof(yb));
      EXPECT_EQ(xb, yb);
      break;
    }
    case ValueType::kString:
      EXPECT_EQ(x.AsString(), y.AsString());
      break;
  }
}

void ExpectStreamsEqual(const EventStream& a, const EventStream& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    const Event& ea = *a[i];
    const Event& eb = *b[i];
    EXPECT_EQ(ea.type(), eb.type());
    EXPECT_EQ(ea.timestamp(), eb.timestamp());
    EXPECT_EQ(ea.seq(), eb.seq());
    ASSERT_EQ(ea.num_attrs(), eb.num_attrs());
    for (size_t k = 0; k < ea.num_attrs(); ++k) {
      ExpectValueIdentical(ea.attr(static_cast<int>(k)),
                           eb.attr(static_cast<int>(k)));
    }
  }
}

TEST(TraceTest, RoundTripsEveryValueType) {
  Schema schema;
  (void)schema.AddEventType("T");
  (void)schema.AddEventType("U");
  (void)schema.AddAttribute("i", ValueType::kInt);
  (void)schema.AddAttribute("d", ValueType::kDouble);
  (void)schema.AddAttribute("s", ValueType::kString);

  EventStream stream(&schema);
  const auto emit = [&](int type, Timestamp ts, Value i, Value d, Value s) {
    ASSERT_TRUE(stream.Emit(type, ts, {std::move(i), std::move(d), std::move(s)}).ok());
  };
  emit(0, -500, Value(int64_t{-42}), Value(3.25), Value(std::string("hello")));
  emit(1, -500, Value(std::numeric_limits<int64_t>::min()), Value(-0.0),
       Value(std::string()));  // empty string, negative zero
  emit(0, 0, Value(), Value(), Value());  // all null
  emit(1, 7,
       Value(std::numeric_limits<int64_t>::max()),
       Value(std::numeric_limits<double>::infinity()),
       Value(std::string("line\nbreak\0x", 12)));  // embedded NUL + newline

  const std::string path = TempPath("roundtrip.trace");
  ASSERT_TRUE(WriteTrace(stream, path).ok());
  auto replayed = ReadTrace(path);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();

  // The embedded schema reconstructs exactly.
  ASSERT_EQ(replayed->schema->num_event_types(), schema.num_event_types());
  EXPECT_EQ(replayed->schema->EventTypeName(1), "U");
  ASSERT_EQ(replayed->schema->num_attributes(), schema.num_attributes());
  EXPECT_EQ(replayed->schema->AttributeIndex("d"), 1);

  ExpectStreamsEqual(stream, replayed->stream);
  std::remove(path.c_str());
}

TEST(TraceTest, EmptyClosedTraceIsValid) {
  const Schema schema = MakeDs1Schema();
  const std::string path = TempPath("empty.trace");
  auto writer = TraceWriter::Open(path, schema);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Close().ok());
  auto replayed = ReadTrace(path);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->stream.size(), 0u);
  std::remove(path.c_str());
}

TEST(TraceTest, PrefixReadSupportsMinimization) {
  const Schema schema = MakeDs1Schema();
  Ds1Options ds1;
  ds1.num_events = 500;
  ds1.seed = 3;
  const EventStream stream = GenerateDs1(schema, ds1);
  const std::string path = TempPath("prefix.trace");
  ASSERT_TRUE(WriteTrace(stream, path).ok());

  auto prefix = ReadTrace(path, 100);
  ASSERT_TRUE(prefix.ok()) << prefix.status().ToString();
  ASSERT_EQ(prefix->stream.size(), 100u);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(prefix->stream[i]->seq(), stream[i]->seq());
    EXPECT_EQ(prefix->stream[i]->timestamp(), stream[i]->timestamp());
  }
  // Asking for more events than recorded returns them all.
  auto all = ReadTrace(path, 10'000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->stream.size(), 500u);
  std::remove(path.c_str());
}

TEST(TraceTest, RejectsCorruptionTruncationAndBadMagic) {
  const Schema schema = MakeDs1Schema();
  Ds1Options ds1;
  ds1.num_events = 200;
  ds1.seed = 5;
  const EventStream stream = GenerateDs1(schema, ds1);
  const std::string path = TempPath("corrupt.trace");
  ASSERT_TRUE(WriteTrace(stream, path).ok());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);

  const auto write_and_read = [&](const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data;
    out.close();
    return ReadTrace(path);
  };

  {  // flip one byte deep in the event section -> checksum mismatch
    std::string bad = bytes;
    bad[bad.size() - 10] = static_cast<char>(bad[bad.size() - 10] ^ 0x40);
    EXPECT_FALSE(write_and_read(bad).ok());
  }
  {  // truncate mid-event
    EXPECT_FALSE(write_and_read(bytes.substr(0, bytes.size() - 7)).ok());
  }
  {  // bad magic
    std::string bad = bytes;
    bad[0] = 'X';
    EXPECT_FALSE(write_and_read(bad).ok());
  }
  {  // first event's attribute count inflated to 2^63 - 1: rejected before
     // anything is reserved, on a full read and on a prefix read (which
     // never reaches the checksum)
    const std::string header_path = TempPath("header.trace");
    ASSERT_TRUE(WriteTrace(EventStream(&schema), header_path).ok());
    std::ifstream header(header_path, std::ios::binary | std::ios::ate);
    size_t pos = static_cast<size_t>(header.tellg());
    header.close();
    std::remove(header_path.c_str());
    for (int field = 0; field < 3; ++field) {  // type, timestamp, seq
      while ((static_cast<uint8_t>(bytes[pos]) & 0x80) != 0) ++pos;
      ++pos;
    }
    ASSERT_EQ(static_cast<uint8_t>(bytes[pos]) & 0x80, 0);
    std::string bad = bytes;
    bad.replace(pos, 1, "\xff\xff\xff\xff\xff\xff\xff\xff\x7f", 9);
    for (const Status& status :
         {write_and_read(bad).status(), ReadTrace(path, 50).status()}) {
      EXPECT_EQ(status.code(), StatusCode::kParseError);
      EXPECT_NE(status.message().find("exceeds the bytes left"),
                std::string::npos)
          << status.ToString();
    }
  }
  {  // first type name's length at 2^64 - 1 (byte 32: after the magic, the
     // flags, count and checksum fields and the type count) is rejected
     // right after its 10-byte varint, instead of wrapping the bounds check
     // and stepping the cursor backwards
    std::string bad = bytes;
    ASSERT_EQ(static_cast<uint8_t>(bad[32]) & 0x80, 0);
    bad.replace(32, 1, "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", 10);
    const Status status = write_and_read(bad).status();
    EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
    EXPECT_NE(status.message().find("truncated at byte 42"), std::string::npos)
        << status.ToString();
  }
  std::remove(path.c_str());
}

TEST(TraceTest, RejectsNeverFinalizedCapture) {
  const Schema schema = MakeDs1Schema();
  Ds1Options ds1;
  ds1.num_events = 50;
  const EventStream stream = GenerateDs1(schema, ds1);
  const std::string path = TempPath("unfinalized.trace");
  {
    auto writer = TraceWriter::Open(path, schema);
    ASSERT_TRUE(writer.ok());
    for (const EventPtr& e : stream) ASSERT_TRUE((*writer)->Append(*e).ok());
    // No Close(): simulates a crash mid-capture.
  }
  auto replayed = ReadTrace(path);
  EXPECT_FALSE(replayed.ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The headline property: record a hostile, faulted, shedded, guarded
// multi-shard run through the ingest tap; replay the capture twice through
// fresh runtimes; everything observable must agree bit for bit.

uint64_t MixSeq(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Content-hash shedder (the differential suite's): decisions are pure
/// functions of event seqs, so they survive record/replay unchanged.
class HashDropShedder : public Shedder {
 public:
  explicit HashDropShedder(uint64_t seed) : seed_(seed) {}
  std::string Name() const override { return "HashDrop"; }
  bool FilterEvent(const Event& event) override {
    if (MixSeq(seed_ ^ event.seq()) < kCut) return DropEvent();
    return false;
  }
  void AfterEvent(Timestamp, double) override {}

 private:
  static constexpr uint64_t kCut =
      static_cast<uint64_t>(0.10 * static_cast<double>(
                                       std::numeric_limits<uint64_t>::max()));
  uint64_t seed_;
};

void ExpectStatsEqual(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.pms_created, b.pms_created);
  EXPECT_EQ(a.matches_emitted, b.matches_emitted);
  EXPECT_EQ(a.matches_vetoed, b.matches_vetoed);
  EXPECT_EQ(a.pms_evicted, b.pms_evicted);
  EXPECT_EQ(a.predicate_evals, b.predicate_evals);
  EXPECT_EQ(a.total_cost, b.total_cost);
}

void ExpectRunsIdentical(const ShardRunResult& a, const ShardRunResult& b) {
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.routed_events, b.routed_events);
  EXPECT_EQ(a.dropped_events, b.dropped_events);
  EXPECT_EQ(a.shed_pms, b.shed_pms);
  EXPECT_EQ(a.lost_events, b.lost_events);
  EXPECT_EQ(a.worker_restarts, b.worker_restarts);
  EXPECT_EQ(a.resizes, b.resizes);
  EXPECT_EQ(a.migrated_pms, b.migrated_pms);
  EXPECT_EQ(a.migrated_bytes, b.migrated_bytes);
  EXPECT_EQ(a.final_live_shards, b.final_live_shards);
  EXPECT_EQ(a.guard_input_drops, b.guard_input_drops);
  EXPECT_EQ(a.guard_trims, b.guard_trims);
  EXPECT_EQ(a.guard_evictions, b.guard_evictions);
  ExpectStatsEqual(a.stats, b.stats);
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].detected_at, b.matches[i].detected_at);
    EXPECT_EQ(a.matches[i].Key(), b.matches[i].Key());
  }
}

/// Wall-clock-free equality of two metrics snapshots: counters, gauges,
/// the (cost-unit) event-cost histogram, and the full audit trail. The
/// wall-time histograms are inherently nondeterministic and excluded.
void ExpectSnapshotsEqual(const obs::RegistrySnapshot& a,
                          const obs::RegistrySnapshot& b) {
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (size_t i = 0; i < a.shards.size(); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    const obs::ShardObsSnapshot& x = a.shards[i];
    const obs::ShardObsSnapshot& y = b.shards[i];
    EXPECT_EQ(x.events_routed, y.events_routed);
    EXPECT_EQ(x.events_processed, y.events_processed);
    EXPECT_EQ(x.events_dropped_shedder, y.events_dropped_shedder);
    EXPECT_EQ(x.events_dropped_guard, y.events_dropped_guard);
    EXPECT_EQ(x.events_lost, y.events_lost);
    EXPECT_EQ(x.matches_emitted, y.matches_emitted);
    EXPECT_EQ(x.pms_shed, y.pms_shed);
    EXPECT_EQ(x.guard_transitions, y.guard_transitions);
    EXPECT_EQ(x.guard_level, y.guard_level);
    EXPECT_EQ(x.state_bytes, y.state_bytes);
    EXPECT_EQ(x.arena_live_bytes, y.arena_live_bytes);
    EXPECT_EQ(x.arena_capacity_bytes, y.arena_capacity_bytes);
    EXPECT_EQ(x.flat_cache_entries, y.flat_cache_entries);
    EXPECT_EQ(x.migrations_total, y.migrations_total);
    EXPECT_EQ(x.migrated_pms, y.migrated_pms);
    EXPECT_EQ(x.migrated_bytes, y.migrated_bytes);
    EXPECT_EQ(x.live_shards, y.live_shards);
    EXPECT_EQ(x.arena_legacy_bytes, y.arena_legacy_bytes);
    EXPECT_EQ(x.event_cost.buckets, y.event_cost.buckets);
    EXPECT_EQ(x.event_cost.count, y.event_cost.count);
    EXPECT_EQ(x.event_cost.sum, y.event_cost.sum);
    ASSERT_EQ(x.audit.size(), y.audit.size());
    for (size_t k = 0; k < x.audit.size(); ++k) {
      EXPECT_EQ(x.audit[k].index, y.audit[k].index);
      EXPECT_EQ(x.audit[k].timestamp, y.audit[k].timestamp);
      EXPECT_EQ(x.audit[k].kind, y.audit[k].kind);
      EXPECT_EQ(x.audit[k].class_label, y.audit[k].class_label);
      EXPECT_EQ(x.audit[k].mu, y.audit[k].mu);
      EXPECT_EQ(x.audit[k].detail, y.audit[k].detail);
    }
  }
}

TEST(TraceReplayTest, FaultedSheddedShardedRunReplaysBitForBit) {
  const Schema schema = MakeDs1Schema();
  // A hostile burst stream aimed at shard 2 of 4 — the recording subject.
  BurstOptions burst;
  burst.num_events = 4000;
  burst.num_ids = 16;
  burst.num_shards = 4;
  burst.target_shard = 2;
  burst.anchor_schedule = "burst:at=1000,count=1500,factor=6";
  burst.seed = 29;
  auto hostile = GenerateBurstStream(schema, burst);
  ASSERT_TRUE(hostile.ok()) << hostile.status().ToString();

  auto q = queries::Q1();
  ASSERT_TRUE(q.ok());
  auto nfa = Nfa::Compile(*q, &schema);
  ASSERT_TRUE(nfa.ok());

  auto faults = FaultInjector::Parse(
      "burst:shard=2,at=1200,count=900,factor=4;"
      "skew:shard=1,at=500,count=600,us=250",
      77);
  ASSERT_TRUE(faults.ok()) << faults.status().ToString();

  const auto make_options = [&](obs::MetricsRegistry* metrics) {
    ShardRuntimeOptions opts;
    opts.num_shards = 4;
    opts.partition_attr = schema.AttributeIndex("ID");
    opts.faults = &*faults;
    opts.metrics = metrics;
    opts.guard.enabled = true;
    opts.guard.memory_budget_bytes = 1u << 20;
    return opts;
  };
  const ShardRuntime::ShedderFactory factory = [](int) {
    return std::make_unique<HashDropShedder>(17);
  };

  // --- record ---
  const std::string path = TempPath("sharded.trace");
  obs::MetricsRegistry record_metrics;
  ShardRuntimeOptions opts = make_options(&record_metrics);
  auto writer = TraceWriter::Open(path, schema, /*with_routes=*/true);
  ASSERT_TRUE(writer.ok());
  opts.ingest_tap = [&](const EventPtr& event, const std::vector<int>& targets) {
    ASSERT_TRUE((*writer)->Append(*event, targets).ok());
  };
  auto runtime = ShardRuntime::Create(*nfa, opts);
  ASSERT_TRUE(runtime.ok()) << runtime.status().message();
  auto recorded = (*runtime)->RunSequential(*hostile, factory);
  ASSERT_TRUE(recorded.ok()) << recorded.status().message();
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ((*writer)->num_events(), hostile->size());
  ASSERT_GT(recorded->matches.size(), 0u) << "degenerate recording";
  EXPECT_GT(recorded->dropped_events, 0u) << "shedding never engaged";

  // --- replay twice, each through a fresh runtime and registry ---
  auto capture = ReadTrace(path);
  ASSERT_TRUE(capture.ok()) << capture.status().ToString();
  ASSERT_EQ(capture->stream.size(), hostile->size());
  ASSERT_EQ(capture->routes.size(), hostile->size());
  ExpectStreamsEqual(*hostile, capture->stream);

  obs::RegistrySnapshot snapshots[2];
  ShardRunResult results[2];
  for (int r = 0; r < 2; ++r) {
    obs::MetricsRegistry metrics;
    ShardRuntimeOptions replay_opts = make_options(&metrics);
    auto replay_runtime = ShardRuntime::Create(*nfa, replay_opts);
    ASSERT_TRUE(replay_runtime.ok());
    auto replayed = (*replay_runtime)->RunSequential(capture->stream, factory);
    ASSERT_TRUE(replayed.ok()) << replayed.status().message();
    results[r] = std::move(*replayed);
    snapshots[r] = metrics.Snapshot();

    // Recorded routes must be exactly what a fresh runtime computes.
    std::vector<int> targets;
    for (size_t i = 0; i < capture->stream.size(); ++i) {
      targets.clear();
      (*replay_runtime)->RouteEvent(*capture->stream[i], &targets);
      ASSERT_EQ(capture->routes[i], targets) << "event " << i;
    }
  }

  ExpectRunsIdentical(results[0], results[1]);
  ExpectRunsIdentical(results[0], *recorded);
  ExpectSnapshotsEqual(snapshots[0], snapshots[1]);
  ExpectSnapshotsEqual(snapshots[0], record_metrics.Snapshot());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The elastic twin of the headline property: a faulted run that resizes
// mid-stream records its scale schedule into the trace; replaying the
// capture — recorded resizes re-applied as scripted anchors — reproduces
// the run bit for bit, metrics snapshots included.

TEST(TraceReplayTest, ResizedRunReplaysViaTheRecordedScaleSchedule) {
  const Schema schema = MakeDs1Schema();
  Ds1Options ds1;
  ds1.num_events = 3000;
  ds1.event_gap = 10;
  ds1.seed = 11;
  const EventStream stream = GenerateDs1(schema, ds1);

  auto q = queries::Q1();
  ASSERT_TRUE(q.ok());
  auto nfa = Nfa::Compile(*q, &schema);
  ASSERT_TRUE(nfa.ok());

  // Non-resize chaos shared by the recording and the replay.
  const std::string kChaos = "skew:at=100,count=500,us=250;death:shard=1,at=50";
  auto record_faults =
      FaultInjector::Parse(kChaos + ";resize:at=900,delta=+2;resize:at=2000,delta=-1");
  ASSERT_TRUE(record_faults.ok()) << record_faults.status().ToString();

  const auto make_options = [&](const FaultInjector* faults,
                                obs::MetricsRegistry* metrics) {
    ShardRuntimeOptions opts;
    opts.num_shards = 2;
    opts.partition_attr = schema.AttributeIndex("ID");
    opts.reshard.max_shards = 4;
    opts.faults = faults;
    opts.metrics = metrics;
    return opts;
  };
  const ShardRuntime::ShedderFactory factory = [](int) {
    return std::make_unique<HashDropShedder>(23);
  };

  // --- record: events + routes via the ingest tap, resizes via the
  // resize tap ---
  const std::string path = TempPath("resized.trace");
  obs::MetricsRegistry record_metrics;
  ShardRuntimeOptions opts = make_options(&*record_faults, &record_metrics);
  auto writer = TraceWriter::Open(path, schema, /*with_routes=*/true);
  ASSERT_TRUE(writer.ok());
  opts.ingest_tap = [&](const EventPtr& event, const std::vector<int>& targets) {
    ASSERT_TRUE((*writer)->Append(*event, targets).ok());
  };
  opts.resize_tap = [&](uint64_t seq, int old_shards, int new_shards) {
    (*writer)->RecordResize(seq, old_shards, new_shards);
  };
  auto runtime = ShardRuntime::Create(*nfa, opts);
  ASSERT_TRUE(runtime.ok()) << runtime.status().message();
  auto recorded = (*runtime)->RunSequential(stream, factory);
  ASSERT_TRUE(recorded.ok()) << recorded.status().message();
  ASSERT_TRUE((*writer)->Close().ok());
  ASSERT_EQ(recorded->resizes, 2u);
  ASSERT_GT(recorded->migrated_pms, 0u);
  ASSERT_GT(recorded->matches.size(), 0u) << "degenerate recording";

  // --- the capture carries the executed schedule ---
  auto capture = ReadTrace(path);
  ASSERT_TRUE(capture.ok()) << capture.status().ToString();
  const std::vector<TraceResize> expected = {{900, 2, 4}, {2000, 4, 3}};
  ASSERT_EQ(capture->resizes, expected);
  EXPECT_EQ(ResizeScheduleSpec(capture->resizes),
            "resize:at=900,delta=2;resize:at=2000,delta=-1");
  ExpectStreamsEqual(stream, capture->stream);

  // --- replay: recorded resizes become scripted anchors; route choices
  // must retrace the capture through both flips ---
  auto replay_faults =
      FaultInjector::Parse(kChaos + ";" + ResizeScheduleSpec(capture->resizes));
  ASSERT_TRUE(replay_faults.ok()) << replay_faults.status().ToString();
  obs::MetricsRegistry replay_metrics;
  ShardRuntimeOptions replay_opts = make_options(&*replay_faults, &replay_metrics);
  size_t at = 0;
  replay_opts.ingest_tap = [&](const EventPtr&, const std::vector<int>& targets) {
    ASSERT_LT(at, capture->routes.size());
    ASSERT_EQ(targets, capture->routes[at]) << "event " << at;
    ++at;
  };
  auto replay_runtime = ShardRuntime::Create(*nfa, replay_opts);
  ASSERT_TRUE(replay_runtime.ok());
  auto replayed = (*replay_runtime)->RunSequential(capture->stream, factory);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  EXPECT_EQ(at, capture->routes.size());

  ExpectRunsIdentical(*recorded, *replayed);
  ExpectSnapshotsEqual(record_metrics.Snapshot(), replay_metrics.Snapshot());
  std::remove(path.c_str());
}

TEST(TraceTest, ResizeSectionCorruptionIsCaughtByTheChecksum) {
  const Schema schema = MakeDs1Schema();
  Ds1Options ds1;
  ds1.num_events = 20;
  const EventStream stream = GenerateDs1(schema, ds1);
  const std::string path = TempPath("resized_corrupt.trace");
  {
    auto writer = TraceWriter::Open(path, schema);
    ASSERT_TRUE(writer.ok());
    for (const EventPtr& e : stream) ASSERT_TRUE((*writer)->Append(*e).ok());
    (*writer)->RecordResize(10, 2, 3);
    ASSERT_TRUE((*writer)->Close().ok());
  }
  ASSERT_TRUE(ReadTrace(path).ok());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // The resize section is the last four bytes (count, seq, old, new);
  // flip the seq byte: the entry stays well-formed, so only the checksum
  // can catch it.
  std::string bad = bytes;
  bad[bad.size() - 3] = static_cast<char>(bad[bad.size() - 3] ^ 0x01);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bad;
  }
  auto replayed = ReadTrace(path);
  EXPECT_FALSE(replayed.ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Hostile generator structure.

TEST(HostileTest, DriftMovesTheCvRange) {
  const Schema schema = MakeDs1Schema();
  DriftOptions options;
  options.num_events = 10000;
  options.drift_begin = 3000;
  options.drift_end = 7000;
  const EventStream stream = GenerateDriftStream(schema, options);
  ASSERT_EQ(stream.size(), options.num_events);
  const int c_type = schema.EventTypeId("C");
  const int v_attr = schema.AttributeIndex("V");
  for (size_t i = 0; i < stream.size(); ++i) {
    const Event& e = *stream[i];
    if (e.type() != c_type) continue;
    const int64_t v = e.attr(v_attr).AsInt();
    if (i < options.drift_begin) {
      EXPECT_GE(v, options.c_v_min_start);
      EXPECT_LE(v, options.c_v_max_start);
    } else if (i >= options.drift_end) {
      EXPECT_GE(v, options.c_v_min_end);
      EXPECT_LE(v, options.c_v_max_end);
    }
  }
  // Determinism: same options, same stream.
  ExpectStreamsEqual(stream, GenerateDriftStream(schema, options));
}

TEST(HostileTest, BurstConcentratesOnVictimShard) {
  const Schema schema = MakeDs1Schema();
  BurstOptions options;
  options.num_events = 12000;
  options.num_shards = 4;
  options.target_shard = 3;
  options.anchor_schedule = "burst:at=4000,count=4000,factor=10";
  const auto stream = GenerateBurstStream(schema, options);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  const int id_attr = schema.AttributeIndex("ID");
  size_t on_victim = 0;
  for (size_t i = 4000; i < 8000; ++i) {
    if (ShardRuntime::ShardOfKey((*stream)[i]->attr(id_attr), 4) == 3) {
      ++on_victim;
    }
  }
  // bias 0.95 says ~95% of burst events hash to the victim shard.
  EXPECT_GT(on_victim, 3500u);
  // Burst windows compress time: the burst segment must span far less
  // event time than the same-length calm prefix.
  const Timestamp calm_span = (*stream)[4000]->timestamp() - (*stream)[0]->timestamp();
  const Timestamp burst_span =
      (*stream)[8000]->timestamp() - (*stream)[4000]->timestamp();
  EXPECT_LT(burst_span * 4, calm_span);
}

TEST(HostileTest, BurstRejectsBadScheduleAndGeometry) {
  const Schema schema = MakeDs1Schema();
  {
    BurstOptions options;
    options.anchor_schedule = "burst:at=nope";
    EXPECT_FALSE(GenerateBurstStream(schema, options).ok());
  }
  {
    BurstOptions options;
    options.anchor_schedule = "stall:shard=0,at=10,us=5";  // no burst entry
    EXPECT_FALSE(GenerateBurstStream(schema, options).ok());
  }
  {
    BurstOptions options;
    options.target_shard = 9;
    options.num_shards = 4;
    EXPECT_FALSE(GenerateBurstStream(schema, options).ok());
  }
}

TEST(HostileTest, KleeneBombBuildsCorrelatedRuns) {
  const Schema schema = MakeDs1Schema();
  KleeneBombOptions options;
  options.num_events = 5000;
  const EventStream stream = GenerateKleeneBomb(schema, options);
  ASSERT_EQ(stream.size(), options.num_events);
  const int a_type = schema.EventTypeId("A");
  size_t a_count = 0;
  size_t longest_same_key_run = 0, current = 0;
  int64_t last_id = -1, last_v = -1;
  const int id_attr = schema.AttributeIndex("ID");
  const int v_attr = schema.AttributeIndex("V");
  for (const EventPtr& e : stream) {
    if (e->type() != a_type) continue;
    ++a_count;
    const int64_t id = e->attr(id_attr).AsInt();
    const int64_t v = e->attr(v_attr).AsInt();
    if (id == last_id && v == last_v) {
      ++current;
    } else {
      current = 1;
      last_id = id;
      last_v = v;
    }
    longest_same_key_run = std::max(longest_same_key_run, current);
  }
  // A events dominate and arrive in long same-(ID,V) runs.
  EXPECT_GT(a_count, stream.size() * 8 / 10);
  EXPECT_GE(longest_same_key_run, options.run_length);
}

}  // namespace
}  // namespace lab
}  // namespace cepshed
