// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Unit tests for schema, events, streams, CSV round trips, and the
// workload generators.

#include <gtest/gtest.h>

#include <sstream>
#include <unordered_map>

#include "src/cep/schema.h"
#include "src/cep/stream.h"
#include "src/workload/citibike.h"
#include "src/workload/csv.h"
#include "src/workload/ds1.h"
#include "src/workload/ds2.h"
#include "src/workload/google_trace.h"

namespace cepshed {
namespace {

TEST(SchemaTest, RegistersTypesAndAttributes) {
  Schema schema;
  auto t = schema.AddEventType("A");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 0);
  EXPECT_EQ(schema.EventTypeId("A"), 0);
  EXPECT_EQ(schema.EventTypeId("B"), -1);
  auto a = schema.AddAttribute("x", ValueType::kDouble);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(schema.AttributeIndex("x"), 0);
  EXPECT_EQ(schema.attribute(0).type, ValueType::kDouble);
}

TEST(SchemaTest, RejectsDuplicates) {
  Schema schema;
  ASSERT_TRUE(schema.AddEventType("A").ok());
  EXPECT_FALSE(schema.AddEventType("A").ok());
  ASSERT_TRUE(schema.AddAttribute("x", ValueType::kInt).ok());
  EXPECT_FALSE(schema.AddAttribute("x", ValueType::kInt).ok());
}

TEST(StreamTest, EnforcesTimestampOrder) {
  Schema schema = MakeDs1Schema();
  EventStream stream(&schema);
  EXPECT_TRUE(stream.Emit(0, 10, {Value(1), Value(2)}).ok());
  EXPECT_TRUE(stream.Emit(0, 10, {Value(1), Value(2)}).ok());  // equal is fine
  EXPECT_FALSE(stream.Emit(0, 5, {Value(1), Value(2)}).ok());
}

TEST(StreamTest, SequenceNumbersAreDense) {
  Schema schema = MakeDs1Schema();
  EventStream stream(&schema);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(stream.Emit(0, i, {Value(1), Value(2)}).ok());
  }
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i]->seq(), i);
  }
}

TEST(StreamTest, PrefixSharesEvents) {
  Schema schema = MakeDs1Schema();
  EventStream stream(&schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(stream.Emit(0, i, {Value(1), Value(2)}).ok());
  }
  EventStream prefix = stream.Prefix(4);
  EXPECT_EQ(prefix.size(), 4u);
  EXPECT_EQ(prefix[0].get(), stream[0].get());
}

TEST(CsvTest, RoundTripsGeneratedStream) {
  Schema schema = MakeDs1Schema();
  Ds1Options opts;
  opts.num_events = 200;
  const EventStream original = GenerateDs1(schema, opts);
  std::stringstream buffer;
  ASSERT_TRUE(WriteCsv(original, &buffer).ok());
  auto restored = ReadCsv(schema, buffer.str());
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*restored)[i]->type(), original[i]->type());
    EXPECT_EQ((*restored)[i]->timestamp(), original[i]->timestamp());
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      EXPECT_TRUE(
          (*restored)[i]->attr(static_cast<int>(a)).Equals(original[i]->attr(static_cast<int>(a))))
          << "event " << i << " attr " << a;
    }
  }
}

TEST(CsvTest, RejectsWrongHeader) {
  Schema schema = MakeDs1Schema();
  EXPECT_FALSE(ReadCsv(schema, "nope,header\n").ok());
  // A wrong header is a hard error even in lenient mode: the file is the
  // wrong shape, not a stream with some bad rows.
  CsvReadOptions lenient;
  lenient.lenient = true;
  EXPECT_FALSE(ReadCsv(schema, "nope,header\n", lenient).ok());
}

// One well-formed DS1 CSV with every malformed-row class in the middle:
// wrong arity, unknown type, unparsable timestamp, trailing garbage on an
// int, and a timestamp regression.
constexpr char kDirtyCsv[] =
    "type,timestamp,ID,V\n"
    "A,10,1,2\n"
    "A,20,1\n"           // wrong number of cells
    "Z,30,1,2\n"         // unknown event type
    "B,banana,1,2\n"     // bad timestamp
    "B,40,1,2x\n"        // trailing garbage on an int attribute
    "C,50,3,4\n"
    "C,5,3,4\n"          // timestamp goes backwards
    "D,60,5,6\n";

TEST(CsvTest, StrictModeFailsOnTheFirstMalformedRow) {
  Schema schema = MakeDs1Schema();
  auto read = ReadCsv(schema, kDirtyCsv);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, LenientModeSkipsAndCountsMalformedRows) {
  Schema schema = MakeDs1Schema();
  CsvReadOptions options;
  options.lenient = true;
  CsvReadStats stats;
  auto read = ReadCsv(schema, kDirtyCsv, options, &stats);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(stats.rows_read, 8u);
  EXPECT_EQ(stats.malformed_rows, 5u);
  ASSERT_EQ(read->size(), 3u);
  EXPECT_EQ((*read)[0]->timestamp(), 10);
  EXPECT_EQ((*read)[1]->timestamp(), 50);
  EXPECT_EQ((*read)[2]->timestamp(), 60);
}

TEST(Ds1Test, DeterministicPerSeed) {
  Schema schema = MakeDs1Schema();
  Ds1Options opts;
  opts.num_events = 500;
  const EventStream a = GenerateDs1(schema, opts);
  const EventStream b = GenerateDs1(schema, opts);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->type(), b[i]->type());
    EXPECT_TRUE(a[i]->attr(0).Equals(b[i]->attr(0)));
  }
}

TEST(Ds1Test, RespectsTableIIDistributions) {
  Schema schema = MakeDs1Schema();
  Ds1Options opts;
  opts.num_events = 20000;
  const EventStream stream = GenerateDs1(schema, opts);
  const int id_attr = schema.AttributeIndex("ID");
  const int v_attr = schema.AttributeIndex("V");
  size_t type_counts[4] = {0, 0, 0, 0};
  for (const EventPtr& e : stream) {
    ++type_counts[e->type()];
    const int64_t id = e->attr(id_attr).AsInt();
    const int64_t v = e->attr(v_attr).AsInt();
    ASSERT_GE(id, 1);
    ASSERT_LE(id, 10);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 10);
  }
  for (size_t c : type_counts) {
    EXPECT_NEAR(static_cast<double>(c) / 20000.0, 0.25, 0.02);
  }
}

TEST(Ds1Test, ControlledCvDistributionAndFlip) {
  Schema schema = MakeDs1Schema();
  Ds1Options opts;
  opts.num_events = 10000;
  opts.c_v_min = 2;
  opts.c_v_max = 4;
  opts.flip_at = 5000;
  opts.c_v_min2 = 12;
  opts.c_v_max2 = 20;
  const EventStream stream = GenerateDs1(schema, opts);
  const int c_type = schema.EventTypeId("C");
  const int v_attr = schema.AttributeIndex("V");
  for (const EventPtr& e : stream) {
    if (e->type() != c_type) continue;
    const int64_t v = e->attr(v_attr).AsInt();
    if (e->seq() < 5000) {
      EXPECT_GE(v, 2);
      EXPECT_LE(v, 4);
    } else {
      EXPECT_GE(v, 12);
      EXPECT_LE(v, 20);
    }
  }
}

TEST(Ds2Test, RespectsTableIIDistributions) {
  Schema schema = MakeDs2Schema();
  Ds2Options opts;
  opts.num_events = 20000;
  const EventStream stream = GenerateDs2(schema, opts);
  const int x_attr = schema.AttributeIndex("x");
  const int v_attr = schema.AttributeIndex("v");
  size_t b_low_v = 0;
  size_t b_count = 0;
  for (const EventPtr& e : stream) {
    const Value& x = e->attr(x_attr);
    if (!x.is_null()) {
      EXPECT_GT(x.ToDouble(), 0.0);
      EXPECT_LE(x.ToDouble(), 4.0);
    }
    if (e->type() == schema.EventTypeId("B")) {
      ++b_count;
      const double v = e->attr(v_attr).ToDouble();
      EXPECT_TRUE(v == 2.0 || v == 5.0);
      if (v == 2.0) ++b_low_v;
    }
  }
  ASSERT_GT(b_count, 0u);
  EXPECT_NEAR(static_cast<double>(b_low_v) / static_cast<double>(b_count), 0.33, 0.03);
}

TEST(CitibikeTest, SubscriberTripsChainByStation) {
  Schema schema = MakeCitibikeSchema();
  CitibikeOptions opts;
  opts.num_events = 5000;
  opts.subscriber_fraction = 1.0;  // all chains
  const EventStream stream = GenerateCitibike(schema, opts);
  const int bike_attr = schema.AttributeIndex("bike");
  const int start_attr = schema.AttributeIndex("start");
  const int end_attr = schema.AttributeIndex("end");
  std::unordered_map<int64_t, int64_t> last_end;
  for (const EventPtr& e : stream) {
    const int64_t bike = e->attr(bike_attr).AsInt();
    auto it = last_end.find(bike);
    if (it != last_end.end()) {
      EXPECT_EQ(e->attr(start_attr).AsInt(), it->second);
    }
    last_end[bike] = e->attr(end_attr).AsInt();
  }
}

TEST(CitibikeTest, RushHoursRaiseHotEndings) {
  Schema schema = MakeCitibikeSchema();
  CitibikeOptions opts;
  opts.num_events = 30000;
  const EventStream stream = GenerateCitibike(schema, opts);
  const int end_attr = schema.AttributeIndex("end");
  size_t rush_hot = 0;
  size_t rush_total = 0;
  size_t calm_hot = 0;
  size_t calm_total = 0;
  for (const EventPtr& e : stream) {
    const bool rush = (e->timestamp() % opts.rush_period) < opts.rush_length;
    const int64_t end = e->attr(end_attr).AsInt();
    const bool hot = end >= 7 && end <= 9;
    if (rush) {
      ++rush_total;
      rush_hot += hot;
    } else {
      ++calm_total;
      calm_hot += hot;
    }
  }
  ASSERT_GT(rush_total, 100u);
  ASSERT_GT(calm_total, 100u);
  EXPECT_GT(static_cast<double>(rush_hot) / rush_total,
            static_cast<double>(calm_hot) / calm_total);
}

TEST(GoogleTraceTest, LifecycleIsConsistent) {
  Schema schema = MakeGoogleTraceSchema();
  GoogleTraceOptions opts;
  opts.num_events = 10000;
  const EventStream stream = GenerateGoogleTrace(schema, opts);
  const int task_attr = schema.AttributeIndex("task");
  const int t_submit = schema.EventTypeId("Submit");
  const int t_schedule = schema.EventTypeId("Schedule");
  const int t_evict = schema.EventTypeId("Evict");
  const int t_fail = schema.EventTypeId("Fail");
  const int t_finish = schema.EventTypeId("Finish");

  // Per task: schedule requires submitted/evicted state; evict/fail/finish
  // require running state.
  std::unordered_map<int64_t, int> phase;  // 0 pending, 1 running
  for (const EventPtr& e : stream) {
    const int64_t task = e->attr(task_attr).AsInt();
    if (e->type() == t_submit) {
      EXPECT_EQ(phase.count(task), 0u);
      phase[task] = 0;
    } else if (e->type() == t_schedule) {
      ASSERT_EQ(phase.count(task), 1u);
      EXPECT_EQ(phase[task], 0);
      phase[task] = 1;
    } else if (e->type() == t_evict) {
      ASSERT_EQ(phase.count(task), 1u);
      EXPECT_EQ(phase[task], 1);
      phase[task] = 0;
    } else if (e->type() == t_fail || e->type() == t_finish) {
      ASSERT_EQ(phase.count(task), 1u);
      EXPECT_EQ(phase[task], 1);
      phase.erase(task);
    }
  }
}

TEST(GoogleTraceTest, ReschedulesLandOnDifferentMachines) {
  Schema schema = MakeGoogleTraceSchema();
  GoogleTraceOptions opts;
  opts.num_events = 10000;
  const EventStream stream = GenerateGoogleTrace(schema, opts);
  const int task_attr = schema.AttributeIndex("task");
  const int machine_attr = schema.AttributeIndex("machine");
  const int t_schedule = schema.EventTypeId("Schedule");
  std::unordered_map<int64_t, int64_t> last_machine;
  size_t reschedules = 0;
  for (const EventPtr& e : stream) {
    if (e->type() != t_schedule) continue;
    const int64_t task = e->attr(task_attr).AsInt();
    const int64_t machine = e->attr(machine_attr).AsInt();
    auto it = last_machine.find(task);
    if (it != last_machine.end()) {
      ++reschedules;
      EXPECT_NE(machine, it->second);
    }
    last_machine[task] = machine;
  }
  EXPECT_GT(reschedules, 0u);
}

}  // namespace
}  // namespace cepshed
