// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// CSV correctness suite: the round-trip bugfix regressions (RFC-4180
// quoting, CRLF acceptance, strict from_chars numerics, line breaks the
// writer used to emit), a byte-identical write→read→write property test,
// and the mapped-file-vs-buffer differential over the generator workloads
// with pinned stream fingerprints. Each regression test encodes an input
// the pre-fix code mishandled (split quoted cells, '\r' leaking into the
// last cell, stoll/stod accepting padded or signed spellings, a quoted
// '\n' the reader splits at).

#include "src/workload/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/cep/schema.h"
#include "src/cep/stream.h"
#include "src/workload/citibike.h"
#include "src/workload/csv_mmap.h"
#include "src/workload/ds1.h"
#include "src/workload/ds2.h"
#include "tests/test_util.h"

namespace cepshed {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// int ID, string NAME, double X — one attribute per value family.
Schema MakeMixedSchema() {
  Schema s;
  (void)s.AddEventType("A");
  (void)s.AddEventType("B");
  (void)s.AddAttribute("ID", ValueType::kInt);
  (void)s.AddAttribute("NAME", ValueType::kString);
  (void)s.AddAttribute("X", ValueType::kDouble);
  return s;
}

std::string WriteToString(const EventStream& stream) {
  std::ostringstream os;
  const Status st = WriteCsv(stream, &os);
  EXPECT_TRUE(st.ok()) << st.message();
  return os.str();
}

void ExpectStreamsEqual(const EventStream& a, const EventStream& b) {
  ASSERT_EQ(a.size(), b.size());
  auto ib = b.begin();
  for (const EventPtr& ea : a) {
    const EventPtr& eb = *ib++;
    EXPECT_EQ(ea->type(), eb->type());
    EXPECT_EQ(ea->timestamp(), eb->timestamp());
    EXPECT_EQ(ea->seq(), eb->seq());
    ASSERT_EQ(ea->num_attrs(), eb->num_attrs());
    for (size_t i = 0; i < ea->num_attrs(); ++i) {
      const Value& va = ea->attr(static_cast<int>(i));
      const Value& vb = eb->attr(static_cast<int>(i));
      EXPECT_EQ(va.type(), vb.type());
      if (!va.is_null() && va.type() == vb.type()) EXPECT_TRUE(va.Equals(vb));
    }
  }
}

// --- Regression 1: RFC-4180 quoting ---------------------------------------
// Before the fix, WriteCsv emitted string payloads verbatim, so a value
// containing a comma split into two cells on re-read (arity error) and a
// value containing a quote corrupted its neighbors.

TEST(CsvQuotingTest, CommaAndQuoteValuesRoundTrip) {
  const Schema schema = MakeMixedSchema();
  EventStream stream(&schema);
  ASSERT_TRUE(stream.Emit(0, 10, {Value(1), Value("plain"), Value(1.5)}).ok());
  ASSERT_TRUE(stream.Emit(1, 20, {Value(2), Value("a,b"), Value(2.5)}).ok());
  ASSERT_TRUE(stream.Emit(0, 30, {Value(3), Value("say \"hi\""), Value()}).ok());
  ASSERT_TRUE(stream.Emit(1, 40, {Value(4), Value("\""), Value(0.25)}).ok());
  ASSERT_TRUE(stream.Emit(0, 50, {Value(5), Value(",\",\""), Value(4.0)}).ok());

  const std::string text = WriteToString(stream);
  auto back = ReadCsv(schema, text);
  ASSERT_TRUE(back.ok()) << back.status().message();
  ExpectStreamsEqual(stream, *back);
  // Quoted cells survive a second trip byte for byte.
  EXPECT_EQ(WriteToString(*back), text);
}

TEST(CsvQuotingTest, QuotedCellsParseZeroCopyAndEscaped) {
  const Schema schema = MakeMixedSchema();
  // Hand-authored file: quoted plain cell, escaped-quote cell, quoted
  // numeric cell (quotes are a cell-level transport, independent of type).
  const std::string text =
      "type,timestamp,ID,NAME,X\n"
      "A,1,\"7\",\"x,y\",1.5\n"
      "B,2,8,\"he said \"\"go\"\"\",\n";
  auto back = ReadCsv(schema, text);
  ASSERT_TRUE(back.ok()) << back.status().message();
  ASSERT_EQ(back->size(), 2u);
  const EventPtr& e0 = *back->begin();
  EXPECT_EQ(e0->attr(0).AsInt(), 7);
  EXPECT_EQ(e0->attr(1).AsString(), "x,y");
  const EventPtr& e1 = *(back->begin() + 1);
  EXPECT_EQ(e1->attr(1).AsString(), "he said \"go\"");
  EXPECT_TRUE(e1->attr(2).is_null());
}

TEST(CsvQuotingTest, UnterminatedQuoteIsParseError) {
  const Schema schema = MakeMixedSchema();
  const std::string text =
      "type,timestamp,ID,NAME,X\n"
      "A,1,7,\"never closed,1.5\n";
  EXPECT_FALSE(ReadCsv(schema, text).ok());
  // Lenient mode skips the row instead.
  CsvReadStats stats;
  CsvReadOptions lenient;
  lenient.lenient = true;
  auto back = ReadCsv(schema, text, lenient, &stats);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->size(), 0u);
  EXPECT_EQ(stats.malformed_rows, 1u);
}

TEST(CsvQuotingTest, TextAfterClosingQuoteIsMalformed) {
  const Schema schema = MakeMixedSchema();
  const std::string text =
      "type,timestamp,ID,NAME,X\n"
      "A,1,7,\"ok\"trailing,1.5\n";
  EXPECT_FALSE(ReadCsv(schema, text).ok());
}

// --- Regression 2: CRLF line endings --------------------------------------
// Before the fix, the '\r' of a CRLF-authored file survived std::getline
// and leaked into the last cell: the header failed to validate, and data
// rows carried "1.5\r" into the numeric parser.

TEST(CsvCrlfTest, CrlfFileParsesIdenticallyToLf) {
  const Schema schema = MakeMixedSchema();
  const std::string lf =
      "type,timestamp,ID,NAME,X\n"
      "A,1,7,seven,1.5\n"
      "B,2,8,,\n";
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  auto from_lf = ReadCsv(schema, lf);
  ASSERT_TRUE(from_lf.ok()) << from_lf.status().message();
  auto from_crlf = ReadCsv(schema, crlf);
  ASSERT_TRUE(from_crlf.ok()) << from_crlf.status().message();
  ExpectStreamsEqual(*from_lf, *from_crlf);
  ASSERT_EQ(from_crlf->size(), 2u);
  EXPECT_EQ((*from_crlf->begin())->attr(2).AsDouble(), 1.5);

  // The mapped file reader accepts the same CRLF bytes.
  const std::string path = TempPath("crlf.csv");
  {
    std::ofstream out(path, std::ios::binary);
    out << crlf;
  }
  auto mapped = ReadCsvMappedFile(schema, path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  ExpectStreamsEqual(*from_lf, *mapped);
  std::remove(path.c_str());
}

// --- Regression 3: strict numerics ----------------------------------------
// Before the fix, numeric cells went through std::stoll/std::stod, which
// skip leading whitespace, accept a leading '+', ignore trailing garbage,
// and parse hex floats — so " 12", "12 ", "+3", and "0x1p3" all slipped
// through and produced locale- and spelling-dependent streams.

TEST(CsvStrictNumericTest, PaddedAndSignedSpellingsAreRejected) {
  const Schema schema = MakeMixedSchema();
  const std::string header = "type,timestamp,ID,NAME,X\n";
  const char* bad_rows[] = {
      "A,1, 12,n,1.5\n",    // leading space in int cell
      "A,1,12 ,n,1.5\n",    // trailing space in int cell
      "A,1,+3,n,1.5\n",     // leading '+' in int cell
      "A,1,0x1A,n,1.5\n",   // hex int
      "A,1,3,n,+1.5\n",     // leading '+' in double cell
      "A,1,3,n, 1.5\n",     // leading space in double cell
      "A,1,3,n,0x1p3\n",    // hex float
      "A,1,3,n,1.5e\n",     // dangling exponent
      "A, 1,3,n,1.5\n",     // padded timestamp
  };
  for (const char* row : bad_rows) {
    SCOPED_TRACE(row);
    EXPECT_FALSE(ReadCsv(schema, header + row).ok());
    CsvReadStats stats;
    CsvReadOptions lenient;
    lenient.lenient = true;
    auto back = ReadCsv(schema, header + row, lenient, &stats);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->size(), 0u);
    EXPECT_EQ(stats.malformed_rows, 1u);
  }
  // The strict spellings those paddings decay to still parse.
  auto ok = ReadCsv(schema,
                           header + "A,1,12,n,1.5\nB,2,-3,n,-0.5\nA,3,3,n,1.5e2\n");
  ASSERT_TRUE(ok.ok()) << ok.status().message();
  EXPECT_EQ(ok->size(), 3u);
}

TEST(CsvHeaderTest, MismatchedHeaderIsHardErrorEvenLenient) {
  const Schema schema = MakeMixedSchema();
  CsvReadOptions lenient;
  lenient.lenient = true;
  EXPECT_FALSE(
      ReadCsv(schema, "type,timestamp,ID,WRONG,X\nA,1,1,n,1.5\n", lenient)
          .ok());
  EXPECT_FALSE(ReadCsv(schema, "", lenient).ok());
}

// --- Regression 4: line breaks inside cells --------------------------------
// Before the fix, WriteCsv quoted a cell carrying '\n' and returned OK, but
// the reader splits rows at every line break: a strict read of its output
// failed with "CSV line 3: unterminated quoted cell", and a lenient read
// kept 2 of 3 events and counted 2 malformed rows for one bad input row.
// The writer now refuses any cell it could not read back.

TEST(CsvLineBreakTest, WriterRejectsCellsWithLineBreaks) {
  const Schema schema = MakeMixedSchema();
  EventStream stream(&schema);
  ASSERT_TRUE(stream.Emit(0, 10, {Value(1), Value("one"), Value(1.5)}).ok());
  ASSERT_TRUE(stream.Emit(1, 20, {Value(2), Value("line\nbreak"), Value(2.5)}).ok());
  ASSERT_TRUE(stream.Emit(0, 30, {Value(3), Value("three"), Value(3.5)}).ok());
  const std::string path = TempPath("line_break.csv");
  const Status st = WriteCsvFile(stream, path);
  std::remove(path.c_str());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("event 1"), std::string::npos) << st.message();

  // Event type names and header names are cells too.
  Schema bad_type;
  (void)bad_type.AddEventType("two\nlines");
  (void)bad_type.AddAttribute("ID", ValueType::kInt);
  EventStream typed(&bad_type);
  ASSERT_TRUE(typed.Emit(0, 1, {Value(1)}).ok());
  std::ostringstream sink;
  const Status type_st = WriteCsv(typed, &sink);
  EXPECT_EQ(type_st.code(), StatusCode::kInvalidArgument) << type_st.ToString();
  EXPECT_NE(type_st.message().find("event 0"), std::string::npos) << type_st.message();

  Schema bad_attr;
  (void)bad_attr.AddEventType("A");
  (void)bad_attr.AddAttribute("I\nD", ValueType::kInt);
  EventStream named(&bad_attr);
  ASSERT_TRUE(named.Emit(0, 1, {Value(1)}).ok());
  EXPECT_EQ(WriteCsv(named, &sink).code(), StatusCode::kInvalidArgument);
}

// --- Property: write→read→write is byte-identical --------------------------
// Doubles are drawn from a dyadic grid with few significant digits so the
// default ostream formatting is lossless; strings are drawn from a pool of
// quoting-hostile shapes, carriage returns included (a quoted '\r' is cell
// content, not a line ending). An empty string writes as an empty cell and
// reads back as null — which again writes as an empty cell, so byte
// equality of the second write still holds.

TEST(CsvRoundTripProperty, RandomStreamsSurviveByteIdentical) {
  const Schema schema = MakeMixedSchema();
  const char* name_pool[] = {"plain",    "",          "a,b",     "\"",
                             "q\"uote",  ",,",        " spaced ", "a\"\"b",
                             "x,\"y\",z", "-12",       "cr\r",    "\r"};
  std::mt19937_64 rng(20260808);
  for (int iter = 0; iter < 40; ++iter) {
    EventStream stream(&schema);
    Timestamp ts = 0;
    const int n = 1 + static_cast<int>(rng() % 120);
    for (int i = 0; i < n; ++i) {
      ts += static_cast<Timestamp>(rng() % 5);
      std::vector<Value> attrs(3);
      if (rng() % 4 != 0) {
        attrs[0] = Value(static_cast<int64_t>(rng() % 2001) - 1000);
      }
      if (rng() % 4 != 0) {
        attrs[1] = Value(std::string(name_pool[rng() % std::size(name_pool)]));
      }
      if (rng() % 4 != 0) {
        // m / 8 with |m| < 1000: at most six significant digits.
        attrs[2] = Value(static_cast<double>(static_cast<int64_t>(rng() % 1999) -
                                             999) /
                         8.0);
      }
      ASSERT_TRUE(stream.Emit(static_cast<int>(rng() % 2), ts, std::move(attrs))
                      .ok());
    }
    const std::string first = WriteToString(stream);
    for (const bool lenient : {false, true}) {
      CsvReadOptions options;
      options.lenient = lenient;
      CsvReadStats stats;
      auto back = ReadCsv(schema, first, options, &stats);
      ASSERT_TRUE(back.ok()) << back.status().message();
      ASSERT_EQ(back->size(), stream.size());
      EXPECT_EQ(stats.malformed_rows, 0u);
      EXPECT_EQ(WriteToString(*back), first);
    }
  }
}

// --- Differential: mapped file == buffer ----------------------------------
// Both wrappers drive the same row loop; the pinned fingerprints of the
// mapped read were recorded when a separate istream reader still existed
// and produced the same streams.

void ExpectMappedMatchesBuffer(const Schema& schema, const EventStream& stream,
                               const std::string& tag, uint64_t pinned) {
  const std::string path = TempPath("mmap_diff_" + tag + ".csv");
  ASSERT_TRUE(WriteCsvFile(stream, path).ok());
  CsvReadStats buffer_stats;
  auto via_buffer = ReadCsv(schema, WriteToString(stream), {}, &buffer_stats);
  ASSERT_TRUE(via_buffer.ok()) << via_buffer.status().message();
  CsvReadStats mmap_stats;
  auto via_mmap = ReadCsvMappedFile(schema, path, {}, &mmap_stats);
  ASSERT_TRUE(via_mmap.ok()) << via_mmap.status().message();
  EXPECT_EQ(buffer_stats.rows_read, mmap_stats.rows_read);
  EXPECT_EQ(buffer_stats.malformed_rows, mmap_stats.malformed_rows);
  // Byte-identical re-serialization is the strongest equality we can state
  // without a stream operator==: it covers types, timestamps, and every
  // attribute value.
  EXPECT_EQ(WriteToString(*via_buffer), WriteToString(*via_mmap));
  ExpectStreamsEqual(*via_buffer, *via_mmap);
  cepshed::testing::Fnv f;
  for (const EventPtr& e : *via_mmap) cepshed::testing::FoldEvent(*e, &f);
  f.U64(mmap_stats.rows_read);
  f.U64(mmap_stats.malformed_rows);
  EXPECT_EQ(f.value(), pinned) << std::hex << "0x" << f.value();
  std::remove(path.c_str());
}

TEST(CsvMmapDifferentialTest, Ds1) {
  const Schema schema = MakeDs1Schema();
  Ds1Options options;
  options.num_events = 4000;
  ExpectMappedMatchesBuffer(schema, GenerateDs1(schema, options), "ds1",
                            0x4a882c40221b203cULL);
}

TEST(CsvMmapDifferentialTest, Ds2) {
  const Schema schema = MakeDs2Schema();
  Ds2Options options;
  options.num_events = 4000;
  ExpectMappedMatchesBuffer(schema, GenerateDs2(schema, options), "ds2",
                            0x437940e6b2bc5426ULL);
}

TEST(CsvMmapDifferentialTest, Citibike) {
  const Schema schema = MakeCitibikeSchema();
  CitibikeOptions options;
  options.num_events = 3000;
  ExpectMappedMatchesBuffer(schema, GenerateCitibike(schema, options), "citibike",
                            0x0e5b504ef1e85bbbULL);
}

TEST(CsvMmapDifferentialTest, LenientSkipCountsMatch) {
  const Schema schema = MakeMixedSchema();
  const std::string text =
      "type,timestamp,ID,NAME,X\n"
      "A,1,7,good,1.5\n"
      "A,2,+8,padded int,1.5\n"   // malformed: '+'
      "ZZZ,3,9,unknown type,\n"   // malformed: type
      "B,0,9,time travel,\n"      // malformed: ts regression (0 < 1)
      "B,4,10,\"tail\",0.25\n";
  const std::string path = TempPath("mmap_lenient.csv");
  {
    std::ofstream out(path);
    out << text;
  }
  CsvReadOptions lenient;
  lenient.lenient = true;
  CsvReadStats a, b;
  auto via_buffer = ReadCsv(schema, text, lenient, &a);
  ASSERT_TRUE(via_buffer.ok()) << via_buffer.status().message();
  auto via_mmap = ReadCsvMappedFile(schema, path, lenient, &b);
  ASSERT_TRUE(via_mmap.ok()) << via_mmap.status().message();
  EXPECT_EQ(via_buffer->size(), 2u);
  EXPECT_EQ(a.rows_read, 5u);
  EXPECT_EQ(a.malformed_rows, 3u);
  EXPECT_EQ(b.rows_read, a.rows_read);
  EXPECT_EQ(b.malformed_rows, a.malformed_rows);
  ExpectStreamsEqual(*via_buffer, *via_mmap);
  std::remove(path.c_str());
}

TEST(CsvMmapDifferentialTest, BatchBoundariesDoNotChangeTheStream) {
  const Schema schema = MakeDs1Schema();
  Ds1Options options;
  options.num_events = 500;
  const EventStream stream = GenerateDs1(schema, options);
  const std::string path = TempPath("mmap_batches.csv");
  ASSERT_TRUE(WriteCsvFile(stream, path).ok());

  auto whole = ReadCsvMappedFile(schema, path);
  ASSERT_TRUE(whole.ok());
  for (const size_t batch : {size_t{1}, size_t{3}, size_t{64}, size_t{10000}}) {
    SCOPED_TRACE(batch);
    auto reader = MappedCsvReader::Open(schema, path);
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    EventStream rebuilt(&schema);
    std::vector<EventPtr> out;
    for (;;) {
      out.clear();
      auto n = reader->NextBatch(batch, &out);
      ASSERT_TRUE(n.ok()) << n.status().message();
      if (*n == 0) break;
      EXPECT_LE(*n, batch);
      for (EventPtr& e : out) ASSERT_TRUE(rebuilt.Append(std::move(e)).ok());
    }
    EXPECT_TRUE(reader->done());
    ExpectStreamsEqual(*whole, rebuilt);
  }
  std::remove(path.c_str());
}

TEST(CsvMmapDifferentialTest, MissingAndEmptyFiles) {
  const Schema schema = MakeMixedSchema();
  EXPECT_FALSE(ReadCsvMappedFile(schema, TempPath("does_not_exist.csv")).ok());
  const std::string path = TempPath("empty.csv");
  {
    std::ofstream out(path);
  }
  EXPECT_FALSE(ReadCsvMappedFile(schema, path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cepshed
