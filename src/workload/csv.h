// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// CSV import/export of event streams: lets users replay their own traces
// (e.g., the real citibike trip data) through the engine, and lets the
// examples persist generated workloads.
//
// Format: header `type,timestamp,<attr1>,<attr2>,...` (attributes in
// schema order), one event per line, empty cells for null attributes.
// Cells containing commas, quotes, or carriage returns are quoted
// RFC-4180-style on write (embedded quotes doubled) and unquoted on read;
// CRLF line endings are accepted; numeric cells parse strictly and
// locale-independently via std::from_chars (no leading/trailing
// whitespace, no leading '+', no hex floats). Rows are lines: the reader
// splits at every '\n', quoted or not, so WriteCsv refuses a line break
// in any cell — event type name, attribute name, or string value.

#ifndef CEPSHED_WORKLOAD_CSV_H_
#define CEPSHED_WORKLOAD_CSV_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "src/cep/schema.h"
#include "src/cep/stream.h"
#include "src/common/result.h"

namespace cepshed {

/// Writes a stream as CSV. Returns InvalidArgument, naming the event
/// index (or the header attribute), when a cell contains a line break;
/// the output written so far is then incomplete.
Status WriteCsv(const EventStream& stream, std::ostream* out);
Status WriteCsvFile(const EventStream& stream, const std::string& path);

/// Counters published by a CSV read.
struct CsvReadStats {
  /// Data rows consumed (header and blank lines excluded).
  uint64_t rows_read = 0;
  /// Rows skipped in lenient mode (wrong arity, unknown event type,
  /// unparsable cell, or a timestamp the stream rejects).
  uint64_t malformed_rows = 0;
};

struct CsvReadOptions {
  /// Strict (the default) fails the whole read on the first malformed
  /// row. Lenient skips such rows and counts them in
  /// CsvReadStats::malformed_rows — real traces (citibike exports, the
  /// google cluster dumps) routinely carry truncated or garbled lines,
  /// and losing one row is the load-shedding-friendly answer. A header
  /// that does not match the schema is a hard error in both modes: that
  /// is the wrong file, not a bad row.
  bool lenient = false;
};

/// Parses CSV text produced by WriteCsv (or hand-made with the same
/// header) into a stream over `schema`, through MappedCsvReader's row loop
/// (src/workload/csv_mmap.h; ReadCsvMappedFile reads a file the same way).
/// Attribute cells are parsed according to the schema's declared types.
/// `stats` may be null.
Result<EventStream> ReadCsv(const Schema& schema, std::string_view text,
                            const CsvReadOptions& options = {},
                            CsvReadStats* stats = nullptr);

}  // namespace cepshed

#endif  // CEPSHED_WORKLOAD_CSV_H_
