// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// The CSV reader: a zero-copy ingest path. A file is mapped read-only (or
// a caller's buffer is read in place) and parsed through CsvCursor /
// CsvRowSplitter — no per-row read syscalls, line copies, or cell-string
// allocations. NextBatch hands out events in batches sized for the
// runtime's batched queues, so a caller can stream a multi-gigabyte trace
// without materializing the stream. ReadCsvMappedFile (here) and ReadCsv
// (csv.h) are the whole-input wrappers over this one row loop.

#ifndef CEPSHED_WORKLOAD_CSV_MMAP_H_
#define CEPSHED_WORKLOAD_CSV_MMAP_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/cep/stream.h"
#include "src/common/result.h"
#include "src/util/file_mapping.h"
#include "src/workload/csv.h"
#include "src/workload/csv_cursor.h"

namespace cepshed {

/// \brief Streaming reader over a memory-mapped CSV file or a buffer.
///
/// The header is validated against the schema up front (hard error in
/// both modes); malformed rows — including timestamp regressions, which
/// EventStream::Emit would reject — fail a strict read or are counted and
/// skipped in lenient mode; events are numbered consecutively from 0 in
/// acceptance order.
class MappedCsvReader {
 public:
  /// Maps `path` and validates its header. The file must be a regular
  /// file (a pipe or a directory fails with "not a regular file: PATH").
  static Result<MappedCsvReader> Open(const Schema& schema,
                                      const std::string& path,
                                      CsvReadOptions options = {});

  /// Reads `text` in place and validates its header. The caller keeps
  /// `text` alive while the reader is in use; events own their values.
  static Result<MappedCsvReader> OverBuffer(const Schema& schema,
                                            std::string_view text,
                                            CsvReadOptions options = {});

  /// Parses up to `max_events` further rows, appending the resulting
  /// events to *out. Returns the number appended; 0 means end of file.
  /// In strict mode the first malformed row fails the call.
  Result<size_t> NextBatch(size_t max_events, std::vector<EventPtr>* out);

  /// Parses every remaining row into a stream; copies the read counters
  /// to *stats when it is non-null.
  Result<EventStream> ReadAll(CsvReadStats* stats);

  /// True once the cursor has consumed the whole input.
  bool done() const { return done_; }

  const CsvReadStats& stats() const { return stats_; }
  const Schema& schema() const { return *schema_; }

 private:
  MappedCsvReader(const Schema& schema, FileMapping map, std::string_view text,
                  CsvReadOptions options)
      : schema_(&schema), map_(std::move(map)), cursor_(text),
        options_(options) {}

  /// Consumes and validates the header row.
  Status ReadHeader();

  const Schema* schema_ = nullptr;
  FileMapping map_;   // empty when reading a caller's buffer
  CsvCursor cursor_;  // views into map_ or the buffer; survives moves of *this
  CsvRowSplitter splitter_;
  std::vector<std::string_view> cells_;
  CsvReadOptions options_;
  CsvReadStats stats_;
  size_t expected_cells_ = 0;
  Timestamp last_ts_ = 0;
  bool have_last_ = false;
  bool done_ = false;
  uint64_t next_seq_ = 0;
};

/// Reads a whole CSV file through the mapped reader. `stats` may be null.
Result<EventStream> ReadCsvMappedFile(const Schema& schema,
                                      const std::string& path,
                                      const CsvReadOptions& options = {},
                                      CsvReadStats* stats = nullptr);

}  // namespace cepshed

#endif  // CEPSHED_WORKLOAD_CSV_MMAP_H_
