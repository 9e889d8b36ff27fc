// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/workload/csv_mmap.h"

#include <memory>
#include <string_view>
#include <utility>

namespace cepshed {

Result<MappedCsvReader> MappedCsvReader::Open(const Schema& schema,
                                              const std::string& path,
                                              CsvReadOptions options) {
  FileMapping map;
  CEPSHED_ASSIGN_OR_RETURN(map, FileMapping::Open(path));
  // The mapped bytes do not move with the FileMapping that owns them.
  const std::string_view text = map.view();
  MappedCsvReader reader(schema, std::move(map), text, options);
  CEPSHED_RETURN_NOT_OK(reader.ReadHeader());
  return reader;
}

Result<MappedCsvReader> MappedCsvReader::OverBuffer(const Schema& schema,
                                                    std::string_view text,
                                                    CsvReadOptions options) {
  MappedCsvReader reader(schema, FileMapping(), text, options);
  CEPSHED_RETURN_NOT_OK(reader.ReadHeader());
  return reader;
}

Status MappedCsvReader::ReadHeader() {
  std::string_view header;
  if (!cursor_.NextRow(&header)) {
    return Status::InvalidArgument("CSV input is empty");
  }
  if (!splitter_.Split(header, &cells_)) {
    return Status::InvalidArgument("CSV header does not match the schema");
  }
  CEPSHED_RETURN_NOT_OK(ValidateCsvHeader(*schema_, cells_));
  expected_cells_ = cells_.size();
  return Status::OK();
}

Result<size_t> MappedCsvReader::NextBatch(size_t max_events,
                                          std::vector<EventPtr>* out) {
  size_t added = 0;
  std::string_view row;
  while (added < max_events) {
    if (!cursor_.NextRow(&row)) {
      done_ = true;
      break;
    }
    if (row.empty()) continue;
    ++stats_.rows_read;
    int type = -1;
    Timestamp ts = 0;
    std::vector<Value> attrs;
    Status st = Status::OK();
    if (!splitter_.Split(row, &cells_)) {
      st = Status::ParseError("CSV line " + std::to_string(cursor_.line_no()) +
                              ": unterminated quoted cell");
    } else {
      st = ParseCsvRow(*schema_, cells_, expected_cells_, cursor_.line_no(),
                       &type, &ts, &attrs);
    }
    // EventStream::Emit's timestamp check, applied here so a regression
    // is a malformed row (skipped and counted in lenient mode).
    if (st.ok() && have_last_ && ts < last_ts_) {
      st = Status::InvalidArgument(
          "CSV line " + std::to_string(cursor_.line_no()) +
          ": timestamps must be non-decreasing");
    }
    if (!st.ok()) {
      if (!options_.lenient) return st;
      ++stats_.malformed_rows;
      continue;
    }
    last_ts_ = ts;
    have_last_ = true;
    out->push_back(
        std::make_shared<Event>(type, ts, next_seq_++, std::move(attrs)));
    ++added;
  }
  return added;
}

Result<EventStream> MappedCsvReader::ReadAll(CsvReadStats* stats) {
  EventStream stream(schema_);
  std::vector<EventPtr> batch;
  for (;;) {
    batch.clear();
    auto n = NextBatch(1024, &batch);
    if (!n.ok()) return n.status();
    if (*n == 0) break;
    for (EventPtr& e : batch) {
      CEPSHED_RETURN_NOT_OK(stream.Append(std::move(e)));
    }
  }
  if (stats != nullptr) *stats = stats_;
  return stream;
}

Result<EventStream> ReadCsvMappedFile(const Schema& schema,
                                      const std::string& path,
                                      const CsvReadOptions& options,
                                      CsvReadStats* stats) {
  auto reader = MappedCsvReader::Open(schema, path, options);
  if (!reader.ok()) return reader.status();
  return reader->ReadAll(stats);
}

}  // namespace cepshed
