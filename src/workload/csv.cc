// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/workload/csv.h"

#include <fstream>
#include <string_view>

#include "src/workload/csv_mmap.h"

namespace cepshed {

namespace {

/// Writes one cell, quoting RFC-4180-style when the text contains a
/// comma, quote, or carriage return (doubled quotes escape embedded
/// quotes). Plain cells — every numeric cell, and most names — go out
/// verbatim. A cell containing '\n' is refused (returns false, writes
/// nothing): the reader would split the row there.
bool WriteCsvCell(std::string_view cell, std::ostream* out) {
  const size_t special = cell.find_first_of(",\"\n\r");
  if (special == std::string_view::npos) {
    *out << cell;
    return true;
  }
  if (cell.find('\n', special) != std::string_view::npos) return false;
  out->put('"');
  for (const char ch : cell) {
    if (ch == '"') out->put('"');
    out->put(ch);
  }
  out->put('"');
  return true;
}

Status LineBreakError(const std::string& where, const std::string& what) {
  return Status::InvalidArgument(where + ": " + what +
                                 " contains a line break, which a CSV row "
                                 "cannot carry");
}

}  // namespace

Status WriteCsv(const EventStream& stream, std::ostream* out) {
  const Schema& schema = stream.schema();
  *out << "type,timestamp";
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    *out << ",";
    if (!WriteCsvCell(schema.attribute(static_cast<int>(a)).name, out)) {
      return LineBreakError("header", "attribute " + std::to_string(a) + "'s name");
    }
  }
  *out << "\n";
  for (size_t i = 0; i < stream.size(); ++i) {
    const Event& e = *stream[i];
    if (!WriteCsvCell(schema.EventTypeName(e.type()), out)) {
      return LineBreakError("event " + std::to_string(i), "the type name");
    }
    *out << "," << e.timestamp();
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      const Value& v = e.attr(static_cast<int>(a));
      *out << ",";
      if (v.is_null()) continue;
      if (v.type() == ValueType::kString) {
        if (!WriteCsvCell(v.AsString(), out)) {
          return LineBreakError("event " + std::to_string(i),
                                "attribute " + schema.attribute(static_cast<int>(a)).name);
        }
      } else {
        *out << v.ToString();
      }
    }
    *out << "\n";
  }
  if (!out->good()) return Status::Internal("CSV write failed");
  return Status::OK();
}

Status WriteCsvFile(const EventStream& stream, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::InvalidArgument("cannot open " + path);
  return WriteCsv(stream, &out);
}

Result<EventStream> ReadCsv(const Schema& schema, std::string_view text,
                            const CsvReadOptions& options, CsvReadStats* stats) {
  auto reader = MappedCsvReader::OverBuffer(schema, text, options);
  if (!reader.ok()) return reader.status();
  return reader->ReadAll(stats);
}

}  // namespace cepshed
