// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// The CSV parsing core of the reader (MappedCsvReader, csv_mmap.cc): a
// zero-copy line cursor, an RFC-4180-style quote-aware row splitter,
// strict std::from_chars numeric parsing, and header/row validation. Everything
// operates on string_views into the caller's buffer — no per-row heap
// allocation on the fast (unquoted) path.

#ifndef CEPSHED_WORKLOAD_CSV_CURSOR_H_
#define CEPSHED_WORKLOAD_CSV_CURSOR_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "src/cep/schema.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/common/value.h"

namespace cepshed {

/// \brief Iterates the lines of a CSV buffer without copying.
///
/// Yields one line at a time with the terminator stripped — including the
/// `\r` of a CRLF terminator, so Windows-authored traces parse cleanly.
/// Views point into the caller's buffer and stay valid as long as it does.
class CsvCursor {
 public:
  explicit CsvCursor(std::string_view buffer) : buf_(buffer) {}

  /// Advances to the next line. Returns false at end of buffer. Empty
  /// lines are returned (the reader skips them).
  bool NextRow(std::string_view* row) {
    if (pos_ >= buf_.size()) return false;
    ++line_no_;
    const size_t nl = buf_.find('\n', pos_);
    const size_t begin = pos_;
    size_t end;
    if (nl == std::string_view::npos) {
      end = buf_.size();
      pos_ = buf_.size();
    } else {
      end = nl;
      pos_ = nl + 1;
    }
    if (end > begin && buf_[end - 1] == '\r') --end;
    *row = buf_.substr(begin, end - begin);
    return true;
  }

  /// 1-based line number of the last row returned by NextRow.
  size_t line_no() const { return line_no_; }

 private:
  std::string_view buf_;
  size_t pos_ = 0;
  size_t line_no_ = 0;
};

/// \brief Splits one CSV row (line terminator already stripped) into cells.
///
/// RFC-4180 semantics: a cell that starts with `"` is quoted and may
/// contain commas and quote characters; `""` inside a quoted cell is an
/// escaped quote. Unquoted cells are returned as zero-copy views into the
/// row. Quoted cells without escapes are also zero-copy (the view drops
/// the surrounding quotes); only cells carrying `""` escapes are
/// materialized, into a scratch arena reused across rows. All returned
/// views are valid until the next Split call.
class CsvRowSplitter {
 public:
  /// Returns false on a malformed row: an unterminated quoted cell, or
  /// text between a closing quote and the next comma.
  bool Split(std::string_view row, std::vector<std::string_view>* cells);

 private:
  std::string& NextScratch();

  // deque: growing never relocates already-handed-out cell storage.
  std::deque<std::string> scratch_;
  size_t scratch_used_ = 0;
};

/// Strict integer parse: the entire cell must be a base-10 integer with an
/// optional leading '-'. Rejects whitespace, a leading '+', and trailing
/// junk — uniformly, unlike std::stoll (locale-dependent, accepts leading
/// whitespace and '+').
bool ParseCsvInt(std::string_view cell, int64_t* out);

/// Strict double parse via std::from_chars (locale-independent, decimal or
/// scientific notation). Rejects whitespace, a leading '+', and the hex
/// float forms std::stod accepts.
bool ParseCsvDouble(std::string_view cell, double* out);

/// Checks a split header row against `schema`: `type,timestamp,<attrs...>`
/// in schema order. A mismatch is the wrong file, not a bad row — hard
/// error in both read modes.
Status ValidateCsvHeader(const Schema& schema,
                         const std::vector<std::string_view>& header);

/// Parses one split data row into (type, ts, attrs). Attribute cells are
/// typed by the schema; empty cells become nulls. Any failure is returned
/// as ParseError; the caller decides whether that fails the read or just
/// skips the row.
Status ParseCsvRow(const Schema& schema,
                   const std::vector<std::string_view>& cells,
                   size_t expected_cells, size_t line_no, int* type,
                   Timestamp* ts, std::vector<Value>* attrs);

}  // namespace cepshed

#endif  // CEPSHED_WORKLOAD_CSV_CURSOR_H_
