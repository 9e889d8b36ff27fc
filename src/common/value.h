// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// The dynamically typed attribute value carried by events and evaluated by
// query predicates.

#ifndef CEPSHED_COMMON_VALUE_H_
#define CEPSHED_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace cepshed {

/// \brief Runtime type tag of a Value.
enum class ValueType : int {
  kNull = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
};

/// \brief A dynamically typed attribute value: null, int64, double, or string.
///
/// Numeric comparisons and arithmetic promote int to double where needed.
/// Null compares unequal to everything (including null), mirroring SQL
/// three-valued logic collapsed to false.
class Value {
 public:
  /// Constructs a null value.
  Value() : rep_(std::monostate{}) {}
  /// Constructs an integer value.
  Value(int64_t v) : rep_(v) {}  // NOLINT: implicit by design
  /// Constructs an integer value from int (avoids variant ambiguity).
  Value(int v) : rep_(static_cast<int64_t>(v)) {}  // NOLINT
  /// Constructs a floating-point value.
  Value(double v) : rep_(v) {}  // NOLINT
  /// Constructs a string value.
  Value(std::string v) : rep_(std::move(v)) {}  // NOLINT
  /// Constructs a string value from a literal.
  Value(const char* v) : rep_(std::string(v)) {}  // NOLINT

  /// The runtime type of this value.
  ValueType type() const {
    return static_cast<ValueType>(rep_.index());
  }
  /// True iff the value is null.
  bool is_null() const { return type() == ValueType::kNull; }
  /// True iff the value is an int or a double.
  bool is_numeric() const {
    return type() == ValueType::kInt || type() == ValueType::kDouble;
  }

  /// The int64 payload. Requires type() == kInt.
  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  /// The double payload. Requires type() == kDouble.
  double AsDouble() const { return std::get<double>(rep_); }
  /// The string payload. Requires type() == kString.
  const std::string& AsString() const { return std::get<std::string>(rep_); }

  /// The value as a double, promoting ints. Returns 0.0 for non-numerics.
  double ToDouble() const;

  /// Strict equality with numeric promotion; null == anything is false.
  bool Equals(const Value& other) const;

  /// Three-way numeric/string comparison: -1, 0, +1. Null or mixed
  /// string/numeric operands yield -2 (incomparable).
  int Compare(const Value& other) const;

  /// Renders the value for debugging and CSV output.
  std::string ToString() const;

  /// A hash suitable for use in unordered containers and join indexes.
  /// Numerically equal int/double values hash identically.
  size_t Hash() const;

  bool operator==(const Value& other) const { return Equals(other); }
  bool operator!=(const Value& other) const { return !Equals(other); }

 private:
  std::variant<std::monostate, int64_t, double, std::string> rep_;
};

/// \brief Hash functor for Value usable with unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace cepshed

#endif  // CEPSHED_COMMON_VALUE_H_
