// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Shared helpers for the test suites: a small ABCD schema (the shape of the
// paper's dataset DS1), query/event builders, and the FNV-1a fingerprint
// every golden test folds its outputs into.

#ifndef CEPSHED_TESTS_TEST_UTIL_H_
#define CEPSHED_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/cep/engine.h"
#include "src/cep/event.h"
#include "src/cep/match.h"
#include "src/cep/nfa.h"
#include "src/cep/pattern.h"
#include "src/cep/schema.h"
#include "src/cep/stream.h"

namespace cepshed::testing {

/// \brief 64-bit FNV-1a over a canonical little-endian serialization.
///
/// Golden tests fold their outputs field by field in a fixed order and pin
/// the result; the EXPECT failures print the actual value to re-pin it
/// after an intended behaviour change.
class Fnv {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  /// Length, then the bytes.
  void Str(const std::string& s) {
    U64(s.size());
    for (char c : s) Byte(static_cast<unsigned char>(c));
  }
  uint64_t value() const { return h_; }

 private:
  static constexpr uint64_t kOffset = 1469598103934665603ULL;
  static constexpr uint64_t kPrime = 1099511628211ULL;

  void Byte(unsigned char b) {
    h_ ^= b;
    h_ *= kPrime;
  }

  uint64_t h_ = kOffset;
};

/// Folds one event: type, timestamp, sequence number, then each
/// attribute's type tag and payload.
inline void FoldEvent(const Event& e, Fnv* f) {
  f->U64(static_cast<uint64_t>(e.type()));
  f->I64(e.timestamp());
  f->U64(e.seq());
  for (size_t a = 0; a < e.num_attrs(); ++a) {
    const Value& v = e.attr(static_cast<int>(a));
    f->U64(static_cast<uint64_t>(v.type()));
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt:
        f->I64(v.AsInt());
        break;
      case ValueType::kDouble:
        f->F64(v.AsDouble());
        break;
      case ValueType::kString:
        f->Str(v.AsString());
        break;
    }
  }
}

/// Folds matches in emission order: count, then (detection time, key).
inline void FoldMatches(const std::vector<Match>& matches, Fnv* f) {
  f->U64(matches.size());
  for (const Match& m : matches) {
    f->I64(m.detected_at);
    f->Str(m.Key());
  }
}

/// Folds every EngineStats field, total_cost included.
inline void FoldStats(const EngineStats& s, Fnv* f) {
  f->U64(s.events_processed);
  f->U64(s.pms_created);
  f->U64(s.witnesses_created);
  f->U64(s.matches_emitted);
  f->U64(s.matches_vetoed);
  f->U64(s.pms_evicted);
  f->U64(s.predicate_evals);
  f->U64(s.candidates_scanned);
  f->U64(s.index_probes);
  f->U64(s.peak_pms);
  f->F64(s.total_cost);
}

/// Builds the DS1-shaped schema: types A,B,C,D; attributes ID, V.
inline Schema MakeAbcdSchema() {
  Schema schema;
  for (const char* t : {"A", "B", "C", "D"}) {
    auto r = schema.AddEventType(t);
    (void)r;
  }
  (void)schema.AddAttribute("ID", ValueType::kInt);
  (void)schema.AddAttribute("V", ValueType::kInt);
  return schema;
}

/// Shorthand event constructor for the ABCD schema.
inline EventPtr MakeEvent(const Schema& schema, const std::string& type, Timestamp ts,
                          uint64_t seq, int64_t id, int64_t v) {
  std::vector<Value> attrs(schema.num_attributes());
  attrs[static_cast<size_t>(schema.AttributeIndex("ID"))] = Value(id);
  attrs[static_cast<size_t>(schema.AttributeIndex("V"))] = Value(v);
  return std::make_shared<Event>(schema.EventTypeId(type), ts, seq, std::move(attrs));
}

/// Runs a stream through a fresh engine built for `query`; returns matches.
inline std::vector<Match> RunAll(const Schema& schema, Query query,
                                 const std::vector<EventPtr>& events,
                                 EngineOptions options = {}) {
  auto nfa = Nfa::Compile(std::move(query), &schema);
  if (!nfa.ok()) return {};
  Engine engine(*nfa, options);
  std::vector<Match> out;
  for (const EventPtr& e : events) engine.Process(e, &out);
  return out;
}

/// SEQ(A a, B b, C c) WHERE a.ID=b.ID AND a.ID=c.ID AND a.V+b.V=c.V
/// WITHIN `window` — the paper's Q1.
inline Query MakeQ1(Duration window = Millis(8)) {
  Query q;
  q.name = "Q1";
  q.elements = {
      {"a", "A", -1, false, false, 1, 1},
      {"b", "B", -1, false, false, 1, 1},
      {"c", "C", -1, false, false, 1, 1},
  };
  using E = Expr;
  q.predicates.push_back(E::Compare(CmpOp::kEq, E::Attr("a", RefSelector::kSingle, "ID"),
                                    E::Attr("b", RefSelector::kSingle, "ID")));
  q.predicates.push_back(E::Compare(CmpOp::kEq, E::Attr("a", RefSelector::kSingle, "ID"),
                                    E::Attr("c", RefSelector::kSingle, "ID")));
  q.predicates.push_back(E::Compare(
      CmpOp::kEq,
      E::Binary(BinOp::kAdd, E::Attr("a", RefSelector::kSingle, "V"),
                E::Attr("b", RefSelector::kSingle, "V")),
      E::Attr("c", RefSelector::kSingle, "V")));
  q.window = window;
  return q;
}

}  // namespace cepshed::testing

#endif  // CEPSHED_TESTS_TEST_UTIL_H_
