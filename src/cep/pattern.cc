// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/cep/pattern.h"

#include <sstream>
#include <unordered_set>

namespace cepshed {

Status Query::Validate(const Schema& schema) {
  if (elements.empty()) {
    return Status::InvalidArgument("query has no pattern elements");
  }
  if (elements.size() > static_cast<size_t>(EvalContext::kMaxElements)) {
    return Status::InvalidArgument("pattern too long (max " +
                                   std::to_string(EvalContext::kMaxElements) + ")");
  }
  if (window <= 0) {
    return Status::InvalidArgument("query window must be positive");
  }
  std::unordered_set<std::string> vars;
  for (size_t i = 0; i < elements.size(); ++i) {
    PatternElement& el = elements[i];
    if (el.variable.empty()) {
      return Status::InvalidArgument("pattern element " + std::to_string(i) +
                                     " lacks a variable name");
    }
    if (!vars.insert(el.variable).second) {
      return Status::InvalidArgument("duplicate pattern variable '" + el.variable + "'");
    }
    el.event_type_id = schema.EventTypeId(el.event_type);
    if (el.event_type_id < 0) {
      return Status::InvalidArgument("unknown event type '" + el.event_type + "'");
    }
    if (el.kleene && el.negated) {
      return Status::Unimplemented("negated Kleene components are not supported");
    }
    if (el.kleene) {
      if (el.min_reps < 1) {
        return Status::InvalidArgument("Kleene min_reps must be >= 1");
      }
      if (el.max_reps < el.min_reps) {
        return Status::InvalidArgument("Kleene max_reps < min_reps");
      }
    }
    if (el.negated && (i == 0 || i + 1 == elements.size())) {
      return Status::Unimplemented(
          "negated components must appear between positive components");
    }
  }
  if (NumPositiveElements() == 0) {
    return Status::InvalidArgument("pattern has no positive components");
  }
  for (const ExprPtr& pred : predicates) {
    CEPSHED_RETURN_NOT_OK(pred->Resolve(elements, schema));
  }
  return Status::OK();
}

int Query::NumPositiveElements() const {
  int n = 0;
  for (const auto& el : elements) {
    if (!el.negated) ++n;
  }
  return n;
}

std::vector<int> Query::PositiveSlots() const {
  std::vector<int> slots(elements.size(), -1);
  int next = 0;
  for (size_t i = 0; i < elements.size(); ++i) {
    if (!elements[i].negated) slots[i] = next++;
  }
  return slots;
}

std::string Query::ToString() const {
  std::ostringstream os;
  os << "PATTERN SEQ(";
  for (size_t i = 0; i < elements.size(); ++i) {
    if (i > 0) os << ", ";
    const auto& el = elements[i];
    if (el.negated) os << "!";
    os << el.event_type;
    if (el.kleene) {
      os << "+";
      if (el.min_reps != 1 || el.max_reps != INT_MAX) {
        os << "{" << el.min_reps << ",";
        if (el.max_reps != INT_MAX) os << el.max_reps;
        os << "}";
      }
    }
    os << " " << el.variable;
    if (el.kleene) os << "[]";
  }
  os << ")";
  if (!predicates.empty()) {
    os << " WHERE ";
    for (size_t i = 0; i < predicates.size(); ++i) {
      if (i > 0) os << " AND ";
      os << predicates[i]->ToString();
    }
  }
  if (policy == SelectionPolicy::kSkipTillNextMatch) {
    os << " POLICY next";
  } else if (policy == SelectionPolicy::kStrictContiguity) {
    os << " POLICY strict";
  }
  os << " WITHIN " << window << "us";
  return os.str();
}

}  // namespace cepshed
