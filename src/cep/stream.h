// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Event streams: an in-memory, time-ordered sequence of events plus a
// builder used by the workload generators.

#ifndef CEPSHED_CEP_STREAM_H_
#define CEPSHED_CEP_STREAM_H_

#include <memory>
#include <vector>

#include "src/cep/event.h"
#include "src/cep/schema.h"
#include "src/common/result.h"

namespace cepshed {

/// \brief A finite, time-ordered event stream over a fixed schema.
///
/// Streams are materialized in memory: the paper's experiments replay fixed
/// stream prefixes S(..k), and ground-truth runs must see the exact same
/// sequence as shedding runs.
class EventStream {
 public:
  /// Constructs an empty stream over the given schema (not owned; must
  /// outlive the stream).
  explicit EventStream(const Schema* schema) : schema_(schema) {}

  /// Appends an event; enforces non-decreasing timestamps.
  Status Append(EventPtr event);

  /// Convenience: builds and appends an event with the next sequence
  /// number. `attrs` is indexed by schema attribute index.
  Status Emit(int type, Timestamp timestamp, std::vector<Value> attrs);

  /// Number of events.
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  /// The i-th event.
  const EventPtr& operator[](size_t i) const { return events_[i]; }
  /// The schema of this stream.
  const Schema& schema() const { return *schema_; }

  /// Iteration support.
  std::vector<EventPtr>::const_iterator begin() const { return events_.begin(); }
  std::vector<EventPtr>::const_iterator end() const { return events_.end(); }

  /// Returns the prefix of the first `k` events as a new stream sharing the
  /// same event objects.
  EventStream Prefix(size_t k) const;

 private:
  const Schema* schema_;
  std::vector<EventPtr> events_;
};

}  // namespace cepshed

#endif  // CEPSHED_CEP_STREAM_H_
