// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/cep/stream.h"

namespace cepshed {

Status EventStream::Append(EventPtr event) {
  if (!events_.empty() && event->timestamp() < events_.back()->timestamp()) {
    return Status::InvalidArgument("stream timestamps must be non-decreasing");
  }
  events_.push_back(std::move(event));
  return Status::OK();
}

Status EventStream::Emit(int type, Timestamp timestamp, std::vector<Value> attrs) {
  if (type < 0 || static_cast<size_t>(type) >= schema_->num_event_types()) {
    return Status::InvalidArgument("unknown event type id " + std::to_string(type));
  }
  return Append(std::make_shared<Event>(type, timestamp, events_.size(), std::move(attrs)));
}

EventStream EventStream::Prefix(size_t k) const {
  EventStream out(schema_);
  const size_t n = k < events_.size() ? k : events_.size();
  out.events_.assign(events_.begin(), events_.begin() + static_cast<ptrdiff_t>(n));
  return out;
}

}  // namespace cepshed
