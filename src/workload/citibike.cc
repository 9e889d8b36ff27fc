// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/workload/citibike.h"

#include <algorithm>

namespace cepshed {

Schema MakeCitibikeSchema() {
  Schema schema;
  auto r0 = schema.AddEventType("BikeTrip");
  (void)r0;
  for (const char* a : {"bike", "start", "end", "user"}) {
    auto r = schema.AddAttribute(a, ValueType::kInt);
    (void)r;
  }
  return schema;
}

EventStream GenerateCitibike(const Schema& schema, const CitibikeOptions& options) {
  EventStream stream(&schema);
  Rng rng(options.seed);
  const int bike_attr = schema.AttributeIndex("bike");
  const int start_attr = schema.AttributeIndex("start");
  const int end_attr = schema.AttributeIndex("end");
  const int user_attr = schema.AttributeIndex("user");
  const int trip_type = schema.EventTypeId("BikeTrip");

  // Current station per bike.
  std::vector<int> station(static_cast<size_t>(options.num_bikes));
  for (auto& s : station) {
    s = static_cast<int>(rng.UniformInt(0, options.num_stations - 1));
  }

  Timestamp now = 0;
  for (size_t i = 0; i < options.num_events; ++i) {
    const bool rush = (now % options.rush_period) < options.rush_length;
    const double gap =
        options.base_gap / (rush ? options.rush_rate_factor : 1.0);
    now += std::max<Timestamp>(1, static_cast<Timestamp>(rng.Exponential(1.0 / gap)));

    const int bike = static_cast<int>(rng.UniformInt(0, options.num_bikes - 1));
    const bool subscriber = rng.Bernoulli(options.subscriber_fraction);
    const int from = station[static_cast<size_t>(bike)];
    int to;
    const double hot_p = rush ? options.hot_end_prob_rush : options.hot_end_prob;
    if (rng.Bernoulli(hot_p)) {
      to = static_cast<int>(rng.UniformInt(7, 9));  // the hot stations
    } else {
      to = static_cast<int>(rng.UniformInt(0, options.num_stations - 1));
    }

    std::vector<Value> attrs(schema.num_attributes());
    attrs[static_cast<size_t>(bike_attr)] = Value(static_cast<int64_t>(bike));
    attrs[static_cast<size_t>(start_attr)] = Value(static_cast<int64_t>(from));
    attrs[static_cast<size_t>(end_attr)] = Value(static_cast<int64_t>(to));
    attrs[static_cast<size_t>(user_attr)] = Value(static_cast<int64_t>(subscriber ? 0 : 1));
    Status st = stream.Emit(trip_type, now, std::move(attrs));
    (void)st;

    if (subscriber) {
      // The bike stays where the subscriber left it: chains continue.
      station[static_cast<size_t>(bike)] = to;
    } else {
      // Customers' bikes get redistributed by the operator (the paper's
      // "operator moves around 6k bikes per day"): chains break.
      station[static_cast<size_t>(bike)] =
          static_cast<int>(rng.UniformInt(0, options.num_stations - 1));
    }
  }
  return stream;
}

}  // namespace cepshed
