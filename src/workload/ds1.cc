// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/workload/ds1.h"

namespace cepshed {

Schema MakeDs1Schema() {
  Schema schema;
  for (const char* t : {"A", "B", "C", "D"}) {
    auto r = schema.AddEventType(t);
    (void)r;
  }
  auto r1 = schema.AddAttribute("ID", ValueType::kInt);
  auto r2 = schema.AddAttribute("V", ValueType::kInt);
  (void)r1;
  (void)r2;
  return schema;
}

EventStream GenerateDs1(const Schema& schema, const Ds1Options& options) {
  EventStream stream(&schema);
  Rng rng(options.seed);
  const int id_attr = schema.AttributeIndex("ID");
  const int v_attr = schema.AttributeIndex("V");
  const int c_type = schema.EventTypeId("C");
  const std::vector<double> weights(options.type_weights, options.type_weights + 4);

  for (size_t i = 0; i < options.num_events; ++i) {
    const int type = static_cast<int>(rng.Categorical(weights));
    int v_lo = options.v_min;
    int v_hi = options.v_max;
    if (type == c_type) {
      if (options.flip_at > 0 && i >= options.flip_at) {
        v_lo = options.c_v_min2;
        v_hi = options.c_v_max2;
      } else if (options.c_v_min >= 0) {
        v_lo = options.c_v_min;
        v_hi = options.c_v_max;
      }
    }
    std::vector<Value> attrs(schema.num_attributes());
    attrs[static_cast<size_t>(id_attr)] = Value(rng.UniformInt(1, options.num_ids));
    attrs[static_cast<size_t>(v_attr)] = Value(rng.UniformInt(v_lo, v_hi));
    const Timestamp ts = static_cast<Timestamp>(i) * options.event_gap;
    Status st = stream.Emit(type, ts, std::move(attrs));
    (void)st;
  }
  return stream;
}

}  // namespace cepshed
