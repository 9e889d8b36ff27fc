// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/workload/ds2.h"

namespace cepshed {

Schema MakeDs2Schema() {
  Schema schema;
  for (const char* t : {"A", "B", "C", "D"}) {
    auto r = schema.AddEventType(t);
    (void)r;
  }
  for (const char* a : {"ID", "x", "y", "v"}) {
    auto r = schema.AddAttribute(a, ValueType::kDouble);
    (void)r;
  }
  return schema;
}

EventStream GenerateDs2(const Schema& schema, const Ds2Options& options) {
  EventStream stream(&schema);
  Rng rng(options.seed);
  const int id_attr = schema.AttributeIndex("ID");
  const int x_attr = schema.AttributeIndex("x");
  const int y_attr = schema.AttributeIndex("y");
  const int v_attr = schema.AttributeIndex("v");

  // Mixture draw per Table II: 33% in (0,2], 67% in (2,4].
  auto draw_xy = [&]() {
    return rng.Bernoulli(0.33) ? rng.UniformDouble(0.0, 2.0)
                               : rng.UniformDouble(2.0, 4.0);
  };
  auto draw_two_point = [&](double p_first, double first, double second) {
    return rng.Bernoulli(p_first) ? first : second;
  };

  for (size_t i = 0; i < options.num_events; ++i) {
    const int type = static_cast<int>(rng.UniformInt(0, 3));
    std::vector<Value> attrs(schema.num_attributes());
    attrs[static_cast<size_t>(id_attr)] =
        Value(static_cast<double>(rng.UniformInt(1, options.num_ids)));
    switch (type) {
      case 0:  // A: x, y
        attrs[static_cast<size_t>(x_attr)] = Value(draw_xy());
        attrs[static_cast<size_t>(y_attr)] = Value(draw_xy());
        break;
      case 1:  // B: x, y, v
        attrs[static_cast<size_t>(x_attr)] = Value(draw_xy());
        attrs[static_cast<size_t>(y_attr)] = Value(draw_xy());
        attrs[static_cast<size_t>(v_attr)] = Value(draw_two_point(0.33, 2.0, 5.0));
        break;
      case 2:  // C: v
        attrs[static_cast<size_t>(v_attr)] = Value(draw_two_point(0.33, 3.0, 5.0));
        break;
      default:  // D: v
        attrs[static_cast<size_t>(v_attr)] = Value(draw_two_point(0.33, 5.0, 2.0));
        break;
    }
    const Timestamp ts = static_cast<Timestamp>(i) * options.event_gap;
    Status st = stream.Emit(type, ts, std::move(attrs));
    (void)st;
  }
  return stream;
}

}  // namespace cepshed
