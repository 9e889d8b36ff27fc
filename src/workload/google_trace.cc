// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/workload/google_trace.h"

#include <algorithm>
#include <deque>

namespace cepshed {

Schema MakeGoogleTraceSchema() {
  Schema schema;
  for (const char* t : {"Submit", "Schedule", "Evict", "Fail", "Finish"}) {
    auto r = schema.AddEventType(t);
    (void)r;
  }
  for (const char* a : {"task", "machine", "priority"}) {
    auto r = schema.AddAttribute(a, ValueType::kInt);
    (void)r;
  }
  return schema;
}

EventStream GenerateGoogleTrace(const Schema& schema,
                                const GoogleTraceOptions& options) {
  EventStream stream(&schema);
  Rng rng(options.seed);
  const int task_attr = schema.AttributeIndex("task");
  const int machine_attr = schema.AttributeIndex("machine");
  const int prio_attr = schema.AttributeIndex("priority");
  const int t_submit = schema.EventTypeId("Submit");
  const int t_schedule = schema.EventTypeId("Schedule");
  const int t_evict = schema.EventTypeId("Evict");
  const int t_fail = schema.EventTypeId("Fail");
  const int t_finish = schema.EventTypeId("Finish");

  struct Task {
    int64_t id;
    int64_t priority;
    int schedules = 0;     // how often it has been scheduled
    int machine = -1;
    enum { kSubmitted, kRunning } phase = kSubmitted;
  };
  std::deque<Task> pending;   // submitted, waiting for scheduling
  std::deque<Task> running;
  int64_t next_task_id = 1;
  Timestamp now = 0;

  auto emit = [&](int type, const Task& task, int machine) {
    std::vector<Value> attrs(schema.num_attributes());
    attrs[static_cast<size_t>(task_attr)] = Value(task.id);
    attrs[static_cast<size_t>(machine_attr)] = Value(static_cast<int64_t>(machine));
    attrs[static_cast<size_t>(prio_attr)] = Value(task.priority);
    Status st = stream.Emit(type, now, std::move(attrs));
    (void)st;
  };

  while (stream.size() < options.num_events) {
    const bool storm = (now % options.storm_period) < options.storm_length;
    now += std::max<Timestamp>(
        1, static_cast<Timestamp>(rng.Exponential(1.0 / options.base_gap)));

    // Keep the cluster fed: submit new tasks while below the live cap.
    const size_t live = pending.size() + running.size();
    if (live < static_cast<size_t>(options.max_live_tasks) &&
        (live == 0 || rng.Bernoulli(0.4))) {
      Task task;
      task.id = next_task_id++;
      task.priority = rng.UniformInt(0, 9);
      emit(t_submit, task, -1);
      pending.push_back(task);
      continue;
    }

    // Scheduler pass: place a pending task.
    if (!pending.empty() && (running.empty() || rng.Bernoulli(0.5))) {
      Task task = pending.front();
      pending.pop_front();
      // Reschedules land on a different machine (the paper's pattern needs
      // distinct machines across the evict/reschedule chain).
      int machine;
      do {
        machine = static_cast<int>(rng.UniformInt(0, options.num_machines - 1));
      } while (machine == task.machine && options.num_machines > 1);
      task.machine = machine;
      ++task.schedules;
      task.phase = Task::kRunning;
      emit(t_schedule, task, machine);
      running.push_back(task);
      continue;
    }
    if (running.empty()) continue;

    // A running task transitions: evict, fail, or finish.
    const size_t pick = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(running.size()) - 1));
    std::swap(running[pick], running.back());
    Task task = running.back();
    running.pop_back();

    const double evict_p = storm ? options.storm_evict_prob : options.evict_prob;
    if (rng.Bernoulli(evict_p)) {
      emit(t_evict, task, task.machine);
      task.phase = Task::kSubmitted;
      pending.push_back(task);  // will be rescheduled elsewhere
    } else if (task.schedules >= 3 && rng.Bernoulli(options.fail_prob)) {
      emit(t_fail, task, task.machine);
    } else {
      emit(t_finish, task, task.machine);
    }
  }
  return stream;
}

}  // namespace cepshed
