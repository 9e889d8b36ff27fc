// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/workload/lab/soak.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <utility>

#include "src/cep/engine.h"
#include "src/cep/nfa.h"
#include "src/runtime/overload_guard.h"
#include "src/runtime/shard_runtime.h"
#include "src/runtime/shard_step.h"
#include "src/workload/ds1.h"
#include "src/workload/lab/hostile.h"
#include "src/workload/queries.h"

namespace cepshed {
namespace lab {

namespace {

/// One long-lived shard: the whole point of the soak is that these survive
/// across cycles. The step drives the engine under the guard exactly as a
/// runtime shard worker does.
struct SoakShard {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<OverloadGuard> guard;
  std::unique_ptr<ShardStep> step;
};

/// Gauge floors below which "slack * baseline" would be vacuously tight: a
/// baseline of zero (quiet warmup) must not turn any later activity into a
/// violation. Spikes past these floors still have to stay within slack of
/// the (floored) baseline.
constexpr size_t kBytesFloor = 64u << 10;   // 64 KiB
constexpr size_t kEntriesFloor = 256;

Result<EventStream> GenerateCycle(const Schema& schema, const std::string& kind,
                                  const SoakOptions& options, int cycle,
                                  Timestamp ts_origin) {
  const uint64_t seed = options.seed + 7919u * static_cast<uint64_t>(cycle + 1);
  if (kind == "drift") {
    DriftOptions d;
    d.num_events = options.events_per_cycle;
    d.drift_begin = options.events_per_cycle / 4;
    d.drift_end = (3 * options.events_per_cycle) / 4;
    d.type_weights_start[0] = 1.0;
    d.type_weights_end[0] = 3.0;  // A-heavy tail: more open partial matches
    d.ts_origin = ts_origin;
    d.seed = seed;
    return GenerateDriftStream(schema, d);
  }
  if (kind == "burst") {
    BurstOptions b;
    b.num_events = options.events_per_cycle;
    b.num_shards = options.num_shards;
    b.target_shard = cycle % std::max(1, options.num_shards);
    std::ostringstream sched;
    sched << "burst:at=" << options.events_per_cycle / 4
          << ",count=" << options.events_per_cycle / 2 << ",factor=8";
    b.anchor_schedule = sched.str();
    b.ts_origin = ts_origin;
    b.seed = seed;
    return GenerateBurstStream(schema, b);
  }
  if (kind == "kleene") {
    KleeneBombOptions k;
    k.num_events = options.events_per_cycle;
    k.ts_origin = ts_origin;
    k.seed = seed;
    return GenerateKleeneBomb(schema, k);
  }
  return Status::InvalidArgument("soak: unknown workload '" + kind + "'");
}

std::string CycleKind(const SoakOptions& options, int cycle) {
  if (options.workload != "mixed") return options.workload;
  static const char* kRotation[] = {"kleene", "burst", "drift"};
  return kRotation[cycle % 3];
}

/// Parses "CYCLE:LIVE;CYCLE:LIVE" into (cycle -> live) pairs.
Result<std::vector<std::pair<int, int>>> ParseScaleSchedule(
    const SoakOptions& options) {
  std::vector<std::pair<int, int>> schedule;
  std::istringstream in(options.scale_schedule);
  std::string entry;
  while (std::getline(in, entry, ';')) {
    if (entry.empty()) continue;
    const size_t colon = entry.find(':');
    int cycle = -1;
    int live = -1;
    try {
      if (colon != std::string::npos) {
        cycle = std::stoi(entry.substr(0, colon));
        live = std::stoi(entry.substr(colon + 1));
      }
    } catch (...) {
      cycle = -1;  // fall through to the error below
    }
    if (colon == std::string::npos || cycle < 0 || live < 1) {
      return Status::InvalidArgument(
          "soak: bad scale-schedule entry '" + entry +
          "' (want CYCLE:LIVE with CYCLE >= 0 and LIVE >= 1)");
    }
    if (cycle < options.warmup_cycles) {
      return Status::InvalidArgument(
          "soak: scale-schedule resizes cycle " + std::to_string(cycle) +
          " inside warmup (the boundedness baseline is established at "
          "num_shards)");
    }
    if (cycle >= options.cycles) {
      return Status::InvalidArgument(
          "soak: scale-schedule cycle " + std::to_string(cycle) +
          " is past the last cycle");
    }
    if (!schedule.empty() && cycle <= schedule.back().first) {
      return Status::InvalidArgument(
          "soak: scale-schedule cycles must be strictly increasing");
    }
    schedule.push_back({cycle, live});
  }
  return schedule;
}

/// The engine-level mirror of ShardRuntime::MigrateState: moves every
/// partial match whose hash owner under `new_live` differs from its
/// current engine, donor by donor — chains by reference, recipients pin
/// the donors' arenas. Returns the number of partial matches moved.
uint64_t MigrateSoakState(std::vector<SoakShard>* shards, int old_live,
                          int new_live, int id_attr,
                          obs::MetricsRegistry* registry) {
  std::vector<std::vector<MigratedState>> transfer(shards->size());
  uint64_t moved_pms = 0;
  for (int d = 0; d < old_live; ++d) {
    Engine* donor = (*shards)[static_cast<size_t>(d)].engine.get();
    for (int r = 0; r < new_live; ++r) {
      if (r == d) continue;
      MigratedState moved = donor->ExtractPartialMatches(
          [id_attr, r, new_live](const PartialMatch& pm) {
            const Event* e = pm.LastEvent();
            if (e == nullptr) return false;
            return ShardRuntime::ShardOfKey(e->attr(id_attr), new_live) == r;
          });
      if (moved.empty()) continue;
      moved_pms += moved.size();
      registry->shard(d)->migrated_pms.Add(moved.size());
      registry->shard(d)->migrated_bytes.Add(moved.approx_bytes);
      transfer[static_cast<size_t>(r)].push_back(std::move(moved));
    }
  }
  for (size_t r = 0; r < transfer.size(); ++r) {
    for (MigratedState& moved : transfer[r]) {
      (*shards)[r].engine->AdoptPartialMatches(std::move(moved));
    }
  }
  return moved_pms;
}

}  // namespace

SoakRunner::SoakRunner(SoakOptions options) : options_(std::move(options)) {
  registry_.EnsureShards(std::max(1, options_.num_shards));
}

Result<SoakReport> SoakRunner::Run() {
  if (options_.num_shards < 1) {
    return Status::InvalidArgument("soak: num_shards must be >= 1");
  }
  if (options_.cycles < 1 || options_.warmup_cycles < 1 ||
      options_.warmup_cycles >= options_.cycles) {
    return Status::InvalidArgument(
        "soak: need 1 <= warmup_cycles < cycles");
  }
  if (options_.workload != "mixed" && options_.workload != "drift" &&
      options_.workload != "burst" && options_.workload != "kleene") {
    return Status::InvalidArgument("soak: unknown workload '" +
                                   options_.workload + "'");
  }

  auto schedule_or = ParseScaleSchedule(options_);
  if (!schedule_or.ok()) return schedule_or.status();
  const std::vector<std::pair<int, int>>& schedule = *schedule_or;

  const Schema schema = MakeDs1Schema();
  CEPSHED_ASSIGN_OR_RETURN(Query query,
                           queries::Q2(options_.kleene_reps, options_.window));
  CEPSHED_ASSIGN_OR_RETURN(std::shared_ptr<Nfa> nfa,
                           Nfa::Compile(std::move(query), &schema));
  const int id_attr = schema.AttributeIndex("ID");

  // Provision engines for the widest point of the schedule up front —
  // scale-up re-activates a parked engine, it never constructs one
  // mid-run (mirrors the runtime's logical-retirement model).
  const int num_shards = options_.num_shards;
  int effective_max = num_shards;
  for (const auto& [cycle, target] : schedule) {
    effective_max = std::max(effective_max, target);
  }
  registry_.EnsureShards(effective_max);
  std::vector<SoakShard> shards(static_cast<size_t>(effective_max));
  for (int s = 0; s < effective_max; ++s) {
    SoakShard& shard = shards[static_cast<size_t>(s)];
    shard.engine = std::make_unique<Engine>(nfa, EngineOptions{});
    OverloadGuard::Options g;
    g.enabled = true;
    g.theta = options_.guard_theta;
    g.memory_budget_bytes = options_.memory_budget_bytes;
    g.seed = options_.seed ^ (0x6f766572ULL + static_cast<uint64_t>(s));
    shard.guard = std::make_unique<OverloadGuard>(g);
    shard.guard->Attach(shard.engine.get());
    shard.guard->set_obs(registry_.shard(s), s);
    shard.step = std::make_unique<ShardStep>(shard.engine.get(), LatencyMonitor::Options{});
    shard.step->set_guard(shard.guard.get());
    shard.step->set_obs(registry_.shard(s), s);
  }

  SoakReport report;
  const auto run_start = std::chrono::steady_clock::now();
  Timestamp ts_origin = 0;
  std::vector<Match> scratch;
  int live = num_shards;
  size_t next_resize = 0;
  registry_.shard(0)->live_shards.Set(live);

  for (int cycle = 0; cycle < options_.cycles; ++cycle) {
    const std::string kind = CycleKind(options_, cycle);
    CEPSHED_ASSIGN_OR_RETURN(
        EventStream stream, GenerateCycle(schema, kind, options_, cycle, ts_origin));

    SoakCycleStats stats;
    stats.cycle = cycle;
    stats.workload = kind;

    if (next_resize < schedule.size() &&
        schedule[next_resize].first == cycle) {
      const int new_live = schedule[next_resize].second;
      ++next_resize;
      if (new_live != live) {
        stats.migrated_pms =
            MigrateSoakState(&shards, live, new_live, id_attr, &registry_);
        stats.resized = true;
        live = new_live;
        registry_.shard(0)->migrations_total.Add();
        registry_.shard(0)->live_shards.Set(live);
      }
    }
    stats.live_shards = live;
    const auto cycle_start = std::chrono::steady_clock::now();

    for (const EventPtr& event : stream) {
      const int s = ShardRuntime::ShardOfKey(event->attr(id_attr), live);
      SoakShard& shard = shards[static_cast<size_t>(s)];
      ++stats.events;
      scratch.clear();
      if (!shard.step->Step(event, &scratch).processed) {
        ++stats.guard_drops;
        continue;
      }
      stats.matches += scratch.size();
      const Engine& e = *shard.engine;
      stats.state_bytes_peak = std::max(stats.state_bytes_peak, e.ApproxStateBytes());
      stats.arena_live_bytes_peak =
          std::max(stats.arena_live_bytes_peak, e.store().arena().LiveBytes());
      stats.flat_cache_peak = std::max(stats.flat_cache_peak, e.FlatCacheSize());
    }

    // Watermark vacuum at the cycle boundary. Expiry is otherwise driven
    // by Process, so a shard whose guard sheds 100% of its input would
    // never sweep its window again: state frozen, memory signal frozen,
    // guard pinned at its rung — an expiry-starvation livelock (and, after
    // a shrink, retired arenas that never drain). The stream's clock
    // advances regardless of what any one shard processes; model that.
    if (stream.size() > 0) {
      const Timestamp watermark = stream[stream.size() - 1]->timestamp();
      for (int s = 0; s < effective_max; ++s) {
        shards[static_cast<size_t>(s)].engine->Vacuum(watermark);
      }
    }

    for (int s = 0; s < effective_max; ++s) {
      const SoakShard& shard = shards[static_cast<size_t>(s)];
      stats.arena_capacity_bytes_end =
          std::max(stats.arena_capacity_bytes_end,
                   shard.engine->store().arena().CapacityBytes());
      stats.audit_retained = std::max(
          stats.audit_retained, registry_.shard(s)->audit.Snapshot().size());
      stats.evictions += shard.guard->stats().trims +
                         shard.guard->stats().emergency_evictions;
      // Retired engines keep their arenas alive only while recipients still
      // reference chain nodes allocated there; this sum is the leak gauge.
      if (s >= live) {
        stats.legacy_arena_bytes_end +=
            shard.engine->store().arena().LiveBytes();
      }
    }
    registry_.shard(0)->arena_legacy_bytes.Set(
        static_cast<int64_t>(stats.legacy_arena_bytes_end));
    stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      cycle_start)
            .count();

    report.total_events += stats.events;
    report.total_matches += stats.matches;
    report.cycles.push_back(std::move(stats));

    if (stream.size() > 0) {
      // Chain cycles on one event-time axis so window expiry keeps working.
      ts_origin = stream[stream.size() - 1]->timestamp() + 1;
    }

    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_start)
            .count();
    if (options_.wall_limit_seconds > 0 &&
        elapsed >= options_.wall_limit_seconds &&
        cycle + 1 < options_.cycles) {
      report.truncated = true;
      break;
    }
  }
  report.total_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start)
          .count();

  // Boundedness: baseline = per-gauge max over the warmup cycles; every
  // later cycle must stay within slack * max(baseline, floor).
  const int warmup =
      std::min(options_.warmup_cycles, static_cast<int>(report.cycles.size()));
  size_t base_state = 0, base_live = 0, base_cap = 0, base_flat = 0;
  for (int c = 0; c < warmup; ++c) {
    const SoakCycleStats& w = report.cycles[static_cast<size_t>(c)];
    base_state = std::max(base_state, w.state_bytes_peak);
    base_live = std::max(base_live, w.arena_live_bytes_peak);
    base_cap = std::max(base_cap, w.arena_capacity_bytes_end);
    base_flat = std::max(base_flat, w.flat_cache_peak);
  }
  const auto allowed = [&](size_t baseline, size_t floor) {
    return static_cast<size_t>(options_.slack *
                               static_cast<double>(std::max(baseline, floor)));
  };
  const auto fail = [&](const SoakCycleStats& c, const char* gauge,
                        size_t value, size_t limit) {
    if (!report.bounded) return;  // keep the first violation
    std::ostringstream msg;
    msg << "cycle " << c.cycle << " (" << c.workload << "): " << gauge << " = "
        << value << " exceeds " << limit << " (slack " << options_.slack
        << " over warmup baseline)";
    report.bounded = false;
    report.violation = msg.str();
  };
  for (size_t i = static_cast<size_t>(warmup); i < report.cycles.size(); ++i) {
    const SoakCycleStats& c = report.cycles[i];
    if (c.state_bytes_peak > allowed(base_state, kBytesFloor)) {
      fail(c, "state_bytes_peak", c.state_bytes_peak,
           allowed(base_state, kBytesFloor));
    }
    if (c.arena_live_bytes_peak > allowed(base_live, kBytesFloor)) {
      fail(c, "arena_live_bytes_peak", c.arena_live_bytes_peak,
           allowed(base_live, kBytesFloor));
    }
    if (c.arena_capacity_bytes_end > allowed(base_cap, kBytesFloor)) {
      fail(c, "arena_capacity_bytes_end", c.arena_capacity_bytes_end,
           allowed(base_cap, kBytesFloor));
    }
    if (c.flat_cache_peak > allowed(base_flat, kEntriesFloor)) {
      fail(c, "flat_cache_peak", c.flat_cache_peak,
           allowed(base_flat, kEntriesFloor));
    }
    if (c.audit_retained > obs::AuditRing::kCapacity) {
      fail(c, "audit_retained", c.audit_retained, obs::AuditRing::kCapacity);
    }
    // Migration-leak invariant: a shrink leaves recipients holding chain
    // nodes homed in retired arenas, which is fine *transiently* — windows
    // expire within a cycle. Once the live count has been stable for this
    // cycle and the previous one, anything still owed to a retired arena
    // is a leaked reference.
    const SoakCycleStats& prev = report.cycles[i - 1];
    if (!c.resized && !prev.resized &&
        c.legacy_arena_bytes_end > kBytesFloor) {
      fail(c, "legacy_arena_bytes_end", c.legacy_arena_bytes_end, kBytesFloor);
    }
  }
  return report;
}

std::string RenderSoakJson(const SoakOptions& options, const SoakReport& report) {
  std::ostringstream out;
  out << "{\"options\":{\"num_shards\":" << options.num_shards
      << ",\"cycles\":" << options.cycles
      << ",\"events_per_cycle\":" << options.events_per_cycle
      << ",\"workload\":\"" << options.workload << "\""
      << ",\"kleene_reps\":" << options.kleene_reps
      << ",\"window\":\"" << options.window << "\""
      << ",\"guard_theta\":" << options.guard_theta
      << ",\"memory_budget_bytes\":" << options.memory_budget_bytes
      << ",\"warmup_cycles\":" << options.warmup_cycles
      << ",\"slack\":" << options.slack
      << ",\"seed\":" << options.seed
      << ",\"scale_schedule\":\"" << options.scale_schedule << "\"}";
  out << ",\"bounded\":" << (report.bounded ? "true" : "false");
  out << ",\"truncated\":" << (report.truncated ? "true" : "false");
  out << ",\"violation\":\"" << report.violation << "\"";
  out << ",\"total_events\":" << report.total_events;
  out << ",\"total_matches\":" << report.total_matches;
  out << ",\"total_wall_seconds\":" << report.total_wall_seconds;
  out << ",\"cycles\":[";
  for (size_t i = 0; i < report.cycles.size(); ++i) {
    const SoakCycleStats& c = report.cycles[i];
    if (i > 0) out << ",";
    out << "{\"cycle\":" << c.cycle << ",\"workload\":\"" << c.workload << "\""
        << ",\"events\":" << c.events << ",\"matches\":" << c.matches
        << ",\"guard_drops\":" << c.guard_drops
        << ",\"evictions\":" << c.evictions
        << ",\"state_bytes_peak\":" << c.state_bytes_peak
        << ",\"arena_live_bytes_peak\":" << c.arena_live_bytes_peak
        << ",\"arena_capacity_bytes_end\":" << c.arena_capacity_bytes_end
        << ",\"flat_cache_peak\":" << c.flat_cache_peak
        << ",\"audit_retained\":" << c.audit_retained
        << ",\"live_shards\":" << c.live_shards
        << ",\"resized\":" << (c.resized ? "true" : "false")
        << ",\"migrated_pms\":" << c.migrated_pms
        << ",\"legacy_arena_bytes_end\":" << c.legacy_arena_bytes_end
        << ",\"wall_seconds\":" << c.wall_seconds << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace lab
}  // namespace cepshed
