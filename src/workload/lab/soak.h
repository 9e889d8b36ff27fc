// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Soak harness: drives persistent per-shard engines through many cycles of
// hostile workload (src/workload/lab/hostile.h) on one continuous
// event-time axis and asserts that the state-footprint gauges introduced
// in the observability layer stay *bounded* — i.e. that nothing leaks or
// creeps when the engine runs far longer than any single test or bench.
//
// Why not just loop ShardRuntime::Run? Run constructs fresh engines per
// call, so cross-run leaks are structurally impossible there and a soak
// over it would only measure the generators. The failure mode worth
// hunting is state that survives *within* one long-lived engine: arena
// capacity that ratchets up burst after burst, a flatten cache that never
// sheds entries, partial matches pinned past their window. The runner
// therefore owns one Engine + OverloadGuard per shard for its whole life,
// drives each through the runtime's per-event step (ShardStep), routes
// events with the runtime's own hash (ShardRuntime::ShardOfKey), and
// chains each cycle's ts_origin after the previous cycle's last timestamp
// so windows genuinely expire.
//
// Boundedness criterion: the first `warmup_cycles` cycles establish a
// per-gauge baseline peak (warmup lets caches fill and the arena reach its
// natural plateau); every later cycle's peak must stay within
// `slack * max(baseline, floor)`. The audit ring is additionally checked
// against its compile-time capacity. A violation does not abort the run —
// the report carries `bounded = false` plus a human-readable description,
// and the caller (tools/soak_runner, tests/soak_test) decides how loud to
// be.

#ifndef CEPSHED_WORKLOAD_LAB_SOAK_H_
#define CEPSHED_WORKLOAD_LAB_SOAK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/obs/metrics.h"

namespace cepshed {
namespace lab {

struct SoakOptions {
  int num_shards = 2;
  /// Total workload cycles, including warmup.
  int cycles = 12;
  size_t events_per_cycle = 6000;
  /// "drift", "burst", "kleene", or "mixed" (rotates through all three).
  std::string workload = "mixed";
  /// Kleene limit of the Q2 query under soak.
  int kleene_reps = 3;
  std::string window = "1ms";
  /// Overload-guard latency bound in cost units (<= 0: latency signal off;
  /// memory pressure still drives the ladder).
  double guard_theta = 0.0;
  /// Per-shard partial-match memory budget. This is the lever that makes
  /// the Kleene bomb survivable — and the soak verifies it actually holds.
  size_t memory_budget_bytes = 8u << 20;
  /// Cycles that establish the baseline peaks (must be < cycles).
  int warmup_cycles = 3;
  /// Post-warmup peaks may exceed the baseline by this factor.
  double slack = 2.0;
  /// Stop issuing new cycles once this much wall time has elapsed
  /// (0 = no limit). The report flags truncation; boundedness is then
  /// judged over the cycles that did run.
  double wall_limit_seconds = 0.0;
  uint64_t seed = 42;
  /// Cycle-anchored elastic schedule: "CYCLE:LIVE;CYCLE:LIVE" (e.g.
  /// "4:4;8:2") changes the live shard count at the *start* of the named
  /// cycle, migrating partial-match ownership between the persistent
  /// engines exactly like the runtime's stop-the-world resize. Entries
  /// must not fall inside warmup (the baseline is established at
  /// num_shards). Empty = no resizes. The soak then also asserts the
  /// migration-leak invariant: once the live count has been stable for a
  /// full cycle, the retired engines' arenas must have drained back to
  /// (below) the byte floor — chain nodes lent to recipients all came
  /// home when their windows expired.
  std::string scale_schedule;
};

/// Per-cycle observations; peaks are sampled after every processed event.
struct SoakCycleStats {
  int cycle = 0;
  std::string workload;
  uint64_t events = 0;
  uint64_t matches = 0;
  uint64_t guard_drops = 0;
  /// Cumulative guard trims + emergency evictions across all shards at
  /// cycle end (monotone over the run).
  uint64_t evictions = 0;
  /// Max over shards of the per-event gauge samples within the cycle.
  size_t state_bytes_peak = 0;
  size_t arena_live_bytes_peak = 0;
  /// Capacity never shrinks, so the end-of-cycle value IS the peak.
  size_t arena_capacity_bytes_end = 0;
  size_t flat_cache_peak = 0;
  /// Largest audit-ring population over shards at cycle end.
  size_t audit_retained = 0;
  double wall_seconds = 0.0;
  /// Live shard count this cycle ran with (== num_shards without a scale
  /// schedule), whether the cycle started with a resize, and what it moved.
  int live_shards = 0;
  bool resized = false;
  uint64_t migrated_pms = 0;
  /// Live chain-node bytes still owed to retired (non-routable) engines'
  /// arenas at cycle end — the migration-leak gauge.
  size_t legacy_arena_bytes_end = 0;
};

struct SoakReport {
  std::vector<SoakCycleStats> cycles;
  bool bounded = true;
  /// Empty when bounded; else names the first offending cycle/gauge.
  std::string violation;
  /// True when wall_limit_seconds cut the run short.
  bool truncated = false;
  uint64_t total_events = 0;
  uint64_t total_matches = 0;
  double total_wall_seconds = 0.0;
};

/// \brief Owns the persistent engines and the metrics registry for one
/// soak run. The registry outlives Run() so callers can export a final
/// metrics snapshot (the nightly CI job uploads it as an artifact).
class SoakRunner {
 public:
  explicit SoakRunner(SoakOptions options);

  /// Executes the soak. Fails only on setup errors (bad workload name,
  /// query compilation); boundedness violations are reported in-band.
  Result<SoakReport> Run();

  const obs::MetricsRegistry& metrics() const { return registry_; }

 private:
  SoakOptions options_;
  obs::MetricsRegistry registry_;
};

/// Renders the report (plus the options that produced it) as one JSON
/// object — the soak_runner tool's report format.
std::string RenderSoakJson(const SoakOptions& options, const SoakReport& report);

}  // namespace lab
}  // namespace cepshed

#endif  // CEPSHED_WORKLOAD_LAB_SOAK_H_
