// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Partition-parallel execution: events are routed to N shards, each shard
// runs one thread-confined Engine behind a bounded ring queue, and the
// per-shard outputs are merged deterministically. A shard feeds its events
// through its own ShardStep (src/runtime/shard_step.h), the per-event step
// every driver shares, with the shard's own latency monitor, shedder and
// guard; the shard keeps only fault injection and the hand-off bookkeeping
// around it. Because the paper's shedding functions rho_I / rho_S and the
// cost model Gamma+/Gamma- are per-event and per-partial-match, sharding
// changes no shedding semantics: each shard adapts its own throttle
// against its own latency signal.
//
// Two routing modes:
//  - kHashPartition: shard = hash(event[partition_attr]) % N. Exact (the
//    sharded match set equals the sequential engine's) when every pattern
//    element — including negated ones — is equality-correlated on the
//    partition attribute (see IsPartitionCorrelated), for the any-match
//    and next-match policies. Strict contiguity is inherently global
//    (survival depends on *adjacent* stream events of all partitions) and
//    is rejected for N > 1.
// Overload & failure model: each shard may carry an OverloadGuard
// (src/runtime/overload_guard.h) that watches its latency headroom, queue
// fill, and partial-match memory and degrades it through shedding → panic
// input drop → emergency state eviction, recovering once the pressure
// clears. A FaultInjector (src/fault/fault_injector.h) can deterministically
// stall, slow, saturate, skew, or kill shards; a dead worker thread is
// detected by the router through bounded-wait pushes and restarted on the
// same queue and engine, or — once its restart budget is spent — abandoned:
// its backlog is counted as lost and the run completes with degraded recall
// instead of deadlocking. Only when every shard has been abandoned does Run
// fail, with Status::Unavailable.
//
//  - kWindowSlice: the stream is cut into overlapping time slices of
//    stride L covering [j*L, j*L + L + window); slice j is owned by shard
//    j % N, so every event is replicated to at most 1 + ceil(window/L)
//    shards. Any match spans at most `window`, hence lies entirely within
//    the coverage of the slice containing its first event — as does every
//    negation witness able to veto it. Each shard therefore keeps only the
//    matches whose first-event slice it owns (the canonical owner); copies
//    formed elsewhere are discarded before the merge. This makes slice
//    routing exact for skip-till-any-match time-window queries including
//    negation (selective policies and count windows are rejected: their
//    semantics depend on the absolute stream, not the window contents).

#ifndef CEPSHED_RUNTIME_SHARD_RUNTIME_H_
#define CEPSHED_RUNTIME_SHARD_RUNTIME_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/cep/engine.h"
#include "src/cep/nfa.h"
#include "src/cep/stream.h"
#include "src/common/result.h"
#include "src/fault/fault_injector.h"
#include "src/obs/metrics.h"
#include "src/runtime/latency_monitor.h"
#include "src/runtime/overload_guard.h"
#include "src/runtime/reshard_controller.h"
#include "src/shed/shedder.h"

namespace cepshed {

/// \brief How events are assigned to shards.
enum class ShardRouting : int {
  kHashPartition = 0,  ///< hash of a partition attribute (exact for
                       ///< partition-correlated queries)
  kWindowSlice = 1,    ///< round-robin overlapping window slices (exact for
                       ///< any-match time-window queries)
};

/// \brief Observes every event the router accepts, with the shard targets
/// chosen for it — the trace-recorder hook (src/workload/lab/trace.h).
/// Called identically by Run and RunSequential, before any push, so a
/// capture of either path replays through both.
using IngestTap =
    std::function<void(const EventPtr& event, const std::vector<int>& targets)>;

/// \brief Observes every *executed* elastic resize: the global stream
/// sequence number of the triggering event and the live shard count before
/// and after. The trace recorder persists these so a dynamically resized
/// run replays deterministically as a scripted schedule. Called on the
/// routing thread at the migration barrier, in Run and RunSequential.
using ResizeTap =
    std::function<void(uint64_t seq, int old_shards, int new_shards)>;

/// \brief Sharded-runtime configuration.
struct ShardRuntimeOptions {
  int num_shards = 1;
  ShardRouting routing = ShardRouting::kHashPartition;
  /// Schema attribute index events are hash-partitioned on (required for
  /// kHashPartition with more than one shard).
  int partition_attr = -1;
  /// Slice stride L in microseconds for kWindowSlice; 0 = the query window
  /// (duplication factor 2).
  Duration slice_stride = 0;
  /// Per-shard ring-queue capacity (rounded up to a power of two).
  size_t queue_capacity = 4096;
  /// Skip the static partition-correlation / policy validation (for tests
  /// that deliberately run inexact plans).
  bool skip_validation = false;
  EngineOptions engine;
  LatencyMonitor::Options latency;
  /// Per-shard overload guard (guard.enabled turns it on). Every shard
  /// gets its own instance with these options; drop decisions hash the
  /// globally unique event sequence numbers, so shards shed consistently.
  OverloadGuard::Options guard;
  /// Optional fault schedule (not owned, may be null; immutable and shared
  /// read-only by all shards).
  const FaultInjector* faults = nullptr;
  /// Optional observability registry (not owned, may be null). The runtime
  /// grows it to num_shards slots before workers start; each shard then
  /// records into its own slot lock-free, and the router/exporter read
  /// mergeable snapshots at any time.
  obs::MetricsRegistry* metrics = nullptr;
  /// How long a router push waits on a full shard queue before checking
  /// consumer liveness (and restarting/abandoning a dead worker). Must be
  /// positive for dead-shard detection; the push itself retries until the
  /// queue accepts or the shard is abandoned.
  int64_t push_timeout_us = 50'000;
  /// Worker-death restarts granted per shard before it is abandoned
  /// (abandonment loses the shard's unconsumed events, degrading recall;
  /// the run itself always completes).
  int max_worker_restarts = 1;
  /// Optional trace-recorder tap (may be empty). Invoked on the routing
  /// thread for every stream event after RouteEvent, before saturation
  /// checks and pushes, in both Run and RunSequential.
  IngestTap ingest_tap;
  /// Elastic resharding. Scripted `resize` fault entries and the dynamic
  /// controller (reshard.enabled) both change the live shard count at
  /// runtime via a stop-the-world migration: seal, drain every live
  /// queue, move each partial match whose hash owner changes (chains are
  /// shared with the donor arena — no deep copy), flip the routing, and
  /// resume. Requires hash routing on a partition-correlated query — even
  /// with num_shards == 1, since the run can grow past one shard. The
  /// dynamic controller runs only in Run (its signals are queue depths);
  /// RunSequential honors scripted resizes, which is how a recorded
  /// dynamic run replays.
  ReshardOptions reshard;
  /// Optional resize-recorder tap (may be empty); see ResizeTap.
  ResizeTap resize_tap;
};

/// \brief Per-shard outcome of one sharded run.
struct ShardResult {
  /// Events routed to this shard (slice routing counts replicas).
  uint64_t events_routed = 0;
  /// Events the shard's rho_I discarded.
  uint64_t events_dropped = 0;
  uint64_t events_processed = 0;
  /// Partial matches the shard's rho_S discarded.
  uint64_t shed_pms = 0;
  /// Overall average per-event latency (cost units) of this shard.
  double avg_latency = 0.0;
  /// Bound-violation accounting against the shard shedder's theta.
  uint64_t bound_violations = 0;
  uint64_t bound_checked = 0;
  /// Events delivered to the shard but lost unprocessed — consumed by a
  /// worker death or drained after abandonment. Included in events_routed:
  /// events_routed == events_processed + events_dropped + events_lost.
  uint64_t events_lost = 0;
  /// Router-side refusals (saturation fault, abandoned shard, closed
  /// queue); these never reached the queue and are NOT in events_routed.
  uint64_t events_rejected = 0;
  /// Times a dead worker thread was restarted on this shard.
  uint64_t worker_restarts = 0;
  /// Partial matches (regulars + witnesses) this shard received from /
  /// handed to other shards across all elastic resizes of the run.
  uint64_t pms_migrated_in = 0;
  uint64_t pms_migrated_out = 0;
  /// The shard exhausted its restart budget; its tail of events was lost.
  bool abandoned = false;
  /// Overload-guard telemetry (all zero when the guard is disabled).
  /// guard_input_drops is the subset of events_dropped decided by the
  /// guard rather than the shard's shedder.
  uint64_t guard_input_drops = 0;
  uint64_t guard_trims = 0;
  uint64_t guard_evictions = 0;
  uint64_t guard_escalations = 0;
  int guard_final_level = 0;
  int guard_peak_level = 0;
  size_t guard_peak_state_bytes = 0;
  EngineStats stats;
};

/// \brief Merged outcome of one sharded run.
struct ShardRunResult {
  /// All matches, ordered by (detection timestamp, event sequence numbers)
  /// — a deterministic total order independent of shard interleaving.
  /// Already unique: hash routing confines a match to one partition and
  /// slice routing keeps each match only in its canonical owner shard.
  std::vector<Match> matches;
  /// Element-wise sum of the per-shard engine stats. peak_pms is the sum
  /// of per-shard peaks: an upper bound on the true simultaneous global
  /// state size (shards peak at different times).
  EngineStats stats;
  std::vector<ShardResult> shards;
  uint64_t total_events = 0;
  /// Queue pushes; exceeds total_events under slice routing (replicas).
  uint64_t routed_events = 0;
  uint64_t dropped_events = 0;
  uint64_t shed_pms = 0;
  /// Sum of per-shard events_lost + events_rejected: every routed-to event
  /// that was neither processed nor deliberately dropped.
  uint64_t lost_events = 0;
  uint64_t worker_restarts = 0;
  int shards_abandoned = 0;
  /// Elastic resizes executed (scripted + dynamic; no-op clamps excluded).
  uint64_t resizes = 0;
  /// Partial matches / estimated bytes moved across shards by resizes.
  uint64_t migrated_pms = 0;
  uint64_t migrated_bytes = 0;
  /// Live shard count when the run ended (== num_shards without resizes).
  int final_live_shards = 0;
  uint64_t guard_input_drops = 0;
  uint64_t guard_trims = 0;
  uint64_t guard_evictions = 0;
  double wall_seconds = 0.0;
};

/// \brief Runs one query over N shard-confined engines.
class ShardRuntime {
 public:
  /// Creates one shedder per shard (called with the shard id before the
  /// workers start; the shedder is bound to the shard's engine and used
  /// only from that shard's thread). A null factory disables shedding.
  using ShedderFactory = std::function<std::unique_ptr<Shedder>(int shard)>;

  /// Validates the plan (unless opts.skip_validation) and builds the
  /// runtime. The NFA is shared read-only by all shards.
  static Result<std::unique_ptr<ShardRuntime>> Create(
      std::shared_ptr<const Nfa> nfa, ShardRuntimeOptions opts);

  /// Parallel execution: one worker thread per shard behind a bounded ring
  /// queue; the calling thread routes. Engines are rebuilt per call, so a
  /// runtime can be reused across streams.
  Result<ShardRunResult> Run(const EventStream& stream,
                             const ShedderFactory& make_shedder = {});

  /// Reference execution of the *same* sharded plan on the calling thread,
  /// shard by shard, with identical routing, engines, and shedders. The
  /// differential harness compares Run against RunSequential byte for
  /// byte: any divergence is nondeterminism introduced by the parallel
  /// path itself.
  Result<ShardRunResult> RunSequential(const EventStream& stream,
                                       const ShedderFactory& make_shedder = {});

  int num_shards() const { return opts_.num_shards; }
  const ShardRuntimeOptions& options() const { return opts_; }
  /// Shards currently receiving events. Equals num_shards outside a run
  /// and changes only at executed resizes.
  int live_shards() const { return live_shards_; }

  /// Hash-routing target of an event under the *current* live shard count
  /// (kHashPartition).
  int HashShardOf(const Event& event) const;

  /// The shard a partition-key value hashes to — the exact function
  /// HashShardOf applies to the event's partition attribute. Exposed so
  /// adversarial generators (src/workload/lab/hostile.h) can precompute
  /// key values that all land on one victim shard.
  static int ShardOfKey(const Value& key, int num_shards);

  /// Appends the target shard ids of an event (deduplicated, increasing
  /// slice order) to *out. Works for both routing modes.
  void RouteEvent(const Event& event, std::vector<int>* out) const;

  /// True when every pattern element (positive and negated) of the query
  /// is equality-correlated on schema attribute `attr`, i.e. all events of
  /// any match (and any witness able to veto it) carry one attribute
  /// value. Under this condition hash partitioning on `attr` is exact for
  /// the any-match and next-match policies.
  static bool IsPartitionCorrelated(const Nfa& nfa, int attr);

 private:
  struct ShardState;
  struct ResizeScript;

  ShardRuntime(std::shared_ptr<const Nfa> nfa, ShardRuntimeOptions opts)
      : nfa_(std::move(nfa)), opts_(opts), live_shards_(opts.num_shards) {}

  Status ValidatePlan() const;
  Duration SliceStride() const;
  /// The run's fault schedule, or null when it is empty: the per-event
  /// hook then costs nothing.
  const FaultInjector* RunFaults() const;

  /// True when this run may resize (dynamic controller or scripted
  /// `resize` fault entries).
  bool Elastic() const;
  /// Upper / lower bounds of the live shard count for this run. Workers
  /// (and metrics slots) are provisioned for the maximum up front, so a
  /// grow never spawns threads mid-stream.
  int EffectiveMaxShards() const;
  int EffectiveMinShards() const;
  int ClampLiveShards(int want) const;

  /// Stop-the-world resize to `new_live` shards (no-op when equal to the
  /// current live count): waits for every live shard to drain its queue
  /// (handling worker deaths mid-drain), migrates ownership-changing
  /// partial matches, flips the routing, and records metrics, audit, and
  /// the resize tap. Parallel path only; the sequential mirror drains its
  /// buffers first and shares MigrateState.
  void ExecuteResize(std::vector<std::unique_ptr<ShardState>>* shards,
                     int new_live, uint64_t seq, Timestamp now,
                     ShardRunResult* result);
  /// Moves every partial match whose ShardOfKey owner under `new_live`
  /// differs from its current shard, donor by donor in shard order —
  /// deterministic given the engines' states. Chains move by reference:
  /// the recipient pins the donor's arena and nodes return to it when the
  /// chains die. Requires every worker parked (quiescence).
  void MigrateState(std::vector<std::unique_ptr<ShardState>>* shards,
                    int old_live, int new_live, ShardRunResult* result) const;
  /// Shared metrics/audit/tap bookkeeping of one executed resize.
  void RecordResize(std::vector<std::unique_ptr<ShardState>>* shards,
                    int old_live, int new_live, uint64_t seq, Timestamp now,
                    double pause_us, ShardRunResult* result) const;

  /// Router-side handling of a dead worker thread (detected by a push
  /// timeout): join it, then either restart it on the same queue/engine or
  /// abandon the shard once the restart budget is spent.
  void ReviveOrAbandon(ShardState* s) const;
  /// Marks the shard abandoned: closes its queue, drains the backlog as
  /// lost events, and finalizes the shard's partial results.
  void AbandonShard(ShardState* s) const;
  /// Post-join recovery of a worker that died near the end of the stream
  /// without the router noticing: consumes the shard's remaining queue
  /// inline (this is its restart), honoring any further death faults.
  void FinishDeadShard(ShardState* s) const;

  /// Starts a run of either path: resets the live count and builds every
  /// provisioned shard (EffectiveMaxShards) with its engine, shedder,
  /// guard and obs slot wired into the shard's step. Run adds the queues.
  std::vector<std::unique_ptr<ShardState>> MakeShards(
      const ShedderFactory& make_shedder);
  /// Ends a run of either path: merges per-shard matches/stats into
  /// `result` (sorts into the deterministic total order, sums stats),
  /// records the final live count and legacy-arena gauge, and fails with
  /// Unavailable when every live shard was abandoned.
  Status Merge(std::vector<std::unique_ptr<ShardState>>* shards,
               ShardRunResult* result) const;

  std::shared_ptr<const Nfa> nfa_;
  ShardRuntimeOptions opts_;
  /// Current routable shard count; reset to num_shards at the start of
  /// each run and changed only at executed resizes (router thread only).
  int live_shards_ = 1;
};

}  // namespace cepshed

#endif  // CEPSHED_RUNTIME_SHARD_RUNTIME_H_
