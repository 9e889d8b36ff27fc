// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/runtime/shard_runtime.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "src/runtime/ring_queue.h"
#include "src/runtime/shard_step.h"

namespace cepshed {

namespace {

/// SplitMix64 finalizer: decorrelates Value::Hash before the modulo so
/// that consecutive integer keys spread over all shards.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

/// Flattens top-level conjunctions into individual predicates.
void FlattenConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind() == ExprKind::kAnd) {
    for (const ExprPtr& c : e->children()) FlattenConjuncts(c.get(), out);
  } else {
    out->push_back(e);
  }
}

struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(int n) : parent(static_cast<size_t>(n)) {
    for (int i = 0; i < n; ++i) parent[static_cast<size_t>(i)] = i;
  }
  int Find(int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  }
  void Union(int a, int b) { parent[static_cast<size_t>(Find(a))] = Find(b); }
};

void SumStats(const EngineStats& in, EngineStats* out) {
  out->events_processed += in.events_processed;
  out->pms_created += in.pms_created;
  out->witnesses_created += in.witnesses_created;
  out->matches_emitted += in.matches_emitted;
  out->matches_vetoed += in.matches_vetoed;
  out->pms_evicted += in.pms_evicted;
  out->predicate_evals += in.predicate_evals;
  out->candidates_scanned += in.candidates_scanned;
  out->index_probes += in.index_probes;
  out->peak_pms += in.peak_pms;
  out->total_cost += in.total_cost;
}

/// Events a worker pops (and the sequential drain processes) per
/// Engine::BeginBatch window: large enough to amortize the batched
/// predicate-mask precompute, small enough to keep the SoA scratch
/// columns cache-resident.
constexpr size_t kConsumeBatch = 64;
/// Most events the router stages per shard before a TryPushBatch flush.
/// The cap binds only under backlog: a stage whose shard queue reads empty
/// is flushed at once, so a starved worker never waits for a batch to fill.
constexpr size_t kRouterBatch = 32;

}  // namespace

bool ShardRuntime::IsPartitionCorrelated(const Nfa& nfa, int attr) {
  const Query& q = nfa.query();
  const int n = static_cast<int>(q.elements.size());
  if (attr < 0 || n == 0) return false;
  if (n == 1) return true;

  // Equality links on `attr` extracted from the WHERE conjuncts.
  struct Link {
    int e1;
    RefSelector s1;
    int e2;
    RefSelector s2;
  };
  std::vector<Link> links;
  /// Kleene elements whose iterations are chained equal on attr
  /// (a[i+1].K = a[i].K): all bound events share one value.
  std::vector<bool> self_chain(static_cast<size_t>(n), false);

  std::vector<const Expr*> conjuncts;
  for (const ExprPtr& p : q.predicates) FlattenConjuncts(p.get(), &conjuncts);
  for (const Expr* c : conjuncts) {
    if (c->kind() != ExprKind::kCompare || c->cmp_op() != CmpOp::kEq) continue;
    const Expr* lhs = c->children()[0].get();
    const Expr* rhs = c->children()[1].get();
    if (lhs->kind() != ExprKind::kAttrRef || rhs->kind() != ExprKind::kAttrRef) continue;
    if (lhs->attr_index() != attr || rhs->attr_index() != attr) continue;
    const int e1 = lhs->elem_index();
    const int e2 = rhs->elem_index();
    if (e1 < 0 || e2 < 0) continue;
    if (e1 == e2) {
      const bool chain = (lhs->selector() == RefSelector::kIterPrev &&
                          rhs->selector() == RefSelector::kIterCurr) ||
                         (lhs->selector() == RefSelector::kIterCurr &&
                          rhs->selector() == RefSelector::kIterPrev);
      if (chain) self_chain[static_cast<size_t>(e1)] = true;
    } else {
      links.push_back({e1, lhs->selector(), e2, rhs->selector()});
    }
  }

  // Uniformity: all events an element binds carry one attr value. Single-
  // event elements (non-Kleene positives and negation witnesses) are
  // trivially uniform; a Kleene element is uniform if its iterations are
  // chained equal, or if a cross-element equality pins *every* iteration.
  // That is the case for an x[i+1] reference (the event being bound,
  // checked on each bind) and equally for a cross-element x[i] reference:
  // the NFA compiler rewrites `x[i]` with no `x[i+1]` in the same
  // predicate to the current event (`b[i].V = a.V` style, see
  // nfa.cc), so it too is enforced per iteration. x[first]/x[last] pin
  // only one edge of the binding and do not qualify.
  std::vector<bool> uniform(static_cast<size_t>(n));
  for (int e = 0; e < n; ++e) {
    uniform[static_cast<size_t>(e)] =
        !q.elements[static_cast<size_t>(e)].kleene || self_chain[static_cast<size_t>(e)];
  }
  const auto pins_every_iteration = [](RefSelector s) {
    return s == RefSelector::kIterCurr || s == RefSelector::kIterPrev;
  };
  for (const Link& l : links) {
    if (q.elements[static_cast<size_t>(l.e1)].kleene && pins_every_iteration(l.s1)) {
      uniform[static_cast<size_t>(l.e1)] = true;
    }
    if (q.elements[static_cast<size_t>(l.e2)].kleene && pins_every_iteration(l.s2)) {
      uniform[static_cast<size_t>(l.e2)] = true;
    }
  }
  for (int e = 0; e < n; ++e) {
    if (!uniform[static_cast<size_t>(e)]) return false;
  }

  // With all elements uniform, each equality link equates the elements'
  // (single) attr values; the query is partition-correlated iff the links
  // connect every element into one component.
  UnionFind uf(n);
  for (const Link& l : links) uf.Union(l.e1, l.e2);
  const int root = uf.Find(0);
  for (int e = 1; e < n; ++e) {
    if (uf.Find(e) != root) return false;
  }
  return true;
}

Status ShardRuntime::ValidatePlan() const {
  if (opts_.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (Elastic()) {
    // Elasticity is validated even for num_shards == 1 (a resize can grow
    // past one shard) and even under skip_validation for the structural
    // requirements: resharding a window-sliced plan would need slice
    // re-ownership, which the migration protocol does not implement.
    if (opts_.routing != ShardRouting::kHashPartition) {
      return Status::InvalidArgument(
          "elastic resharding requires hash routing; window slices are "
          "pinned to their owner shards");
    }
    if (opts_.reshard.min_shards < 1) {
      return Status::InvalidArgument("reshard.min_shards must be >= 1");
    }
    if (opts_.partition_attr < 0) {
      return Status::InvalidArgument(
          "elastic resharding requires partition_attr: migration ownership "
          "is decided by the partition key of each partial match");
    }
    if (!opts_.skip_validation) {
      if (nfa_->query().policy == SelectionPolicy::kStrictContiguity) {
        return Status::InvalidArgument(
            "strict contiguity depends on stream-adjacent events of every "
            "partition; it cannot be hash-sharded");
      }
      if (!IsPartitionCorrelated(*nfa_, opts_.partition_attr)) {
        return Status::InvalidArgument(
            "query is not equality-correlated on the partition attribute; "
            "resharding would split matches across owners");
      }
    }
  }
  if (opts_.num_shards == 1 || opts_.skip_validation) return Status::OK();
  const Query& q = nfa_->query();
  if (opts_.routing == ShardRouting::kHashPartition) {
    if (q.policy == SelectionPolicy::kStrictContiguity) {
      return Status::InvalidArgument(
          "strict contiguity depends on stream-adjacent events of every "
          "partition; it cannot be hash-sharded");
    }
    if (opts_.partition_attr < 0) {
      return Status::InvalidArgument("hash routing requires partition_attr");
    }
    if (!IsPartitionCorrelated(*nfa_, opts_.partition_attr)) {
      return Status::InvalidArgument(
          "query is not equality-correlated on the partition attribute; "
          "hash sharding would change the match set");
    }
  } else {
    if (q.policy != SelectionPolicy::kSkipTillAnyMatch) {
      return Status::InvalidArgument(
          "window-slice routing is only exact under skip-till-any-match");
    }
    if (q.count_window > 0) {
      return Status::InvalidArgument(
          "window-slice routing requires a time window (count windows are "
          "anchored to absolute stream positions)");
    }
    if (q.window <= 0) {
      return Status::InvalidArgument("window-slice routing requires a window");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<ShardRuntime>> ShardRuntime::Create(
    std::shared_ptr<const Nfa> nfa, ShardRuntimeOptions opts) {
  std::unique_ptr<ShardRuntime> rt(new ShardRuntime(std::move(nfa), opts));
  CEPSHED_RETURN_NOT_OK(rt->ValidatePlan());
  return rt;
}

Duration ShardRuntime::SliceStride() const {
  if (opts_.slice_stride > 0) return opts_.slice_stride;
  return std::max<Duration>(1, nfa_->window());
}

int ShardRuntime::ShardOfKey(const Value& key, int num_shards) {
  if (num_shards == 1) return 0;
  // Null partition keys fail every equality predicate, so their events
  // can only ever matter as state-0 creations; pin them to shard 0.
  if (key.is_null()) return 0;
  return static_cast<int>(Mix64(static_cast<uint64_t>(key.Hash())) %
                          static_cast<uint64_t>(num_shards));
}

int ShardRuntime::HashShardOf(const Event& event) const {
  return ShardOfKey(event.attr(opts_.partition_attr), live_shards_);
}

const FaultInjector* ShardRuntime::RunFaults() const {
  return (opts_.faults != nullptr && !opts_.faults->empty()) ? opts_.faults : nullptr;
}

bool ShardRuntime::Elastic() const {
  return opts_.reshard.enabled ||
         (opts_.faults != nullptr && opts_.faults->has_resizes());
}

int ShardRuntime::EffectiveMaxShards() const {
  if (!Elastic()) return opts_.num_shards;
  return std::max(opts_.num_shards, opts_.reshard.max_shards);
}

int ShardRuntime::EffectiveMinShards() const {
  // A min above the initial count would make the starting state illegal;
  // the floor is what the run actually started with.
  return std::max(1, std::min(opts_.reshard.min_shards, opts_.num_shards));
}

int ShardRuntime::ClampLiveShards(int want) const {
  return std::min(EffectiveMaxShards(), std::max(EffectiveMinShards(), want));
}

void ShardRuntime::RouteEvent(const Event& event, std::vector<int>* out) const {
  out->clear();
  if (opts_.routing == ShardRouting::kHashPartition) {
    // Routes against the *live* shard count, which elastic resizes change
    // mid-run; with no resizes this is num_shards for the whole run.
    if (live_shards_ == 1) {
      out->push_back(0);
      return;
    }
    out->push_back(HashShardOf(event));
    return;
  }
  if (opts_.num_shards == 1) {
    out->push_back(0);
    return;
  }
  // Window-slice: slice j covers event times [j*L, j*L + L + W); the event
  // goes to the owner shard of every covering slice.
  const Duration l = SliceStride();
  const Duration w = nfa_->window();
  const Timestamp t = event.timestamp();
  const int64_t j_hi = FloorDiv(t, l);
  const int64_t j_lo = std::max<int64_t>(0, FloorDiv(t - l - w, l) + 1);
  for (int64_t j = j_lo; j <= j_hi; ++j) {
    const int shard = static_cast<int>(j % opts_.num_shards);
    if (std::find(out->begin(), out->end(), shard) == out->end()) {
      out->push_back(shard);
    }
    if (static_cast<int>(out->size()) == opts_.num_shards) break;
  }
}

/// All state one shard's worker touches. Engines, steps, shedders, and
/// guards are confined to the owning worker thread between queue handoff
/// points; the join at the end of Run publishes the results to the caller.
/// The router additionally writes events_rejected (a member the worker
/// never touches) and takes the shard over entirely once the worker thread
/// has been observed dead and joined.
struct ShardRuntime::ShardState {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Shedder> shedder;
  std::unique_ptr<OverloadGuard> guard;
  /// Observability slot of this shard (not owned; null = disabled).
  obs::ShardObs* obs = nullptr;
  /// Not owned; null when no faults target this run.
  const FaultInjector* faults = nullptr;
  /// The per-event step over engine, shedder, guard, obs and queue.
  ShardStep step;
  std::vector<Match> matches;
  ShardResult result;
  std::unique_ptr<RingQueue<EventPtr>> queue;
  /// In-flight consume batch: popped from the queue in one PopBatch and
  /// handed to Engine::BeginBatch, with batch_pos marking the next
  /// unconsumed entry. It survives worker death so a restarted worker (or
  /// the router, via FinishDeadShard / AbandonShard) resumes exactly where
  /// the dead worker stopped — the engine's active batch masks index into
  /// this vector by pointer identity, so it must stay put until every
  /// entry is consumed or accounted lost.
  std::vector<EventPtr> batch;
  size_t batch_pos = 0;
  /// Canonical-owner filter for window-slice routing (see Finish).
  bool slice_filter = false;
  int shard_id = 0;
  int num_shards = 1;
  Duration slice_stride = 0;
  /// Ordinal of the next event this shard consumes (fault anchor).
  uint64_t consumed = 0;
  /// Events the router has accepted for delivery to this shard: stage
  /// appends in Run (counted when the routing decision lands, before the
  /// batched queue flush), buffer appends in RunSequential. Router-owned;
  /// together with `handled` it forms the migration drain barrier and
  /// anchors scoped `resize` fault entries. A staged event that is later
  /// rejected because the shard was abandoned mid-flush stays counted —
  /// harmless, since abandoned shards are excluded from the barrier.
  uint64_t pushed = 0;
  /// Delivered events fully handled by the consumer (incremented at the
  /// END of Consume, release order, on both the normal and the death
  /// path). The router's acquire read of handled == pushed proves the
  /// queue is empty, the worker is parked in Pop, and every engine write
  /// is visible — the quiescence the migration protocol needs.
  std::atomic<uint64_t> handled{0};
  /// Guard ladder level published for the router's reshard controller
  /// (relaxed; an advisory pressure signal, not a synchronization edge).
  std::atomic<int> guard_level_pub{0};
  /// Restarts spent so far (router-owned; compared to the budget).
  int restarts = 0;
  /// RunSequential death mirroring: once the restart budget is spent the
  /// rest of every buffer drains as lost. Persists across the buffer
  /// drains that resize anchors split the run into.
  bool seq_draining = false;
  bool finished = false;
  /// Worker-thread exit protocol: the worker sets clean_exit (after a
  /// normal drain + Finish) and then worker_exited with release order; the
  /// router reads worker_exited with acquire before touching anything else.
  bool clean_exit = false;
  std::atomic<bool> worker_exited{false};
  std::thread worker;

  ShardState(std::unique_ptr<Engine> e, LatencyMonitor::Options latency)
      : engine(std::move(e)), step(engine.get(), latency) {}

  /// Books one delivered event lost unprocessed: consumed by a worker
  /// death or drained after abandonment.
  void CountLost() {
    ++result.events_routed;
    ++result.events_lost;
    if (obs != nullptr) {
      obs->events_routed.Add();
      obs->events_lost.Add();
    }
  }

  /// Handles one delivered event. Returns true when an injected death
  /// fault fires: the event is counted lost and the caller must terminate
  /// (or restart) the worker without further consumption.
  bool Consume(const EventPtr& event) {
    ActiveFaults injected;
    if (faults != nullptr) injected = faults->OnConsume(shard_id, consumed);
    ++consumed;
    if (injected.die) {
      CountLost();
      handled.fetch_add(1, std::memory_order_release);
      return true;
    }
    if (injected.stall_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(injected.stall_us));
    }
    ++result.events_routed;
    step.Step(event, &matches, injected.cost_multiplier, injected.clock_skew_us);
    if (guard != nullptr) {
      guard_level_pub.store(static_cast<int>(guard->level()), std::memory_order_relaxed);
    }
    handled.fetch_add(1, std::memory_order_release);
    return false;
  }

  /// Worker-thread body (also the entry point of a restarted worker).
  ///
  /// Consumes the queue in batches: each PopBatch run is announced to the
  /// engine with BeginBatch so batchable predicates evaluate from the
  /// precomputed column masks. The worker deliberately never calls
  /// EndBatch — after the last Consume of a drained queue it must not
  /// touch the engine again (the router's handled == pushed barrier takes
  /// the engine over for migration), and the next BeginBatch supersedes
  /// the previous window anyway. A restarted worker finds the remainder
  /// of the batch its predecessor died in and resumes it under a fresh
  /// BeginBatch before popping anything new.
  void WorkerMain() {
    for (;;) {
      if (batch_pos < batch.size()) {
        engine->BeginBatch(batch.data() + batch_pos, batch.size() - batch_pos);
        while (batch_pos < batch.size()) {
          const size_t i = batch_pos++;
          if (Consume(batch[i])) {
            // Simulated worker death: leave the queue open and Finish
            // unrun; the router detects the exit and restarts or abandons
            // the shard. The batch remainder stays for the successor.
            worker_exited.store(true, std::memory_order_release);
            return;
          }
        }
      }
      batch.clear();
      batch_pos = 0;
      batch.resize(kConsumeBatch);
      const size_t n = queue->PopBatch(batch.data(), kConsumeBatch);
      if (n == 0) break;
      batch.resize(n);
    }
    batch.clear();
    batch_pos = 0;
    Finish();
    clean_exit = true;
    worker_exited.store(true, std::memory_order_release);
  }

  void Finish() {
    if (finished) return;
    finished = true;
    result.events_dropped = step.events_dropped();
    result.events_processed = step.events_processed();
    result.bound_checked = step.bound_checked();
    result.bound_violations = step.bound_violations();
    result.avg_latency = step.monitor().OverallAverage();
    result.shed_pms = shedder != nullptr ? shedder->pms_shed() : 0;
    if (guard != nullptr) {
      const OverloadGuard::Stats& g = guard->stats();
      result.guard_input_drops = g.input_drops;
      result.guard_trims = g.trims;
      result.guard_evictions = g.emergency_evictions;
      result.guard_escalations = g.escalations;
      result.guard_final_level = static_cast<int>(g.level);
      result.guard_peak_level = static_cast<int>(g.peak_level);
      result.guard_peak_state_bytes = g.peak_state_bytes;
    }
    result.stats = engine->stats();
    if (slice_filter) FilterToOwnedSlices();
  }

  /// Window-slice routing: every match is kept only by its canonical
  /// owner — the shard owning the slice of the match's first event, whose
  /// coverage [j0*L, j0*L + L + W) provably contains the whole match and
  /// every witness able to veto it. A shard owns several *disjoint*
  /// coverage intervals (slices j, j+N, ...), so its engine can also form
  /// phantom copies bridging the gap between two of them; such a copy may
  /// miss the negation witnesses lying in the gap and must not be emitted.
  void FilterToOwnedSlices() {
    size_t kept = 0;
    for (size_t i = 0; i < matches.size(); ++i) {
      const Timestamp t0 = matches[i].events.front()->timestamp();
      const int64_t j0 = FloorDiv(t0, slice_stride);
      if (static_cast<int>(j0 % num_shards) == shard_id) {
        if (kept != i) matches[kept] = std::move(matches[i]);
        ++kept;
      } else {
        // A copy of a match owned (and correctly vetoed) elsewhere.
        --result.stats.matches_emitted;
      }
    }
    matches.resize(kept);
  }
};

void ShardRuntime::ReviveOrAbandon(ShardState* s) const {
  s->worker.join();
  if (s->clean_exit) return;  // normal drain raced the timeout; nothing to do
  if (s->restarts < opts_.max_worker_restarts) {
    ++s->restarts;
    ++s->result.worker_restarts;
    s->worker_exited.store(false, std::memory_order_relaxed);
    // The restarted worker resumes the same queue and engine: only the
    // death-poisoned event is lost, so recall degrades by exactly one
    // event per death.
    s->worker = std::thread(&ShardState::WorkerMain, s);
  } else {
    AbandonShard(s);
  }
}

void ShardRuntime::AbandonShard(ShardState* s) const {
  s->result.abandoned = true;
  s->queue->Close();
  // The remainder of the batch the dead worker popped but never consumed
  // drains first — those events already left the queue, so the queue loop
  // below would otherwise silently drop them from the accounting.
  for (size_t i = s->batch_pos; i < s->batch.size(); ++i) s->CountLost();
  s->batch.clear();
  s->batch_pos = 0;
  EventPtr event;
  while (s->queue->Pop(&event)) s->CountLost();
  s->Finish();
}

void ShardRuntime::FinishDeadShard(ShardState* s) const {
  bool draining;
  if (s->restarts < opts_.max_worker_restarts) {
    ++s->restarts;
    ++s->result.worker_restarts;
    draining = false;
  } else {
    s->result.abandoned = true;
    draining = true;
  }
  const auto deliver = [&](const EventPtr& event) {
    if (draining) {
      s->CountLost();
      return;
    }
    if (s->Consume(event)) {
      if (s->restarts < opts_.max_worker_restarts) {
        ++s->restarts;
        ++s->result.worker_restarts;
      } else {
        s->result.abandoned = true;
        draining = true;
      }
    }
  };
  // The dead worker's unconsumed batch remainder comes before the queue:
  // those events were popped first, and the engine's still-active batch
  // masks cover exactly these events, so Consume keeps the batched fast
  // path (further injected deaths are honored mid-remainder).
  while (s->batch_pos < s->batch.size()) {
    const size_t i = s->batch_pos++;
    deliver(s->batch[i]);
  }
  s->batch.clear();
  s->batch_pos = 0;
  EventPtr event;
  while (s->queue->Pop(&event)) deliver(event);
  s->Finish();
}

/// Scripted resize anchors for one run. Each fault-DSL `resize` entry
/// fires exactly once: an unscoped entry (shard == -1) immediately before
/// the router handles the first event with global sequence >= `at`, a
/// scoped entry (shard == S) immediately before the router's `at`-th
/// delivery to shard S while S is among the event's targets. Fire returns
/// one entry at a time; the router executes the resize, re-routes (the
/// flip changes ownership), and asks again — the loop terminates because
/// fired entries never re-fire.
struct ShardRuntime::ResizeScript {
  struct Entry {
    const FaultSpec* spec;
    bool fired = false;
  };
  std::vector<Entry> entries;

  explicit ResizeScript(const FaultInjector* faults) {
    if (faults == nullptr) return;
    for (const FaultSpec& f : faults->specs()) {
      if (f.kind == FaultKind::kResize) entries.push_back({&f});
    }
  }

  bool empty() const { return entries.empty(); }

  /// Delta of the first unfired entry anchored at or before this routing
  /// decision (0 = none). Marks the entry fired.
  int Fire(uint64_t seq, const std::vector<int>& targets,
           const std::vector<std::unique_ptr<ShardState>>& shards) {
    for (Entry& e : entries) {
      if (e.fired) continue;
      const FaultSpec& f = *e.spec;
      bool hit;
      if (f.shard < 0) {
        hit = seq >= f.at;
      } else {
        hit = false;
        for (int t : targets) {
          if (t == f.shard) {
            hit = shards[static_cast<size_t>(t)]->pushed >= f.at;
            break;
          }
        }
      }
      if (hit) {
        e.fired = true;
        return f.delta;
      }
    }
    return 0;
  }
};

void ShardRuntime::MigrateState(std::vector<std::unique_ptr<ShardState>>* shards,
                                int old_live, int new_live,
                                ShardRunResult* result) const {
  const int attr = opts_.partition_attr;
  // Donors are the previously live shards — including retiring ones, whose
  // entire state leaves because ShardOfKey under new_live never maps to an
  // id >= new_live. Growing shards start empty: a shard that retired
  // earlier donated everything on the way out. Extraction is grouped per
  // recipient so adoption happens in donor order 0..old_live-1 — a
  // deterministic function of the engines' states, independent of thread
  // scheduling.
  std::vector<std::vector<MigratedState>> transfer(shards->size());
  for (int d = 0; d < old_live; ++d) {
    ShardState& donor = *(*shards)[static_cast<size_t>(d)];
    for (int r = 0; r < new_live; ++r) {
      if (r == d) continue;
      MigratedState moved = donor.engine->ExtractPartialMatches(
          [attr, r, new_live](const PartialMatch& pm) {
            // Partition correlation guarantees every bound event of the
            // match (or witness) carries the same key, so any one event
            // determines the owner. A chainless match cannot exist live
            // in the store; keep it put defensively.
            const Event* e = pm.LastEvent();
            if (e == nullptr) return false;
            return ShardOfKey(e->attr(attr), new_live) == r;
          });
      if (moved.empty()) continue;
      const uint64_t n = moved.size();
      donor.result.pms_migrated_out += n;
      (*shards)[static_cast<size_t>(r)]->result.pms_migrated_in += n;
      result->migrated_pms += n;
      result->migrated_bytes += moved.approx_bytes;
      if (donor.obs != nullptr) {
        donor.obs->migrated_pms.Add(n);
        donor.obs->migrated_bytes.Add(moved.approx_bytes);
      }
      transfer[static_cast<size_t>(r)].push_back(std::move(moved));
    }
  }
  for (size_t r = 0; r < transfer.size(); ++r) {
    for (MigratedState& moved : transfer[r]) {
      (*shards)[r]->engine->AdoptPartialMatches(std::move(moved));
    }
  }
}

void ShardRuntime::RecordResize(std::vector<std::unique_ptr<ShardState>>* shards,
                                int old_live, int new_live, uint64_t seq,
                                Timestamp now, double pause_us,
                                ShardRunResult* result) const {
  ++result->resizes;
  obs::ShardObs* obs0 = (*shards)[0]->obs;
  if (obs0 != nullptr) {
    // Run-level reshard series live on shard 0's slot; every worker is
    // parked at this barrier, so the router is the only writer.
    obs0->migrations_total.Add();
    obs0->migration_us.Record(pause_us);
    obs0->live_shards.Set(new_live);
    int64_t legacy = 0;
    for (size_t i = static_cast<size_t>(new_live); i < shards->size(); ++i) {
      legacy +=
          static_cast<int64_t>((*shards)[i]->engine->store().arena().LiveBytes());
    }
    obs0->arena_legacy_bytes.Set(legacy);
    obs0->audit.Record(obs::AuditKind::kResize, 0, now,
                       old_live | (new_live << 8), 0.0, seq);
  }
  if (opts_.resize_tap) opts_.resize_tap(seq, old_live, new_live);
}

void ShardRuntime::ExecuteResize(std::vector<std::unique_ptr<ShardState>>* shards,
                                 int new_live, uint64_t seq, Timestamp now,
                                 ShardRunResult* result) {
  const int old_live = live_shards_;
  if (new_live == old_live) return;
  const auto t0 = std::chrono::steady_clock::now();
  // Seal: stop routing (the caller already holds the router thread) and
  // drain every live shard to quiescence. A worker that dies mid-drain is
  // restarted (it resumes the same queue; only the poisoned event is
  // lost) or abandoned (its backlog drains as lost but its engine remains
  // extractable) — either way the barrier resolves and the migration's
  // loss accounting stays exact.
  for (int i = 0; i < old_live; ++i) {
    ShardState& s = *(*shards)[static_cast<size_t>(i)];
    for (;;) {
      if (s.result.abandoned) break;
      if (s.handled.load(std::memory_order_acquire) == s.pushed) break;
      if (s.worker_exited.load(std::memory_order_acquire)) {
        ReviveOrAbandon(&s);
        continue;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  MigrateState(shards, old_live, new_live, result);
  live_shards_ = new_live;
  const double pause_us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  RecordResize(shards, old_live, new_live, seq, now, pause_us, result);
}

std::vector<std::unique_ptr<ShardRuntime::ShardState>> ShardRuntime::MakeShards(
    const ShedderFactory& make_shedder) {
  const int total_shards = EffectiveMaxShards();
  live_shards_ = opts_.num_shards;
  if (opts_.metrics != nullptr) opts_.metrics->EnsureShards(total_shards);
  std::vector<std::unique_ptr<ShardState>> shards;
  shards.reserve(static_cast<size_t>(total_shards));
  for (int i = 0; i < total_shards; ++i) {
    auto s = std::make_unique<ShardState>(std::make_unique<Engine>(nfa_, opts_.engine),
                                          opts_.latency);
    s->slice_filter = opts_.routing == ShardRouting::kWindowSlice;
    s->shard_id = i;
    s->num_shards = opts_.num_shards;
    s->slice_stride = SliceStride();
    s->faults = RunFaults();
    if (opts_.metrics != nullptr) {
      s->obs = opts_.metrics->shard(i);
      s->step.set_obs(s->obs, i);
    }
    if (make_shedder) s->shedder = make_shedder(i);
    if (s->shedder != nullptr) {
      s->shedder->Bind(s->engine.get());
      if (s->obs != nullptr) s->shedder->set_obs(s->obs, i);
      s->step.set_shedder(s->shedder.get());
    }
    if (opts_.guard.enabled) {
      s->guard = std::make_unique<OverloadGuard>(opts_.guard);
      s->guard->Attach(s->engine.get());
      if (s->obs != nullptr) s->guard->set_obs(s->obs, i);
      s->step.set_guard(s->guard.get());
    }
    shards.push_back(std::move(s));
  }
  if (Elastic() && opts_.metrics != nullptr) {
    shards[0]->obs->live_shards.Set(live_shards_);
  }
  return shards;
}

Status ShardRuntime::Merge(std::vector<std::unique_ptr<ShardState>>* shards,
                           ShardRunResult* result) const {
  result->final_live_shards = live_shards_;
  if (Elastic() && opts_.metrics != nullptr) {
    // Post-run legacy-arena reading: chains migrated out of retired shards
    // drain back into their home arenas as recipients expire them, so this
    // is the value the soak harness bounds.
    int64_t legacy = 0;
    for (size_t i = static_cast<size_t>(live_shards_); i < shards->size(); ++i) {
      legacy += static_cast<int64_t>((*shards)[i]->engine->store().arena().LiveBytes());
    }
    (*shards)[0]->obs->arena_legacy_bytes.Set(legacy);
  }
  size_t total_matches = 0;
  for (std::unique_ptr<ShardState>& sp : *shards) {
    ShardState& s = *sp;
    result->shards.push_back(s.result);
    SumStats(s.result.stats, &result->stats);
    result->dropped_events += s.result.events_dropped;
    result->shed_pms += s.result.shed_pms;
    result->lost_events += s.result.events_lost + s.result.events_rejected;
    result->worker_restarts += s.result.worker_restarts;
    if (s.result.abandoned) ++result->shards_abandoned;
    result->guard_input_drops += s.result.guard_input_drops;
    result->guard_trims += s.result.guard_trims;
    result->guard_evictions += s.result.guard_evictions;
    total_matches += s.matches.size();
  }

  // Deterministic total order independent of shard interleaving:
  // (detection timestamp, event-sequence identity). Matches are already
  // unique — hash routing assigns each one partition, and slice routing
  // keeps each match only in its canonical owner shard (FilterToOwnedSlices).
  struct Keyed {
    Timestamp detected_at;
    std::string key;
    Match* match;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(total_matches);
  for (std::unique_ptr<ShardState>& s : *shards) {
    for (Match& m : s->matches) keyed.push_back({m.detected_at, m.Key(), &m});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.detected_at != b.detected_at) return a.detected_at < b.detected_at;
    return a.key < b.key;
  });
  result->matches.reserve(keyed.size());
  for (const Keyed& k : keyed) result->matches.push_back(std::move(*k.match));
  if (result->shards_abandoned >= live_shards_ && opts_.num_shards > 0 &&
      result->total_events > 0) {
    return Status::Unavailable(
        "every shard worker died and exhausted its restart budget");
  }
  return Status::OK();
}

Result<ShardRunResult> ShardRuntime::Run(const EventStream& stream,
                                         const ShedderFactory& make_shedder) {
  CEPSHED_RETURN_NOT_OK(ValidatePlan());
  const FaultInjector* faults = RunFaults();
  // Elastic runs provision workers, queues, and metrics slots for the
  // maximum shard count up front; shards beyond the live count just park
  // in Pop on their empty queues until a grow routes to them (and after a
  // retire, until re-grown). Thread spawn never happens mid-stream.
  std::vector<std::unique_ptr<ShardState>> shards = MakeShards(make_shedder);
  for (std::unique_ptr<ShardState>& s : shards) {
    s->queue = std::make_unique<RingQueue<EventPtr>>(opts_.queue_capacity);
    s->step.set_queue(s->queue.get());
  }
  ShardRunResult result;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::unique_ptr<ShardState>& s : shards) {
    s->worker = std::thread(&ShardState::WorkerMain, s.get());
  }

  ResizeScript script(faults);
  ReshardController controller(opts_.reshard);
  uint64_t since_check = 0;
  std::vector<int> targets;
  // Per-shard staging buffers: routing decisions append here and the
  // buffer is flushed to the shard queue with one TryPushBatch claim once
  // it reaches kRouterBatch or the shard's queue reads empty (and at every
  // resize barrier and at stream end). Batching thus amortizes the queue's
  // CAS/fence traffic only while a backlog exists, when it costs no
  // latency; a worker waiting on an empty queue gets each event at once,
  // at the price of one push per event while it keeps pace with the router.
  std::vector<std::vector<EventPtr>> stage(shards.size());
  const auto flush_shard = [&](int t) {
    ShardState& s = *shards[static_cast<size_t>(t)];
    std::vector<EventPtr>& buf = stage[static_cast<size_t>(t)];
    size_t i = 0;
    while (i < buf.size()) {
      if (s.result.abandoned) {
        s.result.events_rejected += static_cast<uint64_t>(buf.size() - i);
        break;
      }
      const size_t k = s.queue->TryPushBatch(buf.data() + i, buf.size() - i);
      result.routed_events += k;
      i += k;
      if (i == buf.size()) break;
      // Queue full (or closed): fall back to the bounded-wait push for one
      // element so the dead-consumer recovery below still runs. Queue-wait
      // is timed only once a push has actually blocked past the first
      // timeout: the uncontended fast path stays clock-free.
      bool waited = false;
      std::chrono::steady_clock::time_point wait_start;
      bool settled = false;
      while (!settled) {
        const QueuePushResult r =
            s.queue->PushForRef(buf[i], opts_.push_timeout_us);
        if (r != QueuePushResult::kTimedOut && waited && s.obs != nullptr) {
          s.obs->queue_wait_us.Record(std::chrono::duration<double, std::micro>(
                                          std::chrono::steady_clock::now() - wait_start)
                                          .count());
        }
        if (r == QueuePushResult::kOk) {
          ++result.routed_events;
          ++i;
          settled = true;
        } else if (r == QueuePushResult::kClosed) {
          ++s.result.events_rejected;
          ++i;
          settled = true;
        } else {
          if (!waited) {
            waited = true;
            wait_start = std::chrono::steady_clock::now();
            if (s.obs != nullptr) s.obs->queue_push_timeouts.Add();
          }
          // Timed out on a full queue: either the consumer is merely slow
          // (keep waiting) or its thread is gone (restart or abandon). This
          // bounded-wait loop is what turns a dead shard into degraded
          // recall instead of a deadlocked router.
          if (s.worker_exited.load(std::memory_order_acquire)) {
            ReviveOrAbandon(&s);
            if (s.result.abandoned) settled = true;  // loop top rejects the rest
          }
        }
      }
    }
    buf.clear();
  };
  const auto flush_all = [&] {
    for (size_t t = 0; t < stage.size(); ++t) {
      if (!stage[t].empty()) flush_shard(static_cast<int>(t));
    }
  };
  for (const EventPtr& event : stream) {
    ++result.total_events;
    // Dynamic elasticity: sample the pressure signals every check_every
    // events and let the hysteresis ladder decide. Load-dependent, hence
    // not replay-deterministic by itself — the resize tap records every
    // executed resize so replay can re-apply it as a script.
    if (opts_.reshard.enabled && ++since_check >= opts_.reshard.check_every) {
      since_check = 0;
      ReshardController::Signals sig;
      for (int i = 0; i < live_shards_; ++i) {
        const ShardState& s = *shards[static_cast<size_t>(i)];
        if (s.result.abandoned) continue;
        if (s.queue->capacity() > 0) {
          sig.max_queue_fill = std::max(
              sig.max_queue_fill, static_cast<double>(s.queue->SizeApprox()) /
                                      static_cast<double>(s.queue->capacity()));
        }
        sig.max_guard_level =
            std::max(sig.max_guard_level,
                     s.guard_level_pub.load(std::memory_order_relaxed));
      }
      const int delta = controller.Decide(event->seq(), sig, live_shards_,
                                          EffectiveMaxShards());
      if (delta != 0) {
        // Staged events must reach the queues before the drain barrier:
        // the barrier proves quiescence via handled == pushed, and pushed
        // already counts them.
        flush_all();
        ExecuteResize(&shards, ClampLiveShards(live_shards_ + delta),
                      event->seq(), event->timestamp(), &result);
      }
    }
    // Scripted anchors: a fired resize changes the routing function, so
    // the triggering event re-routes and the anchors re-check until quiet.
    for (;;) {
      RouteEvent(*event, &targets);
      const int delta = script.Fire(event->seq(), targets, shards);
      if (delta == 0) break;
      flush_all();
      ExecuteResize(&shards, ClampLiveShards(live_shards_ + delta),
                    event->seq(), event->timestamp(), &result);
    }
    if (opts_.ingest_tap) opts_.ingest_tap(event, targets);
    for (int t : targets) {
      ShardState& s = *shards[static_cast<size_t>(t)];
      if (s.result.abandoned) {
        ++s.result.events_rejected;
        continue;
      }
      if (faults != nullptr && faults->SaturatePush(t, event->seq())) {
        ++s.result.events_rejected;
        continue;
      }
      // Accepted for delivery: `pushed` counts at stage time so scoped
      // resize anchors (pushed >= at) keep firing immediately before the
      // at-th delivery even though the physical push is deferred.
      std::vector<EventPtr>& buf = stage[static_cast<size_t>(t)];
      buf.push_back(event);
      ++s.pushed;
      if (buf.size() >= kRouterBatch || s.queue->SizeApprox() == 0) flush_shard(t);
    }
  }
  flush_all();
  for (std::unique_ptr<ShardState>& s : shards) s->queue->Close();
  for (std::unique_ptr<ShardState>& s : shards) {
    if (s->worker.joinable()) s->worker.join();
  }
  // Workers that died close enough to the end of the stream never stalled
  // a push, so the router meets them here for the first time: resume their
  // backlog inline (their restart) or drain it as lost.
  for (std::unique_ptr<ShardState>& s : shards) {
    if (s->clean_exit || s->result.abandoned) continue;
    FinishDeadShard(s.get());
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  CEPSHED_RETURN_NOT_OK(Merge(&shards, &result));
  return result;
}

Result<ShardRunResult> ShardRuntime::RunSequential(
    const EventStream& stream, const ShedderFactory& make_shedder) {
  CEPSHED_RETURN_NOT_OK(ValidatePlan());
  const FaultInjector* faults = RunFaults();
  std::vector<std::unique_ptr<ShardState>> shards = MakeShards(make_shedder);
  ShardRunResult result;
  const auto t0 = std::chrono::steady_clock::now();
  // Buffer each shard's substream in routing order — exactly the sequence
  // the parallel worker would pop from its queue. Saturation faults refuse
  // delivery here just as they refuse the parallel push. Resize anchors
  // segment the run: each anchor drains every buffer (the sequential
  // mirror of the parallel drain barrier — same engine states at the same
  // logical point), migrates, flips, and buffering resumes under the new
  // routing. Death faults mirror the parallel path with persistent
  // per-shard restart budgets across segments; the one deliberate
  // asymmetry stays as before: after abandonment, the parallel router
  // rejects events while the sequential path routes them and loses them.
  std::vector<std::vector<EventPtr>> buffers(shards.size());
  // Chunked like the parallel worker's PopBatch loop so the engine takes
  // the same batched predicate fast path; single-threaded, so the closing
  // EndBatch is safe here (the parallel worker must leave it to the next
  // BeginBatch).
  const auto drain_buffer = [&](ShardState& s, std::vector<EventPtr>* buffer) {
    for (size_t base = 0; base < buffer->size(); base += kConsumeBatch) {
      const size_t n = std::min(kConsumeBatch, buffer->size() - base);
      s.engine->BeginBatch(buffer->data() + base, n);
      for (size_t i = base; i < base + n; ++i) {
        const EventPtr& event = (*buffer)[i];
        if (s.seq_draining) {
          s.CountLost();
          continue;
        }
        if (s.Consume(event)) {
          if (s.restarts < opts_.max_worker_restarts) {
            ++s.restarts;
            ++s.result.worker_restarts;
          } else {
            s.result.abandoned = true;
            s.seq_draining = true;
          }
        }
      }
    }
    s.engine->EndBatch();
    buffer->clear();
  };
  ResizeScript script(faults);
  std::vector<int> targets;
  for (const EventPtr& event : stream) {
    ++result.total_events;
    for (;;) {
      RouteEvent(*event, &targets);
      const int delta = script.Fire(event->seq(), targets, shards);
      if (delta == 0) break;
      const int new_live = ClampLiveShards(live_shards_ + delta);
      if (new_live == live_shards_) continue;
      const auto m0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < shards.size(); ++i) {
        drain_buffer(*shards[i], &buffers[i]);
      }
      const int old_live = live_shards_;
      MigrateState(&shards, old_live, new_live, &result);
      live_shards_ = new_live;
      const double pause_us = std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - m0)
                                  .count();
      RecordResize(&shards, old_live, new_live, event->seq(),
                   event->timestamp(), pause_us, &result);
    }
    if (opts_.ingest_tap) opts_.ingest_tap(event, targets);
    for (int t : targets) {
      ShardState& s = *shards[static_cast<size_t>(t)];
      if (faults != nullptr && faults->SaturatePush(t, event->seq())) {
        ++s.result.events_rejected;
        continue;
      }
      buffers[static_cast<size_t>(t)].push_back(event);
      ++s.pushed;
      ++result.routed_events;
    }
  }
  for (size_t i = 0; i < shards.size(); ++i) {
    drain_buffer(*shards[i], &buffers[i]);
    shards[i]->Finish();
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  CEPSHED_RETURN_NOT_OK(Merge(&shards, &result));
  return result;
}

}  // namespace cepshed
