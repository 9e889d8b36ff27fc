// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Partial matches and their store — the *state* of CEP query evaluation
// (P(k) in the paper). State-based load shedding operates directly on this
// store; the cost model annotates each partial match with its class.
//
// Representation: bindings are stored as an immutable, arena-allocated
// singly-linked chain (newest event first). Extending a match — the hot
// path of Kleene and long-pattern evaluation — allocates exactly one node
// and shares the entire parent prefix, so a clone is O(1) instead of the
// O(L) vector copy a flat layout needs. Chains are reference-counted per
// node: a node is freed only when no child chain and no PartialMatch tail
// points at it, so evicting one match never invalidates the prefix of a
// sibling.

#ifndef CEPSHED_CEP_PARTIAL_MATCH_H_
#define CEPSHED_CEP_PARTIAL_MATCH_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/cep/event.h"
#include "src/common/time.h"

namespace cepshed {

class BindingArena;

/// \brief One link of a shared-prefix binding chain.
///
/// `depth` is the 1-based length of the chain ending at this node, i.e.
/// the node holds the event at flat index `depth - 1`. `refs` counts the
/// owners: child nodes whose `prev` is this node, plus PartialMatch tails.
struct BindingNode {
  EventPtr event;
  /// Previous binding in the chain; doubles as the free-list link while
  /// the node is unallocated.
  BindingNode* prev = nullptr;
  /// First node of the pattern slot this binding belongs to (self when the
  /// binding opened the slot). Slot boundaries are thereby O(1) reachable
  /// from any node, so the engine can assemble an evaluation context by
  /// jumping segment to segment — O(#slots) — instead of flattening the
  /// whole chain, which is O(length) and was the hidden per-candidate cost
  /// that a copy-on-write clone path otherwise re-pays at evaluation time.
  const BindingNode* slot_start = nullptr;
  /// The arena whose blocks hold this node. After a shard migration a
  /// chain can span arenas (the adopted prefix lives in the donor's arena,
  /// extensions in the adopter's), so release must recycle each node into
  /// its home arena or the donor's live-node accounting never drains.
  BindingArena* home = nullptr;
  uint32_t refs = 0;
  uint32_t depth = 0;
};

/// \brief Block allocator + free list for BindingNode chains.
///
/// Nodes are handed out from fixed-size blocks and recycled through a free
/// list; blocks are only released when the arena is destroyed, so freed
/// nodes are immediately reusable capacity. Allocation (and therefore
/// chain extension and ref acquisition) is confined to the arena's home
/// shard thread, matching the engine's thread-confinement contract.
/// *Release* is not: after an elastic reshard, partial matches adopted by
/// another shard keep referencing chain nodes in this arena and recycle
/// them from the adopter's thread. The free list is therefore an atomic
/// Treiber stack — many concurrent pushers, but only the home thread ever
/// pops, which makes the CAS pop ABA-safe — and the live-node counter is
/// atomic. Per-node `refs` stay plain: hash partitioning keeps the chain
/// sets of matches owned by different shards disjoint (all events of a
/// match share the partition key), so no two threads ever touch the same
/// node's count.
class BindingArena {
 public:
  BindingArena() = default;
  BindingArena(const BindingArena&) = delete;
  BindingArena& operator=(const BindingArena&) = delete;

  /// Allocates a node binding `event` after `prev` (nullptr = chain head)
  /// and acquires a reference on `prev` on the new node's behalf. The
  /// returned node starts with one reference, owned by the caller.
  /// `new_slot` marks the binding as opening a fresh pattern slot (chain
  /// heads always do); otherwise it continues `prev`'s slot. Home-thread
  /// only.
  BindingNode* Extend(BindingNode* prev, const EventPtr& event,
                      bool new_slot = false) {
    BindingNode* node = Allocate();
    node->event = event;
    node->prev = prev;
    node->slot_start = (new_slot || prev == nullptr) ? node : prev->slot_start;
    node->home = this;
    node->refs = 1;
    node->depth = prev != nullptr ? prev->depth + 1 : 1;
    if (prev != nullptr) ++prev->refs;
    live_nodes_.fetch_add(1, std::memory_order_relaxed);
    return node;
  }

  /// Releases one reference on `node`, cascading along the prefix: every
  /// node whose reference count reaches zero is recycled *into its home
  /// arena* and its `prev` released in turn. Nodes still referenced by
  /// sibling chains survive. Static because a migrated chain may span
  /// arenas — the entry point does not determine where nodes return.
  static void Unref(BindingNode* node) {
    while (node != nullptr) {
      assert(node->refs > 0);
      if (--node->refs > 0) return;
      BindingNode* prev = node->prev;
      node->event.reset();  // drop the event share now, not at reuse
      node->home->Recycle(node);
      node = prev;
    }
  }

  /// Number of nodes currently referenced by some chain.
  size_t live_nodes() const { return live_nodes_.load(std::memory_order_relaxed); }
  /// Bytes attributed to live nodes. Each shared node is counted exactly
  /// once no matter how many matches reference its prefix, and exactly one
  /// arena — its home — reports it, however the chains were migrated.
  size_t LiveBytes() const { return live_nodes() * sizeof(BindingNode); }
  /// Bytes the arena holds from the allocator (blocks are retained for
  /// reuse; this never shrinks). Home-thread only.
  size_t CapacityBytes() const {
    return blocks_.size() * kBlockNodes * sizeof(BindingNode);
  }

 private:
  static constexpr size_t kBlockNodes = 512;

  /// Pushes a freed node onto the atomic free list (any thread).
  void Recycle(BindingNode* node) {
    BindingNode* head = free_list_.load(std::memory_order_relaxed);
    do {
      node->prev = head;
    } while (!free_list_.compare_exchange_weak(head, node,
                                               std::memory_order_release,
                                               std::memory_order_relaxed));
    live_nodes_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Home-thread only. The single-popper discipline makes the naive CAS
  /// pop safe: a node on the stack can only be removed here, so its link
  /// cannot be altered between the head load and the exchange.
  BindingNode* Allocate() {
    BindingNode* head = free_list_.load(std::memory_order_acquire);
    while (head != nullptr &&
           !free_list_.compare_exchange_weak(head, head->prev,
                                             std::memory_order_acquire,
                                             std::memory_order_acquire)) {
    }
    if (head != nullptr) return head;
    if (next_in_block_ == kBlockNodes) {
      blocks_.emplace_back(new BindingNode[kBlockNodes]);
      next_in_block_ = 0;
    }
    return &blocks_.back()[next_in_block_++];
  }

  std::vector<std::unique_ptr<BindingNode[]>> blocks_;
  std::atomic<BindingNode*> free_list_{nullptr};
  size_t next_in_block_ = kBlockNodes;
  std::atomic<size_t> live_nodes_{0};
};

/// \brief One partial match: a prefix binding of the pattern's positive
/// components, or a negation witness.
///
/// Partial matches are immutable once stored: extending a match clones it
/// (skip-till-any-match keeps the original); the clone shares the parent's
/// whole binding chain and adds one node. `alive` is a tombstone used by
/// window eviction and state-based shedding; dead matches are reclaimed by
/// the store's periodic compaction. Killing a match releases its chain
/// immediately (the memory signal must drop when the shedder acts) but
/// keeps `Length()` and `slot_end` readable for audit trails.
struct PartialMatch {
  /// Unique id (monotonic per engine), used for lineage tracking.
  uint64_t id = 0;
  /// Id of the partial match this one was cloned from (0 = stream-created).
  uint64_t parent_id = 0;
  /// Index of the positive component currently being filled. Equals the
  /// NFA state of the match.
  int state = 0;
  /// Prefix end offsets (into the flattened binding order) per positive
  /// slot filled so far. slot_end.size() == state for completed slots
  /// plus, for Kleene, the in-progress slot is represented by bindings
  /// beyond slot_end.back().
  std::vector<uint32_t> slot_end;
  /// Timestamp of the first bound event (window anchor).
  Timestamp start_ts = 0;
  /// Timestamp of the latest bound event.
  Timestamp last_ts = 0;
  /// Cost model class within the match's state (-1 = unclassified).
  int32_t class_label = -1;
  /// Tombstone: false once evicted or shed.
  bool alive = true;
  /// True for negation witnesses (single-event vetoes).
  bool is_witness = false;
  /// Pattern element index of the negated component (witnesses only).
  int negated_elem = -1;
  /// Sequence number of the first bound event (count-window anchor).
  uint64_t start_seq = 0;

  /// \name Expiry-wheel linkage (owned by the store's ExpiryWheel).
  ///
  /// A match's expiry deadline is fixed at creation (start anchor +
  /// window), so the store threads every live match onto a timing wheel
  /// through these intrusive links and finds the expired ones without
  /// scanning the live set. The linkage is store-internal transient state:
  /// it is never transferred by move (only store-owned matches are linked,
  /// and those live behind unique_ptr indirection and never move as
  /// objects).
  ///@{
  static constexpr int8_t kWheelNotQueued = -1;
  static constexpr int8_t kWheelOverdue = -2;
  /// Expiry deadline as a wheel key (monotone in deadline order).
  uint64_t wheel_deadline = 0;
  PartialMatch* wheel_next = nullptr;
  PartialMatch* wheel_prev = nullptr;
  /// Slot index within wheel_level (meaningless for sentinel levels).
  uint16_t wheel_slot = 0;
  /// Wheel level holding this match, or kWheelNotQueued / kWheelOverdue.
  int8_t wheel_level = kWheelNotQueued;
  ///@}

  PartialMatch() = default;
  ~PartialMatch() { ReleaseChain(); }

  // Chains are uniquely owned through the tail reference, so matches move
  // but never copy.
  PartialMatch(const PartialMatch&) = delete;
  PartialMatch& operator=(const PartialMatch&) = delete;
  PartialMatch(PartialMatch&& o) noexcept { *this = std::move(o); }
  PartialMatch& operator=(PartialMatch&& o) noexcept {
    if (this == &o) return *this;
    ReleaseChain();
    id = o.id;
    parent_id = o.parent_id;
    state = o.state;
    slot_end = std::move(o.slot_end);
    start_ts = o.start_ts;
    last_ts = o.last_ts;
    class_label = o.class_label;
    alive = o.alive;
    is_witness = o.is_witness;
    negated_elem = o.negated_elem;
    start_seq = o.start_seq;
    tail_ = o.tail_;
    length_ = o.length_;
    arena_ = o.arena_;
    o.tail_ = nullptr;
    o.length_ = 0;
    o.arena_ = nullptr;
    return *this;
  }

  /// Newest node of the binding chain (nullptr when empty or released).
  const BindingNode* tail() const { return tail_; }

  /// Total number of bound events. Stays valid after ReleaseChain so dead
  /// matches remain auditable.
  uint32_t Length() const { return length_; }

  /// Events bound to the in-progress (Kleene) component.
  uint32_t OpenCount() const {
    const uint32_t closed = slot_end.empty() ? 0 : slot_end.back();
    return length_ - closed;
  }

  /// The latest bound event (nullptr for empty/released chains).
  const Event* LastEvent() const {
    return tail_ != nullptr ? tail_->event.get() : nullptr;
  }

  /// The event at flat index `index` — O(L - index) chain walk; meant for
  /// diagnostics and tests, not the evaluation hot path (the engine keeps
  /// a flattened view for that).
  const Event* EventAt(uint32_t index) const {
    const BindingNode* node = tail_;
    while (node != nullptr && node->depth > index + 1) node = node->prev;
    return node != nullptr ? node->event.get() : nullptr;
  }

  /// Appends `event` to this match's chain, sharing `parent`'s chain as
  /// the prefix (parent may be nullptr for stream-created matches). Also
  /// copies the parent's slot_end. O(1) in the parent length. `new_slot`
  /// marks the event as opening a fresh pattern slot rather than extending
  /// the parent's in-progress one.
  void ExtendFrom(BindingArena* arena, const PartialMatch* parent,
                  const EventPtr& event, bool new_slot = false) {
    assert(tail_ == nullptr);
    arena_ = arena;
    BindingNode* base =
        parent != nullptr ? parent->tail_ : nullptr;
    tail_ = arena->Extend(base, event, new_slot);
    length_ = (parent != nullptr ? parent->length_ : 0) + 1;
    if (parent != nullptr) slot_end = parent->slot_end;
  }

  /// Appends one more event to this match's own chain (builders/tests).
  void Append(BindingArena* arena, const EventPtr& event,
              bool new_slot = false) {
    arena_ = arena;
    BindingNode* node = arena->Extend(tail_, event, new_slot);
    if (tail_ != nullptr) BindingArena::Unref(tail_);  // ownership moved to node
    tail_ = node;
    ++length_;
  }

  /// Marks the current slot complete at the current length.
  void CloseSlot() { slot_end.push_back(length_); }

  /// Writes the bound events in stream order into *out (resized to
  /// Length()). The raw-pointer overload is the engine's flatten path; the
  /// EventPtr overload is used when the result must own the events (match
  /// emission).
  void FlattenTo(std::vector<const Event*>* out) const {
    out->resize(length_);
    for (const BindingNode* n = tail_; n != nullptr; n = n->prev) {
      (*out)[n->depth - 1] = n->event.get();
    }
  }
  void FlattenTo(std::vector<EventPtr>* out) const {
    out->resize(length_);
    for (const BindingNode* n = tail_; n != nullptr; n = n->prev) {
      (*out)[n->depth - 1] = n->event;
    }
  }

  /// Releases this match's reference on its chain; shared prefix nodes
  /// survive as long as any sibling still references them. Length() and
  /// slot_end stay readable. Each node returns to its home arena, so this
  /// is correct for chains spanning arenas after a migration.
  void ReleaseChain() {
    if (tail_ != nullptr) BindingArena::Unref(tail_);
    tail_ = nullptr;
  }

  /// True if the match has aged out of the window at time `now`. The
  /// paper's WITHIN is inclusive: a completion exactly at the boundary
  /// still matches, so expiry is strict (`>`); ExpiredByCount mirrors
  /// this for count-based windows.
  bool Expired(Timestamp now, Duration window) const {
    return now - start_ts > window;
  }
  /// True if the match has aged out of a count-based window at stream
  /// position `seq`.
  bool ExpiredByCount(uint64_t seq, uint64_t count_window) const {
    return seq - start_seq > count_window;
  }

 private:
  BindingNode* tail_ = nullptr;
  uint32_t length_ = 0;
  BindingArena* arena_ = nullptr;
};

/// \brief Hierarchical timing wheel over partial-match expiry deadlines
/// (DESIGN.md §3.9).
///
/// Eight levels of 256 slots each cover the full 64-bit key space; an
/// entry sits at the coarsest level where its deadline still disagrees
/// with the wheel's current time, and cascades toward level 0 as the wheel
/// advances. Advancing to threshold T detaches only the slots the time
/// hands actually crossed, so a reap costs O(expired + cascaded) plus a
/// bounded slot walk — never O(live). Entries are intrusively linked
/// through PartialMatch::wheel_* (O(1) unlink when shedding or migration
/// kills a match out from under the wheel), per-slot lists are FIFO so
/// reap order is deterministic, and every detached entry's deadline is
/// checked exactly — slot residency is a search accelerator, never a
/// correctness authority (multi-revolution jumps alias slots).
///
/// Out-of-order timestamps park entries whose deadline is already behind
/// the wheel on an overdue list that every reap rechecks, so they die at
/// the first sweep whose `now` passes the deadline, as
/// PartialMatch::Expired defines. The wheel's clock never moves backwards.
class ExpiryWheel {
 public:
  static constexpr int kLevels = 8;
  static constexpr int kSlotBits = 8;
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr int kWords = kSlots / 64;

  /// Links `pm` under its deadline key. The match must not be queued.
  void Enqueue(PartialMatch* pm, uint64_t deadline);

  /// Detaches `pm` if queued (no-op otherwise). O(1).
  void Unlink(PartialMatch* pm);

  /// Advances the wheel to `threshold` and appends every queued match
  /// with deadline strictly below it to *out (detached, in deterministic
  /// level/slot/FIFO order). A threshold at or behind the current time
  /// only rechecks the overdue list. Returns the number reaped.
  size_t Reap(uint64_t threshold, std::vector<PartialMatch*>* out);

  /// Resets the wheel structure (links are NOT cleared on the matches —
  /// callers reset or destroy them wholesale, as PartialMatchStore::Clear
  /// does). The cascade counter survives: it is exported as a monotone
  /// observability counter.
  void Clear();

  /// Queued matches (live matches when driven by PartialMatchStore).
  size_t entries() const { return entries_; }
  /// Total re-placements of surviving entries during advances (monotone).
  uint64_t cascades() const { return cascades_; }
  /// Current wheel time (the largest reap threshold seen).
  uint64_t now() const { return now_; }

 private:
  struct Slot {
    PartialMatch* head = nullptr;
    PartialMatch* tail = nullptr;
  };

  void Place(PartialMatch* pm);
  static void PushBack(Slot* slot, PartialMatch* pm);

  Slot slots_[kLevels][kSlots];
  uint64_t occupied_[kLevels][kWords] = {};
  /// Entries enqueued with a deadline already behind now_ (out-of-order
  /// event time); rechecked exactly on every reap.
  Slot overdue_;
  uint64_t now_ = 0;
  size_t entries_ = 0;
  uint64_t cascades_ = 0;
  /// Scratch for entries surviving an advance; re-placed only after the
  /// slot walk finishes so nothing is visited twice within one reap.
  std::vector<PartialMatch*> cascade_scratch_;
};

/// \brief Buckets of partial matches per NFA state, plus negation
/// witnesses, with tombstone-based removal.
class PartialMatchStore {
 public:
  using Bucket = std::vector<std::unique_ptr<PartialMatch>>;

  /// Constructs a store for `num_states` positive components and
  /// `num_elements` total pattern components (witness buckets are indexed
  /// by pattern element).
  PartialMatchStore(int num_states, int num_elements);

  /// The arena this store's binding chains allocate from. Matches queued
  /// for insertion must already allocate from this arena. (Chains adopted
  /// from another shard keep their prefixes in that shard's arena; see
  /// AdoptForeignArenas.)
  BindingArena& arena() { return *arena_; }
  const BindingArena& arena() const { return *arena_; }

  /// Shared ownership of the primary arena, for handing to stores that
  /// adopt chains allocated here: the arena must outlive every foreign
  /// reference into it, whichever store is destroyed first.
  std::shared_ptr<BindingArena> shared_arena() const { return arena_; }

  /// Registers arenas that chains adopted into this store may reference
  /// (the donor's primary arena plus anything the donor itself adopted).
  /// Duplicates and the store's own arena are skipped; drained foreign
  /// arenas are pruned opportunistically.
  void AdoptForeignArenas(const std::vector<std::shared_ptr<BindingArena>>& arenas);

  /// Drops foreign arenas with no live nodes left. An arena still in use
  /// as some other store's primary stays alive through that store's
  /// reference; pruning here only releases this store's lifetime pin.
  void PruneForeignArenas();

  const std::vector<std::shared_ptr<BindingArena>>& foreign_arenas() const {
    return foreign_arenas_;
  }

  /// Moves every live match (regulars into *regulars, witnesses into
  /// *witnesses) satisfying `pred` out of the store, preserving bucket
  /// order. The moved matches keep their chains — no copy, no release;
  /// accounting is adjusted as if they were never here. Tombstoned entries
  /// are left behind for Compact. Callers holding indexes must rebuild.
  void ExtractIf(const std::function<bool(const PartialMatch&)>& pred,
                 std::vector<std::unique_ptr<PartialMatch>>* regulars,
                 std::vector<std::unique_ptr<PartialMatch>>* witnesses);

  /// Inserts a match into the bucket of its state; returns a stable pointer.
  PartialMatch* Add(std::unique_ptr<PartialMatch> pm);

  /// Inserts a negation witness for the given pattern element.
  PartialMatch* AddWitness(std::unique_ptr<PartialMatch> pm);

  /// The bucket of the given NFA state.
  Bucket& bucket(int state) { return buckets_[static_cast<size_t>(state)]; }
  const Bucket& bucket(int state) const { return buckets_[static_cast<size_t>(state)]; }
  int num_states() const { return static_cast<int>(buckets_.size()); }

  /// The witness bucket of the given pattern element.
  Bucket& witnesses(int elem) { return witness_buckets_[static_cast<size_t>(elem)]; }
  const Bucket& witnesses(int elem) const {
    return witness_buckets_[static_cast<size_t>(elem)];
  }
  int num_witness_buckets() const { return static_cast<int>(witness_buckets_.size()); }

  /// Tombstones a match (no-op if already dead) and releases its binding
  /// chain back to the arena; prefix nodes shared with siblings survive.
  void Kill(PartialMatch* pm);

  /// Number of live regular partial matches.
  size_t NumAlive() const { return num_alive_; }
  /// Number of live negation witnesses.
  size_t NumAliveWitnesses() const { return num_alive_witnesses_; }
  /// Number of tombstoned entries awaiting compaction.
  size_t NumDead() const { return num_dead_; }

  /// Chain-independent footprint of one match: the struct itself, the
  /// slot_end payload at its allocated *capacity* (vectors grow by
  /// doubling; charging size() undercounts the real footprint), and
  /// allocator slack. Events themselves are shared with the stream and
  /// not charged.
  static size_t FixedBytes(const PartialMatch& pm) {
    return sizeof(PartialMatch) + pm.slot_end.capacity() * sizeof(uint32_t) +
           kPerMatchOverheadBytes;
  }

  /// Deterministic *marginal* memory estimate of one match: FixedBytes
  /// plus the exclusive suffix of its chain — the nodes that would return
  /// to the arena if this match alone were killed. Shared prefix nodes
  /// are charged to no single match (they are in ApproxLiveBytes once);
  /// the shedder's kill loop self-corrects as siblings die and their
  /// prefixes become exclusive.
  static size_t ApproxBytes(const PartialMatch& pm) {
    size_t exclusive = 0;
    for (const BindingNode* n = pm.tail(); n != nullptr && n->refs == 1;
         n = n->prev) {
      ++exclusive;
    }
    return FixedBytes(pm) + exclusive * sizeof(BindingNode);
  }

  /// Estimated bytes held by live matches and witnesses — the memory
  /// signal the overload guard enforces its budget against. O(1): the
  /// fixed per-match part is maintained incrementally by
  /// Add/AddWitness/Kill, and the arena counts every live chain node
  /// exactly once regardless of prefix sharing. Chain nodes of adopted
  /// matches are charged to their home arena's store, keeping the global
  /// sum deduplicated across shards.
  size_t ApproxLiveBytes() const {
    return fixed_live_bytes_ + arena_->LiveBytes();
  }

  /// \name Deadline-ordered expiry (DESIGN.md §3.9)
  ///
  /// A match's deadline is fixed at creation: start_ts + window for time
  /// windows, start_seq + count_window for count windows. Every
  /// Add/AddWitness enqueues the match on the hierarchical timing wheel,
  /// and ReapExpired kills exactly the live matches for which
  /// PartialMatch::Expired / ExpiredByCount holds — in O(expired) instead
  /// of O(live). Kill, ExtractIf, and Clear keep the wheel consistent, so
  /// matches shed or migrated out from under it are simply no longer there
  /// to reap.
  ///@{
  /// Fixes the window semantics (a zero time window until called). Call
  /// before the first Add; typically once, at engine construction.
  void ConfigureExpiry(Duration window, uint64_t count_window);
  /// Kills every live match whose window has elapsed at time `now` /
  /// stream position `seq` (whichever the configured window mode uses);
  /// returns the number killed.
  size_t ReapExpired(Timestamp now, uint64_t seq);
  /// Matches killed by ReapExpired since construction (monotone).
  uint64_t ExpiryReapedTotal() const { return expiry_reaped_total_; }
  /// Cascade re-placements performed by the wheel (monotone).
  uint64_t WheelCascadesTotal() const { return wheel_.cascades(); }
  /// Matches currently queued on the wheel (== live matches + witnesses).
  size_t WheelEntries() const { return wheel_.entries(); }
  /// The deadline key of one match under the configured window mode
  /// (exposed for tests; monotone in expiry order).
  uint64_t DeadlineKey(const PartialMatch& pm) const;
  ///@}

  /// Applies `fn` to every live regular match.
  void ForEachAlive(const std::function<void(PartialMatch*)>& fn);
  /// Applies `fn` to every live witness.
  void ForEachAliveWitness(const std::function<void(PartialMatch*)>& fn);

  /// Physically removes tombstoned matches. Pointers to dead matches become
  /// dangling; callers holding indexes must rebuild them (the engine does).
  /// Pointers to live matches are never invalidated (unique_ptr
  /// indirection keeps them stable across the bucket moves).
  void Compact();

  /// Fraction of dead entries, used to decide when to compact.
  double DeadFraction() const;

  /// Kills everything (used between experiment runs). Arena blocks are
  /// retained as reusable capacity.
  void Clear();

 private:
  /// Unique-ptr indirection plus typical allocator rounding per entry.
  static constexpr size_t kPerMatchOverheadBytes = 32;

  // Declared before the buckets: match destructors release chains into
  // the arenas, so both the primary arena and any adopted foreign arenas
  // must outlive every bucket.
  std::shared_ptr<BindingArena> arena_ = std::make_shared<BindingArena>();
  std::vector<std::shared_ptr<BindingArena>> foreign_arenas_;
  std::vector<Bucket> buckets_;
  std::vector<Bucket> witness_buckets_;
  size_t num_alive_ = 0;
  size_t num_alive_witnesses_ = 0;
  size_t num_dead_ = 0;
  size_t fixed_live_bytes_ = 0;
  /// Deadline-ordered expiry state (see ConfigureExpiry).
  ExpiryWheel wheel_;
  Duration expiry_window_ = 0;
  uint64_t expiry_count_window_ = 0;
  uint64_t expiry_reaped_total_ = 0;
  std::vector<PartialMatch*> reap_scratch_;
};

}  // namespace cepshed

#endif  // CEPSHED_CEP_PARTIAL_MATCH_H_
