// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/cep/partial_match.h"

#include <bit>
#include <limits>

namespace cepshed {

namespace {

/// Order-preserving map from signed event time to a wheel key: flipping
/// the sign bit shifts int64 order onto uint64 order, so `deadline key <
/// threshold key` is exactly `deadline < now` even for negative
/// timestamps.
constexpr uint64_t kTimeKeySignFlip = uint64_t{1} << 63;
uint64_t TimeKey(Timestamp t) {
  return static_cast<uint64_t>(t) ^ kTimeKeySignFlip;
}

}  // namespace

void ExpiryWheel::PushBack(Slot* slot, PartialMatch* pm) {
  pm->wheel_prev = slot->tail;
  pm->wheel_next = nullptr;
  if (slot->tail != nullptr) {
    slot->tail->wheel_next = pm;
  } else {
    slot->head = pm;
  }
  slot->tail = pm;
}

void ExpiryWheel::Place(PartialMatch* pm) {
  // Coarsest level where the deadline still disagrees with the current
  // time; level 0 when they agree (deadline == now_, due immediately).
  const uint64_t diff = pm->wheel_deadline ^ now_;
  const int level =
      diff == 0 ? 0 : (63 - std::countl_zero(diff)) / kSlotBits;
  const int slot = static_cast<int>(
      (pm->wheel_deadline >> (level * kSlotBits)) & (kSlots - 1));
  pm->wheel_level = static_cast<int8_t>(level);
  pm->wheel_slot = static_cast<uint16_t>(slot);
  PushBack(&slots_[level][slot], pm);
  occupied_[level][slot >> 6] |= uint64_t{1} << (slot & 63);
}

void ExpiryWheel::Enqueue(PartialMatch* pm, uint64_t deadline) {
  assert(pm->wheel_level == PartialMatch::kWheelNotQueued);
  pm->wheel_deadline = deadline;
  ++entries_;
  if (deadline < now_) {
    // Deadline already behind the wheel (out-of-order event time): park
    // on the overdue list, which every reap rechecks exactly.
    pm->wheel_level = PartialMatch::kWheelOverdue;
    PushBack(&overdue_, pm);
    return;
  }
  Place(pm);
}

void ExpiryWheel::Unlink(PartialMatch* pm) {
  if (pm->wheel_level == PartialMatch::kWheelNotQueued) return;
  Slot* slot = pm->wheel_level == PartialMatch::kWheelOverdue
                   ? &overdue_
                   : &slots_[pm->wheel_level][pm->wheel_slot];
  if (pm->wheel_prev != nullptr) {
    pm->wheel_prev->wheel_next = pm->wheel_next;
  } else {
    slot->head = pm->wheel_next;
  }
  if (pm->wheel_next != nullptr) {
    pm->wheel_next->wheel_prev = pm->wheel_prev;
  } else {
    slot->tail = pm->wheel_prev;
  }
  if (slot->head == nullptr && pm->wheel_level >= 0) {
    occupied_[pm->wheel_level][pm->wheel_slot >> 6] &=
        ~(uint64_t{1} << (pm->wheel_slot & 63));
  }
  pm->wheel_next = pm->wheel_prev = nullptr;
  pm->wheel_level = PartialMatch::kWheelNotQueued;
  --entries_;
}

size_t ExpiryWheel::Reap(uint64_t threshold, std::vector<PartialMatch*>* out) {
  size_t reaped = 0;
  for (PartialMatch* pm = overdue_.head; pm != nullptr;) {
    PartialMatch* next = pm->wheel_next;
    if (pm->wheel_deadline < threshold) {
      Unlink(pm);
      out->push_back(pm);
      ++reaped;
    }
    pm = next;
  }
  if (threshold <= now_) return reaped;
  const uint64_t from = now_;
  now_ = threshold;
  // Walk only the slots the time hands crossed, coarse levels included.
  // Detached survivors (slot aliasing, or the threshold's own partially
  // expired slot) are re-placed relative to the new time only after the
  // walk, so no entry is visited twice within one reap.
  cascade_scratch_.clear();
  for (int level = 0; level < kLevels; ++level) {
    const int shift = level * kSlotBits;
    const uint64_t lo = from >> shift;
    const uint64_t hi = threshold >> shift;
    if (lo == hi) break;
    const uint64_t span = hi - lo;
    const uint64_t touch =
        span >= static_cast<uint64_t>(kSlots) ? kSlots : span + 1;
    for (uint64_t i = 0; i < touch; ++i) {
      const int slot = static_cast<int>((lo + i) & (kSlots - 1));
      if ((occupied_[level][slot >> 6] >> (slot & 63) & 1) == 0) continue;
      PartialMatch* pm = slots_[level][slot].head;
      slots_[level][slot].head = slots_[level][slot].tail = nullptr;
      occupied_[level][slot >> 6] &= ~(uint64_t{1} << (slot & 63));
      while (pm != nullptr) {
        PartialMatch* next = pm->wheel_next;
        pm->wheel_next = pm->wheel_prev = nullptr;
        pm->wheel_level = PartialMatch::kWheelNotQueued;
        if (pm->wheel_deadline < threshold) {
          --entries_;
          out->push_back(pm);
          ++reaped;
        } else {
          cascade_scratch_.push_back(pm);
        }
        pm = next;
      }
    }
  }
  for (PartialMatch* pm : cascade_scratch_) {
    ++cascades_;
    Place(pm);
  }
  cascade_scratch_.clear();
  return reaped;
}

void ExpiryWheel::Clear() {
  for (auto& level : slots_) {
    for (Slot& slot : level) slot = Slot{};
  }
  for (auto& level : occupied_) {
    for (uint64_t& word : level) word = 0;
  }
  overdue_ = Slot{};
  now_ = 0;
  entries_ = 0;
  cascade_scratch_.clear();
}

PartialMatchStore::PartialMatchStore(int num_states, int num_elements)
    : buckets_(static_cast<size_t>(num_states)),
      witness_buckets_(static_cast<size_t>(num_elements)) {}

void PartialMatchStore::ConfigureExpiry(Duration window, uint64_t count_window) {
  assert(num_alive_ + num_alive_witnesses_ == 0);
  expiry_window_ = window;
  expiry_count_window_ = count_window;
}

uint64_t PartialMatchStore::DeadlineKey(const PartialMatch& pm) const {
  if (expiry_count_window_ > 0) {
    const uint64_t deadline = pm.start_seq + expiry_count_window_;
    return deadline < pm.start_seq ? std::numeric_limits<uint64_t>::max()
                                   : deadline;  // saturate
  }
  // Saturating start_ts + window: a deadline past the representable range
  // simply never comes due, matching Expired's `now - start > w`.
  constexpr Timestamp kMaxTs = std::numeric_limits<Timestamp>::max();
  const Timestamp deadline =
      (expiry_window_ >= 0 && pm.start_ts > kMaxTs - expiry_window_)
          ? kMaxTs
          : pm.start_ts + expiry_window_;
  return TimeKey(deadline);
}

size_t PartialMatchStore::ReapExpired(Timestamp now, uint64_t seq) {
  const uint64_t threshold = expiry_count_window_ > 0 ? seq : TimeKey(now);
  reap_scratch_.clear();
  const size_t reaped = wheel_.Reap(threshold, &reap_scratch_);
  for (PartialMatch* pm : reap_scratch_) Kill(pm);
  reap_scratch_.clear();
  expiry_reaped_total_ += reaped;
  return reaped;
}

PartialMatch* PartialMatchStore::Add(std::unique_ptr<PartialMatch> pm) {
  PartialMatch* raw = pm.get();
  fixed_live_bytes_ += FixedBytes(*pm);
  buckets_[static_cast<size_t>(pm->state)].push_back(std::move(pm));
  ++num_alive_;
  wheel_.Enqueue(raw, DeadlineKey(*raw));
  return raw;
}

PartialMatch* PartialMatchStore::AddWitness(std::unique_ptr<PartialMatch> pm) {
  PartialMatch* raw = pm.get();
  pm->is_witness = true;
  fixed_live_bytes_ += FixedBytes(*pm);
  witness_buckets_[static_cast<size_t>(pm->negated_elem)].push_back(std::move(pm));
  ++num_alive_witnesses_;
  wheel_.Enqueue(raw, DeadlineKey(*raw));
  return raw;
}

void PartialMatchStore::Kill(PartialMatch* pm) {
  if (!pm->alive) return;
  wheel_.Unlink(pm);
  pm->alive = false;
  ++num_dead_;
  const size_t bytes = FixedBytes(*pm);
  fixed_live_bytes_ -= bytes <= fixed_live_bytes_ ? bytes : fixed_live_bytes_;
  // Release the chain now so the memory signal (and the arena's free
  // list) reflect the kill immediately; Length()/slot_end stay readable
  // for audit consumers that inspect a match after shedding it.
  pm->ReleaseChain();
  if (pm->is_witness) {
    --num_alive_witnesses_;
  } else {
    --num_alive_;
  }
}

void PartialMatchStore::ForEachAlive(const std::function<void(PartialMatch*)>& fn) {
  for (auto& bucket : buckets_) {
    for (auto& pm : bucket) {
      if (pm->alive) fn(pm.get());
    }
  }
}

void PartialMatchStore::ForEachAliveWitness(
    const std::function<void(PartialMatch*)>& fn) {
  for (auto& bucket : witness_buckets_) {
    for (auto& pm : bucket) {
      if (pm->alive) fn(pm.get());
    }
  }
}

void PartialMatchStore::Compact() {
  auto compact_bucket = [](Bucket& bucket) {
    size_t keep = 0;
    for (size_t i = 0; i < bucket.size(); ++i) {
      if (bucket[i]->alive) {
        if (keep != i) bucket[keep] = std::move(bucket[i]);
        ++keep;
      }
    }
    bucket.resize(keep);
  };
  for (auto& bucket : buckets_) compact_bucket(bucket);
  for (auto& bucket : witness_buckets_) compact_bucket(bucket);
  num_dead_ = 0;
}

void PartialMatchStore::AdoptForeignArenas(
    const std::vector<std::shared_ptr<BindingArena>>& arenas) {
  for (const std::shared_ptr<BindingArena>& a : arenas) {
    if (a == nullptr || a == arena_) continue;
    bool known = false;
    for (const std::shared_ptr<BindingArena>& have : foreign_arenas_) {
      if (have == a) {
        known = true;
        break;
      }
    }
    if (!known) foreign_arenas_.push_back(a);
  }
  PruneForeignArenas();
}

void PartialMatchStore::PruneForeignArenas() {
  size_t keep = 0;
  for (size_t i = 0; i < foreign_arenas_.size(); ++i) {
    if (foreign_arenas_[i]->live_nodes() > 0) {
      if (keep != i) foreign_arenas_[keep] = std::move(foreign_arenas_[i]);
      ++keep;
    }
  }
  foreign_arenas_.resize(keep);
}

void PartialMatchStore::ExtractIf(
    const std::function<bool(const PartialMatch&)>& pred,
    std::vector<std::unique_ptr<PartialMatch>>* regulars,
    std::vector<std::unique_ptr<PartialMatch>>* witnesses) {
  auto extract_bucket = [&](Bucket& bucket, bool witness_bucket) {
    size_t keep = 0;
    for (size_t i = 0; i < bucket.size(); ++i) {
      std::unique_ptr<PartialMatch>& pm = bucket[i];
      if (pm->alive && pred(*pm)) {
        // The match leaves this store's jurisdiction; the adopter's
        // Add/AddWitness re-enqueues it on its own wheel in donor order.
        wheel_.Unlink(pm.get());
        const size_t bytes = FixedBytes(*pm);
        fixed_live_bytes_ -= bytes <= fixed_live_bytes_ ? bytes : fixed_live_bytes_;
        if (witness_bucket) {
          --num_alive_witnesses_;
          witnesses->push_back(std::move(pm));
        } else {
          --num_alive_;
          regulars->push_back(std::move(pm));
        }
        continue;
      }
      if (keep != i) bucket[keep] = std::move(bucket[i]);
      ++keep;
    }
    bucket.resize(keep);
  };
  for (auto& bucket : buckets_) extract_bucket(bucket, false);
  for (auto& bucket : witness_buckets_) extract_bucket(bucket, true);
}

double PartialMatchStore::DeadFraction() const {
  const size_t total = num_alive_ + num_alive_witnesses_ + num_dead_;
  return total == 0 ? 0.0 : static_cast<double>(num_dead_) / static_cast<double>(total);
}

void PartialMatchStore::Clear() {
  // Reset the wheel before destroying the matches it links; intrusive
  // pointers die with their owners, so a wholesale structural reset is
  // all the consistency this needs. The wheel clock restarts at zero —
  // runs after a Clear replay stream time from the beginning.
  wheel_.Clear();
  for (auto& bucket : buckets_) bucket.clear();
  for (auto& bucket : witness_buckets_) bucket.clear();
  num_alive_ = num_alive_witnesses_ = num_dead_ = 0;
  fixed_live_bytes_ = 0;
  PruneForeignArenas();
}

}  // namespace cepshed
