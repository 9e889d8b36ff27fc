// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Pinning of the deadline-ordered expiry path (DESIGN.md §3.9), the
// engine's only expiry mechanism. Two layers:
//
//  1. Store-level randomized property: against a brute-force oracle (the
//     definitional Expired/ExpiredByCount predicates over every live
//     match), the wheel's ReapExpired must kill exactly the expired set —
//     through random interleavings of adds (in-order, out-of-order, and
//     future anchors), shedder kills, ExtractIf migrations into a second
//     store, compactions, and clock advances of every size (including
//     multi-level jumps and zero-width rechecks). The wheel-occupancy
//     invariant (entries == live matches + witnesses) holds throughout.
//
//  2. Engine-level goldens: one hostile stream — with deterministic state
//     shedding, periodic Vacuums, aggressive compaction, and a mid-stream
//     extract/adopt migration episode — must reproduce pinned fingerprints
//     of the matches and stats (every counter, peak_pms, and total cost
//     units) across time windows, count windows, Kleene closure, negation
//     witnesses, and all selection policies. They were recorded while the
//     retired O(live) scan expiry and strict-contiguity scan still ran
//     beside the wheel and matched it byte for byte.

#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/cep/engine.h"
#include "src/cep/match.h"
#include "src/cep/nfa.h"
#include "src/cep/partial_match.h"
#include "src/query/parser.h"
#include "tests/test_util.h"

namespace cepshed {
namespace {

using cepshed::testing::FoldMatches;
using cepshed::testing::FoldStats;
using cepshed::testing::Fnv;
using cepshed::testing::MakeAbcdSchema;
using cepshed::testing::MakeEvent;
using cepshed::testing::MakeQ1;

// ---------------------------------------------------------------------------
// Store-level randomized property.

constexpr int kNumStates = 3;

std::set<const PartialMatch*> LiveSet(PartialMatchStore* store) {
  std::set<const PartialMatch*> live;
  store->ForEachAlive([&](PartialMatch* pm) { live.insert(pm); });
  store->ForEachAliveWitness([&](PartialMatch* pm) { live.insert(pm); });
  return live;
}

/// Drives one store pair (donor + migration recipient) through random
/// operations, checking every reap against the brute-force oracle.
/// `count_mode` switches between time windows and count windows.
void RunStoreProperty(bool count_mode, uint64_t seed) {
  SCOPED_TRACE(std::string(count_mode ? "count" : "time") + " seed=" +
               std::to_string(seed));
  const Duration window = 400;
  const uint64_t count_window = 350;

  PartialMatchStore donor(kNumStates, kNumStates);
  PartialMatchStore recipient(kNumStates, kNumStates);
  donor.ConfigureExpiry(count_mode ? 0 : window, count_mode ? count_window : 0);
  recipient.ConfigureExpiry(count_mode ? 0 : window, count_mode ? count_window : 0);

  std::mt19937_64 rng(seed);
  // A negative starting clock exercises the order-preserving signed→
  // unsigned key flip for time windows.
  int64_t clock = count_mode ? 0 : -5000;
  uint64_t seq_clock = 0;
  uint64_t next_id = 1;
  uint64_t reaped_donor = 0;
  uint64_t reaped_recipient = 0;

  auto expired = [&](const PartialMatch& pm) {
    return count_mode ? pm.ExpiredByCount(seq_clock, count_window)
                      : pm.Expired(clock, window);
  };

  auto check_occupancy = [&](PartialMatchStore* store) {
    EXPECT_EQ(store->WheelEntries(),
              store->NumAlive() + store->NumAliveWitnesses());
  };

  auto add_one = [&](PartialMatchStore* store) {
    auto pm = std::make_unique<PartialMatch>();
    pm->id = next_id++;
    pm->state = static_cast<int>(rng() % kNumStates);
    // Anchors scatter around the clock: behind it (including far enough
    // behind to be born expired — the overdue path), at it, and ahead of
    // it (out-of-order streams deliver anchors from the future too).
    const int64_t offset = static_cast<int64_t>(rng() % 1600) - 1100;
    pm->start_ts = clock + offset;
    pm->last_ts = pm->start_ts;
    // Count anchors only scatter backwards: stream positions are monotone,
    // so the engine can never store a match anchored ahead of the current
    // seq (and ExpiredByCount's unsigned subtraction defines that regime
    // as already expired — unreachable, so not part of the contract).
    const uint64_t back = rng() % 1600;
    pm->start_seq = seq_clock - (back < seq_clock ? back : seq_clock);
    if (rng() % 4 == 0) {
      pm->is_witness = true;
      pm->negated_elem = static_cast<int>(rng() % kNumStates);
      store->AddWitness(std::move(pm));
    } else {
      store->Add(std::move(pm));
    }
  };

  auto reap_and_check = [&](PartialMatchStore* store, uint64_t* reaped_accum) {
    const std::set<const PartialMatch*> before = LiveSet(store);
    std::set<const PartialMatch*> expect;
    for (const PartialMatch* pm : before) {
      if (expired(*pm)) expect.insert(pm);
    }
    const size_t n = store->ReapExpired(clock, seq_clock);
    EXPECT_EQ(n, expect.size());
    const std::set<const PartialMatch*> after = LiveSet(store);
    EXPECT_EQ(after.size(), before.size() - expect.size());
    for (const PartialMatch* pm : expect) {
      EXPECT_EQ(after.count(pm), 0u) << "expired match survived the reap";
    }
    for (const PartialMatch* pm : after) {
      EXPECT_EQ(expect.count(pm), 0u);
      EXPECT_EQ(before.count(pm), 1u) << "reap resurrected a match";
    }
    *reaped_accum += n;
    EXPECT_EQ(store->ExpiryReapedTotal(), *reaped_accum);
    check_occupancy(store);
  };

  for (int step = 0; step < 4000; ++step) {
    const uint64_t op = rng() % 100;
    if (op < 50) {
      add_one(rng() % 5 == 0 ? &recipient : &donor);
    } else if (op < 62) {
      // Shedder kill: the store must unlink the victim from the wheel.
      PartialMatchStore* store = rng() % 2 == 0 ? &donor : &recipient;
      std::vector<PartialMatch*> live;
      store->ForEachAlive([&](PartialMatch* pm) { live.push_back(pm); });
      store->ForEachAliveWitness([&](PartialMatch* pm) { live.push_back(pm); });
      if (!live.empty()) store->Kill(live[rng() % live.size()]);
    } else if (op < 72) {
      // Advance the clocks without reaping: expired matches accumulate.
      clock += static_cast<int64_t>(rng() % 300);
      seq_clock += rng() % 200;
    } else if (op < 86) {
      // Reap at the current clocks (zero-width advances recheck only the
      // overdue list — they must still find matches parked there).
      reap_and_check(&donor, &reaped_donor);
      reap_and_check(&recipient, &reaped_recipient);
    } else if (op < 92) {
      // Migration: extract a content-keyed subset from the donor and adopt
      // it into the recipient, which re-enqueues on its own wheel.
      const uint64_t residue = rng() % 3;
      std::vector<std::unique_ptr<PartialMatch>> regulars;
      std::vector<std::unique_ptr<PartialMatch>> witnesses;
      donor.ExtractIf(
          [&](const PartialMatch& pm) { return pm.id % 3 == residue; },
          &regulars, &witnesses);
      for (auto& pm : regulars) recipient.Add(std::move(pm));
      for (auto& pm : witnesses) recipient.AddWitness(std::move(pm));
      check_occupancy(&donor);
      check_occupancy(&recipient);
    } else if (op < 97) {
      // Wheel state must survive compaction: live matches never move as
      // objects, so their intrusive links stay valid.
      PartialMatchStore* store = rng() % 2 == 0 ? &donor : &recipient;
      const size_t entries = store->WheelEntries();
      store->Compact();
      EXPECT_EQ(store->WheelEntries(), entries);
      check_occupancy(store);
    } else {
      // Multi-level jump: crosses coarse wheel levels in one advance.
      clock += static_cast<int64_t>(rng() % 100000);
      seq_clock += rng() % 70000;
      reap_and_check(&donor, &reaped_donor);
      reap_and_check(&recipient, &reaped_recipient);
    }
    check_occupancy(&donor);
    check_occupancy(&recipient);
  }

  // Drain: after a jump past every possible anchor, nothing survives.
  clock += 1 << 21;
  seq_clock += 1 << 21;
  reap_and_check(&donor, &reaped_donor);
  reap_and_check(&recipient, &reaped_recipient);
  EXPECT_EQ(donor.NumAlive() + donor.NumAliveWitnesses(), 0u);
  EXPECT_EQ(recipient.NumAlive() + recipient.NumAliveWitnesses(), 0u);
  EXPECT_EQ(donor.WheelEntries(), 0u);
  EXPECT_EQ(recipient.WheelEntries(), 0u);
}

TEST(ExpiryWheelStore, RandomizedTimeWindowMatchesOracle) {
  for (uint64_t seed : {11u, 29u, 73u}) RunStoreProperty(false, seed);
}

TEST(ExpiryWheelStore, RandomizedCountWindowMatchesOracle) {
  for (uint64_t seed : {13u, 41u, 97u}) RunStoreProperty(true, seed);
}

TEST(ExpiryWheelStore, DeadlineKeyIsMonotoneAcrossSignFlip) {
  PartialMatchStore store(1, 1);
  store.ConfigureExpiry(/*window=*/100, /*count_window=*/0);
  PartialMatch a, b, c;
  a.start_ts = -500;
  b.start_ts = -1;
  c.start_ts = 500;
  EXPECT_LT(store.DeadlineKey(a), store.DeadlineKey(b));
  EXPECT_LT(store.DeadlineKey(b), store.DeadlineKey(c));
}

// ---------------------------------------------------------------------------
// Engine-level goldens.

uint64_t MixId(uint64_t seed, uint64_t id) {
  uint64_t h = seed ^ (id * 0x9E3779B97F4A7C15ull);
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 29;
  return h;
}

/// A hostile ABCD stream: small ID universe (dense joins), jittered
/// inter-event gaps so windows expire continuously, occasional timestamp
/// regressions (out-of-order arrival) to exercise the overdue path.
std::vector<EventPtr> MakeHostileStream(const Schema& schema, size_t n,
                                        uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<EventPtr> events;
  events.reserve(n);
  const char* kTypes[] = {"A", "A", "A", "B", "C", "D"};
  Timestamp ts = 0;
  for (size_t i = 0; i < n; ++i) {
    ts += static_cast<Timestamp>(rng() % 40);
    Timestamp event_ts = ts;
    if (rng() % 16 == 0 && ts > 200) event_ts = ts - 150;  // late arrival
    events.push_back(MakeEvent(schema, kTypes[rng() % 6], event_ts, i,
                               static_cast<int64_t>(rng() % 6),
                               static_cast<int64_t>(rng() % 8)));
  }
  return events;
}

struct EngineRunResult {
  std::vector<Match> matches;
  EngineStats stats;
};

uint64_t Fingerprint(const EngineRunResult& run) {
  Fnv f;
  FoldMatches(run.matches, &f);
  FoldStats(run.stats, &f);
  return f.value();
}

/// Replays `events` under aggressive compaction, with deterministic state
/// shedding every 97 events and, if `vacuum`, a Vacuum every 331.
EngineRunResult RunEngine(const Schema& schema, const Query& query,
                          const std::vector<EventPtr>& events, bool vacuum) {
  auto nfa = Nfa::Compile(query, &schema);
  EXPECT_TRUE(nfa.ok()) << nfa.status().message();
  EngineOptions opts;
  opts.compact_min_dead = 8;
  opts.compact_dead_fraction = 0.05;
  Engine engine(*nfa, opts);
  EngineRunResult run;
  size_t i = 0;
  for (const EventPtr& e : events) {
    engine.Process(e, &run.matches);
    ++i;
    if (i % 97 == 0) {
      // Content-hashing the match id selects the same victims every run.
      std::vector<PartialMatch*> victims;
      engine.store().ForEachAlive([&](PartialMatch* pm) {
        if (MixId(0xC0FFEEull, pm->id) % 8 == 0) victims.push_back(pm);
      });
      for (PartialMatch* pm : victims) engine.store().Kill(pm);
    }
    if (vacuum && i % 331 == 0) engine.Vacuum(e->timestamp());
  }
  run.stats = engine.stats();
  return run;
}

/// Checks the runs without and with periodic Vacuums against `pinned`.
void ExpectPinnedRuns(const Schema& schema, const Query& query,
                      const std::vector<EventPtr>& events,
                      const uint64_t (&pinned)[2]) {
  for (const bool vacuum : {false, true}) {
    SCOPED_TRACE(std::string(vacuum ? "with" : "without") + " vacuum");
    const EngineRunResult run = RunEngine(schema, query, events, vacuum);
    // Strict contiguity kills every match the next event does not extend,
    // so its matches die before their windows do.
    if (query.policy == SelectionPolicy::kStrictContiguity) {
      ASSERT_FALSE(run.matches.empty()) << "degenerate run: nothing matched";
    } else {
      ASSERT_GT(run.stats.pms_evicted, 0u) << "degenerate run: nothing expired";
    }
    const uint64_t got = Fingerprint(run);
    EXPECT_EQ(got, pinned[vacuum]) << std::hex << "0x" << got;
  }
}

class ExpiryWheelEngine : public ::testing::Test {
 protected:
  static Query ParseOrDie(const std::string& text) {
    auto q = ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().message();
    return *q;
  }

  Schema schema_ = MakeAbcdSchema();
  std::vector<EventPtr> stream_ = MakeHostileStream(schema_, 2500, 77);
};

TEST_F(ExpiryWheelEngine, TimeWindowQ1) {
  ExpectPinnedRuns(schema_, MakeQ1(/*window=*/Millis(2)), stream_,
                   {0xab9a0013853b10a1ULL, 0x795021db3a02d401ULL});
}

TEST_F(ExpiryWheelEngine, CountWindow) {
  Query q = MakeQ1(Millis(8));
  q.count_window = 180;
  ExpectPinnedRuns(schema_, q, stream_, {0xef0c3ff765d7c766ULL, 0x311f129763e23fa3ULL});
}

TEST_F(ExpiryWheelEngine, KleeneClosure) {
  ExpectPinnedRuns(schema_,
                   ParseOrDie("PATTERN SEQ(A a, A+{1,3} b[], B c) "
                              "WHERE a.ID = b[i].ID AND a.ID = c.ID WITHIN 2ms"),
                   stream_, {0x8998da5a515fa821ULL, 0x41cb0d9a3fc4f5e3ULL});
}

TEST_F(ExpiryWheelEngine, NegationWitnessesRideTheWheel) {
  ExpectPinnedRuns(schema_,
                   ParseOrDie("PATTERN SEQ(A a, !B b, C c) "
                              "WHERE a.ID = c.ID AND b.ID = a.ID WITHIN 2ms"),
                   stream_, {0x77cdca355aef1503ULL, 0x0e1f4da5a87e8ea1ULL});
}

TEST_F(ExpiryWheelEngine, SkipTillNextMatch) {
  Query q = MakeQ1(Millis(2));
  q.policy = SelectionPolicy::kSkipTillNextMatch;
  ExpectPinnedRuns(schema_, q, stream_, {0xfe060cb3dbe4b5b5ULL, 0xd6284a32e94623ddULL});
}

TEST_F(ExpiryWheelEngine, StrictContiguityAllFastPathCombinations) {
  // The generation-list kill and the wheel are the engine's only strict
  // contiguity and expiry paths; this pins them together.
  Query q = ParseOrDie(
      "PATTERN SEQ(A a, B b, C c) WHERE a.ID = b.ID AND a.ID = c.ID "
      "WITHIN 2ms");
  q.policy = SelectionPolicy::kStrictContiguity;
  ExpectPinnedRuns(schema_, q, stream_, {0x503d4bbdf8d9c5adULL, 0xd23fe3ebc57475a7ULL});
}

// ---------------------------------------------------------------------------
// Migration episode: adopted matches must land on the recipient's wheel.

TEST_F(ExpiryWheelEngine, MigratedMatchesExpireOnRecipientWheel) {
  auto nfa = Nfa::Compile(MakeQ1(Millis(2)), &schema_);
  ASSERT_TRUE(nfa.ok()) << nfa.status().message();
  Engine donor(*nfa, EngineOptions{});
  Engine recipient(*nfa, EngineOptions{});
  const int id_attr = schema_.AttributeIndex("ID");

  std::vector<Match> donor_matches;
  std::vector<Match> recipient_matches;
  const size_t half = stream_.size() / 2;
  for (size_t i = 0; i < half; ++i) donor.Process(stream_[i], &donor_matches);
  // Seal-and-drain handover of the even-ID partition, mid-window: the
  // moved matches carry live deadlines the recipient must keep honoring.
  MigratedState moved = donor.ExtractPartialMatches([&](const PartialMatch& pm) {
    const Event* first = pm.EventAt(0);
    return first != nullptr && first->attr(id_attr).AsInt() % 2 == 0;
  });
  ASSERT_FALSE(moved.empty());
  recipient.AdoptPartialMatches(std::move(moved));
  for (size_t i = half; i < stream_.size(); ++i) {
    const bool even = stream_[i]->attr(id_attr).AsInt() % 2 == 0;
    (even ? recipient : donor)
        .Process(stream_[i], even ? &recipient_matches : &donor_matches);
  }
  // Post-episode vacuums reap the stragglers on both wheels.
  donor.Vacuum(stream_.back()->timestamp());
  recipient.Vacuum(stream_.back()->timestamp());
  ASSERT_GT(recipient.stats().pms_evicted, 0u)
      << "no adopted match ever expired — the migration leg is vacuous";
  Fnv f;
  FoldMatches(donor_matches, &f);
  FoldMatches(recipient_matches, &f);
  FoldStats(donor.stats(), &f);
  FoldStats(recipient.stats(), &f);
  EXPECT_EQ(f.value(), 0x18188f124987ddecULL) << std::hex << "0x" << f.value();
}

// ---------------------------------------------------------------------------
// Vacuum fast path: zero tombstones must skip compaction + index rebuild.

TEST_F(ExpiryWheelEngine, VacuumWithNoDeadIsANoOp) {
  // A window far longer than the stream: nothing expires, nothing is shed,
  // so the store holds zero tombstones at all times. The Kleene aggregate
  // makes the engine assemble spans through the flatten cache, whose
  // population is the tell-tale that RebuildIndexes did NOT run.
  const Query q = ParseOrDie(
      "PATTERN SEQ(A a, A+{1,2} b[], B c) "
      "WHERE a.ID = b[i].ID AND a.ID = c.ID AND SUM(b[].V) >= 0 "
      "WITHIN 1000000ms");
  auto nfa = Nfa::Compile(q, &schema_);
  ASSERT_TRUE(nfa.ok());
  Engine vacuumed(*nfa, EngineOptions{});
  Engine control(*nfa, EngineOptions{});

  std::vector<Match> vacuumed_matches;
  std::vector<Match> control_matches;
  const size_t half = 150;
  for (size_t i = 0; i < half; ++i) {
    vacuumed.Process(stream_[i], &vacuumed_matches);
    control.Process(stream_[i], &control_matches);
  }
  ASSERT_EQ(vacuumed.store().NumDead(), 0u);
  const std::set<const PartialMatch*> before = LiveSet(&vacuumed.store());
  ASSERT_FALSE(before.empty());
  const size_t flat_cache = vacuumed.FlatCacheSize();

  vacuumed.Vacuum(stream_[half - 1]->timestamp());

  // The fast path must leave everything untouched: no tombstones created,
  // the same live objects at the same addresses, and — the sharp
  // observable that compaction + rebuild were skipped — the flatten cache
  // still populated (RebuildIndexes would have dropped it).
  EXPECT_EQ(vacuumed.store().NumDead(), 0u);
  EXPECT_EQ(LiveSet(&vacuumed.store()), before);
  EXPECT_EQ(vacuumed.FlatCacheSize(), flat_cache);
  EXPECT_GT(flat_cache, 0u);

  // And the engine keeps evaluating correctly on the surviving indexes.
  for (size_t i = half; i < 300; ++i) {
    vacuumed.Process(stream_[i], &vacuumed_matches);
    control.Process(stream_[i], &control_matches);
  }
  EXPECT_EQ(Fingerprint({vacuumed_matches, vacuumed.stats()}),
            Fingerprint({control_matches, control.stats()}));
}

}  // namespace
}  // namespace cepshed
