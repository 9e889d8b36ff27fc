// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/shed/offline_estimator.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <unordered_set>

namespace cepshed {

std::vector<float> ExtractFeatures(const Event& event, const Nfa& nfa) {
  const std::vector<int>& attrs = nfa.PredicateAttrs();
  std::vector<float> features;
  features.reserve(attrs.size());
  for (int a : attrs) {
    const Value& v = event.attr(a);
    switch (v.type()) {
      case ValueType::kInt:
        features.push_back(static_cast<float>(v.AsInt()));
        break;
      case ValueType::kDouble:
        features.push_back(static_cast<float>(v.AsDouble()));
        break;
      case ValueType::kString:
        // Categorical attributes enter the tree as stable hash buckets.
        features.push_back(static_cast<float>(v.Hash() % 1024));
        break;
      case ValueType::kNull:
        features.push_back(-1.0f);
        break;
    }
  }
  return features;
}

std::vector<float> ExtractStateFeatures(const PartialMatch& pm, const Nfa& nfa) {
  const std::vector<int>& attrs = nfa.PredicateAttrs();
  const size_t per_event = attrs.size();
  // Slots 0..state inclusive; the in-progress slot may be empty. Only the
  // *last* event of each slot feeds the features, and slot ends are
  // non-decreasing, so one reverse walk over the shared-prefix binding
  // chain visits every needed node (depth d holds flat index d-1) without
  // materializing the whole match.
  const size_t slots = static_cast<size_t>(pm.state) + 1;
  std::vector<float> features(slots * per_event, -1.0f);
  const BindingNode* node = pm.tail();
  for (size_t slot = slots; slot-- > 0;) {
    const uint32_t end =
        slot < pm.slot_end.size() ? pm.slot_end[slot] : pm.Length();
    const uint32_t begin =
        slot == 0 ? 0
                  : (slot - 1 < pm.slot_end.size() ? pm.slot_end[slot - 1]
                                                   : pm.Length());
    if (end <= begin) continue;
    while (node != nullptr && node->depth > end) node = node->prev;
    if (node == nullptr) break;
    const std::vector<float> ev = ExtractFeatures(*node->event, nfa);
    std::copy(ev.begin(), ev.end(),
              features.begin() + static_cast<ptrdiff_t>(slot * per_event));
  }
  return features;
}

Result<OfflineStats> EstimateOffline(std::shared_ptr<const Nfa> nfa,
                                     const EventStream& history, int num_slices,
                                     bool use_resource_cost,
                                     const EngineOptions& engine_options) {
  if (num_slices < 1) {
    return Status::InvalidArgument("offline estimation: num_slices must be >= 1");
  }
  const auto t0 = std::chrono::steady_clock::now();

  OfflineStats stats;
  stats.num_slices = num_slices;
  stats.slice_len =
      std::max<Duration>(1, nfa->window() / static_cast<Duration>(num_slices));
  stats.num_events = history.size();

  Engine engine(nfa, engine_options);
  // Lineage index: pm id -> records index. An engine numbers its partial
  // matches 1, 2, 3, ... (witnesses and completed clones leave gaps), so a
  // dense vector serves every ancestor-walk lookup without hashing.
  constexpr size_t kNoRecord = std::numeric_limits<size_t>::max();
  std::vector<size_t> index_of;
  auto record_of = [&](uint64_t id) -> PmRecord* {
    if (id >= index_of.size() || index_of[id] == kNoRecord) return nullptr;
    return &stats.records[index_of[id]];
  };
  std::unordered_set<uint64_t> participating_events;

  auto slice_of = [&](Timestamp start_ts, Timestamp now) {
    const Duration age = now - start_ts;
    int s = static_cast<int>(age / stats.slice_len);
    if (s < 0) s = 0;
    if (s >= num_slices) s = num_slices - 1;
    return static_cast<size_t>(s);
  };

  engine.set_pm_created_hook([&](const PartialMatch& pm, const PartialMatch* parent) {
    if (pm.is_witness) return;
    PmRecord rec;
    rec.id = pm.id;
    rec.parent_id = parent != nullptr ? parent->id : 0;
    rec.state = pm.state;
    rec.features = ExtractStateFeatures(pm, *nfa);
    rec.event_features = ExtractFeatures(*pm.LastEvent(), *nfa);
    rec.last_event_type = static_cast<int>(pm.LastEvent()->type());
    rec.contrib_by_slice.assign(static_cast<size_t>(num_slices), 0.0f);
    rec.consum_by_slice.assign(static_cast<size_t>(num_slices), 0.0f);
    rec.own_omega =
        use_resource_cost
            ? static_cast<float>(engine_options.costs.per_clone_base +
                                 engine_options.costs.per_clone_event *
                                     static_cast<double>(pm.Length()))
            : 1.0f;
    rec.start_ts = pm.start_ts;
    rec.birth_ts = pm.last_ts;
    rec.consum_by_slice[0] = rec.own_omega;  // its own footprint
    if (rec.id >= index_of.size()) index_of.resize(rec.id + 1, kNoRecord);
    index_of[rec.id] = stats.records.size();
    stats.records.push_back(std::move(rec));

    // Charge the new match's creation cost to every ancestor, at the age
    // slice the ancestor had at this moment: shedding the ancestor before
    // that slice would have prevented the derivation (Gamma- of Eq. 4).
    uint64_t ancestor = stats.records.back().parent_id;
    const float omega = stats.records.back().own_omega;
    const Timestamp now = pm.last_ts;
    while (ancestor != 0) {
      PmRecord* anc = record_of(ancestor);
      if (anc == nullptr) break;
      anc->consum_by_slice[slice_of(anc->start_ts, now)] += omega;
      ancestor = anc->parent_id;
    }
  });

  if (use_resource_cost) {
    // The dominating share of Gamma-: the work spent evaluating query
    // predicates against a stored match every time an event probes it.
    // Charged to the match itself at its current age slice; ancestors are
    // charged at the slice they had when the probed match was *born* —
    // shedding an ancestor after the derivation no longer saves this work.
    engine.set_pm_probed_hook(
        [&](const PartialMatch& pm, double cost, Timestamp now) {
          PmRecord* rec = record_of(pm.id);
          if (rec == nullptr) return;
          rec->consum_by_slice[slice_of(rec->start_ts, now)] +=
              static_cast<float>(cost);
          const Timestamp birth = rec->birth_ts;
          uint64_t ancestor = rec->parent_id;
          while (ancestor != 0) {
            PmRecord* anc = record_of(ancestor);
            if (anc == nullptr) break;
            anc->consum_by_slice[slice_of(anc->start_ts, birth)] +=
                static_cast<float>(cost);
            ancestor = anc->parent_id;
          }
        });
  }

  engine.set_match_hook([&](const Match& match, const PartialMatch* parent) {
    ++stats.num_matches;
    for (const EventPtr& e : match.events) participating_events.insert(e->seq());
    // Credit the complete match to every ancestor (the contribution
    // Gamma+ of Eq. 3).
    uint64_t ancestor = parent != nullptr ? parent->id : 0;
    const Timestamp now = match.detected_at;
    while (ancestor != 0) {
      PmRecord* anc = record_of(ancestor);
      if (anc == nullptr) break;
      anc->contrib_by_slice[slice_of(anc->start_ts, now)] += 1.0f;
      ancestor = anc->parent_id;
    }
  });

  std::vector<Match> sink;
  for (const EventPtr& e : history) {
    stats.replay_cost += engine.Process(e, &sink);
    sink.clear();
  }

  // Per-event participation, and from it the per-type selectivity
  // statistics for the SI baseline.
  const size_t num_types = nfa->schema().num_event_types();
  std::vector<size_t> type_count(num_types, 0);
  std::vector<size_t> type_hits(num_types, 0);
  stats.event_participates.reserve(history.size());
  for (const EventPtr& e : history) {
    const bool hit = participating_events.count(e->seq()) > 0;
    stats.event_participates.push_back(hit ? 1 : 0);
    ++type_count[static_cast<size_t>(e->type())];
    if (hit) ++type_hits[static_cast<size_t>(e->type())];
  }
  stats.type_utility.assign(num_types, 0.0);
  stats.type_share.assign(num_types, 0.0);
  for (size_t t = 0; t < num_types; ++t) {
    if (type_count[t] > 0) {
      stats.type_utility[t] =
          static_cast<double>(type_hits[t]) / static_cast<double>(type_count[t]);
    }
    if (!history.empty()) {
      stats.type_share[t] =
          static_cast<double>(type_count[t]) / static_cast<double>(history.size());
    }
  }

  // Per-state completion probability for the SS baseline.
  std::vector<size_t> state_pms(static_cast<size_t>(nfa->num_states()), 0);
  std::vector<size_t> state_completed(static_cast<size_t>(nfa->num_states()), 0);
  for (const PmRecord& rec : stats.records) {
    ++state_pms[static_cast<size_t>(rec.state)];
    float total = 0.0f;
    for (float c : rec.contrib_by_slice) total += c;
    if (total > 0.0f) ++state_completed[static_cast<size_t>(rec.state)];
  }
  stats.state_completion.assign(static_cast<size_t>(nfa->num_states()), 0.0);
  for (int s = 0; s < nfa->num_states(); ++s) {
    if (state_pms[static_cast<size_t>(s)] > 0) {
      stats.state_completion[static_cast<size_t>(s)] =
          static_cast<double>(state_completed[static_cast<size_t>(s)]) /
          static_cast<double>(state_pms[static_cast<size_t>(s)]);
    }
  }

  stats.replay_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return stats;
}

}  // namespace cepshed
