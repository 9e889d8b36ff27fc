// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Outside-in measurement hook of the pipeline benchmark: a forwarding
// Shedder that wraps the strategy a run would use anyway (NoShedder, or the
// registry's hybrid) and reads the clock around the calls every run loop
// (ShardRuntime's shard worker, ShedRunner) makes per event: FilterEvent,
// then Engine::Process, then AfterEvent. It follows the pattern of
// ModelOwningShedder (src/shed/hybrid.h): Bind, set_obs, theta and Reset
// forward to the inner strategy, and the inner drop/shed counters are
// mirrored after every AfterEvent, so a run loop cannot tell the probe from
// the strategy it wraps.
//
// Nothing here changes what the engine computes. The probe only reads
// EngineStats (match and cost totals) and, in traced passes, the store's
// O(1) size and reap counters.

#ifndef CEPSHED_BENCH_PIPELINE_PROBE_SHEDDER_H_
#define CEPSHED_BENCH_PIPELINE_PROBE_SHEDDER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/shed/shedder.h"

namespace cepshed::pipeline {

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One event in 16 carries the clock samples of a traced pass (and, in a
/// closed loop, a router tap stamp). Choosing by seq, not by arrival, makes
/// the sample identical across passes, shards and commits. The choice is a
/// Fibonacci hash of seq rather than seq % 16, which would alias with the
/// engine's every-64-events expiry sweep.
inline bool Sampled(uint64_t seq) { return (seq * 0x9E3779B97F4A7C15ull) >> 60 == 0; }

/// Clock reads around one sampled event's step through a shard.
struct StepSample {
  uint64_t seq = 0;
  int shard = 0;
  /// When the event entered the pipeline: the router tap (the due time in
  /// an open loop) or, on the queue-less single-engine path, the exit of
  /// the previous event's step. -1 when unknown.
  int64_t ingest_ns = -1;
  int64_t filter_in_ns = 0;
  int64_t filter_out_ns = 0;
  int64_t after_in_ns = 0;
  int64_t after_out_ns = 0;
  /// Engine cost units the event was charged (0 when it was dropped).
  double cost_units = 0.0;
  bool dropped = false;
};

/// What one shard's probe measured in one pass. Written only by the
/// thread that runs the shard; read by the bench after the run returns
/// (the runtime's worker join orders the two).
struct ShardRecord {
  /// Detection latency of every match, in microseconds.
  std::vector<double> detect_us;
  /// Traced passes only.
  std::vector<StepSample> steps;
  size_t peak_state_bytes = 0;
  uint64_t expiry_reaped = 0;
};

/// Per-pass settings shared read-only by every shard's probe.
struct PassContext {
  /// Record StepSamples and store counters.
  bool traced = false;
  /// Open loop: a match's detection latency runs from its completing
  /// event's due time in `stamps`. In a closed loop it runs from the
  /// entry of the completing event's shard step: every event is
  /// available at once, so a wait in front of the step measures only how
  /// full the queue was allowed to get.
  bool paced = false;
  /// Per-seq ingest times written by the router tap before the event is
  /// pushed; the ring queue's release/acquire hand-off makes each write
  /// visible to the worker that pops the event. Null on the single-engine
  /// path, which has no router.
  const std::vector<int64_t>* stamps = nullptr;
};

/// \brief Forwarding Shedder that times the per-event step from outside.
class ProbeShedder : public Shedder {
 public:
  ProbeShedder(std::unique_ptr<Shedder> inner, const PassContext* pass,
               ShardRecord* record, int shard)
      : inner_(std::move(inner)), pass_(pass), record_(record), shard_(shard) {}

  std::string Name() const override { return inner_->Name(); }
  double theta() const override { return inner_->theta(); }

  void Bind(Engine* engine) override {
    Shedder::Bind(engine);
    inner_->Bind(engine);
  }

  void set_obs(obs::ShardObs* o, int shard = 0) override {
    Shedder::set_obs(o, shard);
    inner_->set_obs(o, shard);
  }

  void Reset() override {
    Shedder::Reset();
    inner_->Reset();
  }

  bool FilterEvent(const Event& event) override {
    cur_ = StepSample{};
    cur_.seq = event.seq();
    cur_.shard = shard_;
    cur_.filter_in_ns = NowNs();
    sampled_ = pass_->traced && Sampled(cur_.seq);
    if (sampled_) {
      if (pass_->stamps != nullptr) {
        cur_.ingest_ns = (*pass_->stamps)[cur_.seq];
      } else if (prev_exit_ns_ > 0) {
        cur_.ingest_ns = prev_exit_ns_;
      }
    }
    const EngineStats& stats = engine_->stats();
    matches_before_ = stats.matches_emitted;
    cost_before_ = stats.total_cost;
    cur_.dropped = inner_->FilterEvent(event);
    if (sampled_) cur_.filter_out_ns = NowNs();
    return cur_.dropped;
  }

  void AfterEvent(Timestamp now, double mu) override {
    const EngineStats& stats = engine_->stats();
    const uint64_t found = stats.matches_emitted - matches_before_;
    if (found > 0 || sampled_) cur_.after_in_ns = NowNs();
    if (found > 0) {
      const int64_t since =
          pass_->paced ? (*pass_->stamps)[cur_.seq] : cur_.filter_in_ns;
      record_->detect_us.insert(record_->detect_us.end(), found,
                                static_cast<double>(cur_.after_in_ns - since) / 1e3);
    }
    cur_.cost_units = stats.total_cost - cost_before_;
    inner_->AfterEvent(now, mu);
    events_dropped_ = inner_->events_dropped();
    pms_shed_ = inner_->pms_shed();
    if (!pass_->traced) return;
    record_->peak_state_bytes =
        std::max(record_->peak_state_bytes, engine_->ApproxStateBytes());
    record_->expiry_reaped = engine_->store().ExpiryReapedTotal();
    if (sampled_) {
      cur_.after_out_ns = NowNs();
      record_->steps.push_back(cur_);
    }
    if (pass_->stamps == nullptr && Sampled(cur_.seq + 1)) prev_exit_ns_ = NowNs();
  }

 private:
  std::unique_ptr<Shedder> inner_;
  const PassContext* pass_;
  ShardRecord* record_;
  int shard_;
  StepSample cur_;
  bool sampled_ = false;
  uint64_t matches_before_ = 0;
  double cost_before_ = 0.0;
  int64_t prev_exit_ns_ = 0;
};

}  // namespace cepshed::pipeline

#endif  // CEPSHED_BENCH_PIPELINE_PROBE_SHEDDER_H_
