// Flight-recorder tracing for the simulator.
//
// A Tracer is a per-session ring buffer of sim-time trace records — spans
// (an activity with a begin and an end), instants (a point event), and
// counters (a sampled value). The design goals, in order:
//
//  1. Zero cost when off. Components hold a `Tracer*` that is nullptr by
//     default, and off is that null pointer: each record site is one branch
//     on it. A tracer that exists records.
//  2. Zero allocation on the hot path. The ring is preallocated; names are
//     interned `const char*` (string literals, or strings pinned through
//     `intern()` off the hot path); a record is 32 bytes.
//  3. Deterministic output. Timestamps are sim-time, every record is written
//     on the session's event-loop thread, and each session owns its tracer —
//     so the exported trace is byte-identical across runner thread counts
//     (see DESIGN.md §6).
//
// When the ring wraps, the oldest records are overwritten and a dropped
// counter keeps the total honest (flight-recorder semantics: you always keep
// the *latest* window of activity). Export is Chrome trace-event JSON, which
// loads directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/time.h"

namespace vc {

class Tracer {
 public:
  enum class Phase : std::uint8_t { kSpan = 0, kInstant = 1, kCounter = 2 };

  /// One trace record. `name` must outlive the tracer (string literal or a
  /// string pinned via intern()). `value` is a small payload — batch size,
  /// queue depth, milliseconds — carried in the exported event's args.
  struct Record {
    const char* name;
    std::int64_t ts_us;
    std::int64_t dur_us;  // 0 for instants and counters
    float value;
    Phase phase;
  };
  static_assert(sizeof(Record) <= 32, "trace records must stay cache-friendly");

  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  void span(const char* name, SimTime begin, SimTime end, double value = 0.0) {
    push(name, begin.micros(), (end - begin).micros(), value, Phase::kSpan);
  }
  void instant(const char* name, SimTime at, double value = 0.0) {
    push(name, at.micros(), 0, value, Phase::kInstant);
  }
  void counter(const char* name, SimTime at, double value) {
    push(name, at.micros(), 0, value, Phase::kCounter);
  }

  /// Pins a dynamically-built name for the lifetime of this tracer and
  /// returns a stable pointer usable in record calls. NOT for hot paths —
  /// intern once at attach time, like metric instruments are resolved once.
  const char* intern(const std::string& name);

  std::size_t capacity() const { return ring_.size(); }
  /// Total records ever pushed (kept + dropped).
  std::uint64_t recorded() const { return total_; }
  /// Records overwritten because the ring wrapped.
  std::uint64_t dropped() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }
  /// Records currently held in the ring.
  std::size_t size() const {
    return total_ < ring_.size() ? static_cast<std::size_t>(total_) : ring_.size();
  }
  std::uint64_t spans_recorded() const { return span_count_; }
  std::uint64_t instants_recorded() const { return instant_count_; }
  std::uint64_t counters_recorded() const { return counter_count_; }

  /// Forget every record (drop/total counters included); keeps capacity and
  /// interned names.
  void clear();

  /// Calls `fn(const Record&)` for each held record, oldest first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = size();
    const std::size_t cap = ring_.size();
    // Oldest record: head_ when wrapped, 0 otherwise.
    const std::size_t start = total_ > cap ? head_ : 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t idx = start + i;
      if (idx >= cap) idx -= cap;
      fn(ring_[idx]);
    }
  }

  /// Chrome trace-event JSON (the `{"traceEvents": [...]}` object form).
  /// Spans export as ph:"X" complete events, instants as ph:"i", counters as
  /// ph:"C". Names are JSON-escaped; `otherData` carries the drop counter.
  std::string to_chrome_json() const;

 private:
  void push(const char* name, std::int64_t ts, std::int64_t dur, double value, Phase phase) {
    Record& r = ring_[head_];
    r.name = name;
    r.ts_us = ts;
    r.dur_us = dur;
    r.value = static_cast<float>(value);
    r.phase = phase;
    if (++head_ == ring_.size()) head_ = 0;
    ++total_;
    switch (phase) {
      case Phase::kSpan: ++span_count_; break;
      case Phase::kInstant: ++instant_count_; break;
      case Phase::kCounter: ++counter_count_; break;
    }
  }

  std::vector<Record> ring_;
  std::size_t head_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t span_count_ = 0;
  std::uint64_t instant_count_ = 0;
  std::uint64_t counter_count_ = 0;
  /// Storage for intern(): deque never relocates elements.
  std::deque<std::string> interned_;
};

}  // namespace vc
