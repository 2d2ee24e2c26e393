#include "net/event_loop.h"

#include <algorithm>

namespace vc::net {

namespace {

// Min ordering on (at_us, id): ids embed the monotonic schedule counter in
// their high bits, so the tie-break keeps simultaneous events FIFO. Entries
// are 16 bytes — four per cache line — which is what keeps deep sifts cheap.
bool fires_before(const auto& a, const auto& b) {
  if (a.at_us != b.at_us) return a.at_us < b.at_us;
  return a.id < b.id;
}

// The same order as one 128-bit key, for a comparison without a branch.
// at_us is never negative (schedule_at clamps to now, which starts at
// zero), so its bits as unsigned order the same way.
unsigned __int128 order_key(const auto& e) {
  return static_cast<unsigned __int128>(static_cast<std::uint64_t>(e.at_us)) << 64 | e.id;
}

}  // namespace

EventLoop::EventLoop(const Instruments& instruments) : tracer_(instruments.tracer) {
  if (instruments.metrics != nullptr) {
    m_executed_ = &instruments.metrics->counter("net.loop.events_executed");
    m_depth_hwm_ = &instruments.metrics->gauge("net.loop.queue_depth_hwm");
  }
}

// Hand-rolled binary min-heap. Layout: children of i are 2i+1, 2i+2.

void EventLoop::push_heap_entry() {
  std::size_t i = heap_.size() - 1;
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 1;
    if (!fires_before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventLoop::pop_heap_entry() {
  // Like std::pop_heap: moves the minimum to heap_.back(), restoring the
  // heap property on the first n-1 elements. Bottom-up variant: walk the
  // hole to a leaf along the min-child path without comparing against the
  // displaced tail element, then bubble that element up from the leaf. In
  // the loop's steady state the tail is the most recently scheduled (thus
  // max-seq) entry, so the bubble-up almost always terminates immediately —
  // saving the per-level "done yet?" comparison a top-down sift pays. The
  // min child is picked arithmetically: which child fires first is a coin
  // flip the branch predictor loses at every level.
  const std::size_t n = heap_.size() - 1;
  const HeapEntry top = heap_[0];
  if (n > 0) {
    const HeapEntry e = heap_[n];
    std::size_t i = 0;
    for (;;) {
      std::size_t child = (i << 1) + 1;
      if (child >= n) break;
      if (child + 1 < n) child += order_key(heap_[child + 1]) < order_key(heap_[child]);
      heap_[i] = heap_[child];
      i = child;
    }
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 1;
      if (!fires_before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }
  heap_[n] = top;
}

void EventLoop::cancel(EventId id) {
  // Id 0 is never issued but is the value of a default-initialized handle
  // (and of every free slot's `id`), so it must be rejected here: letting it
  // through would "match" a free slot 0 and double-free it into the free
  // list, corrupting the slab.
  if (id == 0) return;
  const std::uint32_t slot = static_cast<std::uint32_t>(id) & kSlotMask;
  if (slot >= slot_count_) return;
  Slot& s = slot_ref(slot);
  if (s.id != id) return;  // already fired/cancelled, or the slot was reused
  release_slot(slot);
  // The heap record stays behind; its id no longer matches the slot, so
  // execute_ready() discards it when it surfaces.
}

void EventLoop::execute_ready(SimTime until) {
  const std::int64_t until_us = until.micros();
  while (!heap_.empty() && heap_.front().at_us <= until_us) {
    pop_heap_entry();
    const HeapEntry e = heap_.back();
    heap_.pop_back();
    const std::uint32_t slot = static_cast<std::uint32_t>(e.id) & kSlotMask;
    Slot& s = slot_ref(slot);
    if (s.id != e.id) continue;  // cancelled
    // Disarm, then invoke in place — no move of the callback. The slot is
    // off the free list during the call so it cannot be reused under us,
    // cancel() of this event's id is already inert, and chunked slot storage
    // means a callback that grows the slab never relocates itself.
    s.id = 0;
    --pending_;
    now_ = SimTime{e.at_us};
    ++executed_;
    if (m_executed_ != nullptr) m_executed_->inc();
    if (tracer_ != nullptr) {
      tracer_->span("loop.exec", now_, now_, static_cast<double>(pending_));
      if ((executed_ & 63u) == 0) {
        tracer_->counter("loop.queue_depth", now_, static_cast<double>(pending_));
      }
    }
    try {
      s.fn.invoke();
    } catch (...) {
      s.fn.reset();
      free_slots_.push_back(slot);
      throw;
    }
    s.fn.reset();
    free_slots_.push_back(slot);
  }
}

void EventLoop::run() { execute_ready(SimTime::infinity()); }

void EventLoop::run_until(SimTime until) {
  execute_ready(until);
  if (now_ < until) now_ = until;
}

}  // namespace vc::net
