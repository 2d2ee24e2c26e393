// Regression tests for the allocation-free codec hot path: after warm-up,
// steady-state encode and decode must perform ZERO heap allocations (the
// EncodedFrame pool + persistent scratch frames + capacity-retaining
// assign() make every per-frame buffer reusable).
//
// This file lives in its own test binary (tests_codec_hotpath) because it
// replaces global operator new/delete with counting versions — that is
// process-wide and must not leak into unrelated suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "media/feeds.h"
#include "media/video_codec.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};

// Every operator delete frees here rather than one forwarding to another:
// after inlining, GCC sees `operator delete(void*)` called on malloc's
// pointer and prints -Wmismatched-new-delete; malloc paired with free is not
// flagged.
void counted_free(void* p) noexcept {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }

namespace vc::media {
namespace {

constexpr int kW = 128;
constexpr int kH = 96;

VideoEncoder::Config cfg() {
  VideoEncoder::Config c;
  c.target_bitrate = DataRate::kbps(800);
  c.fps = 10.0;
  return c;
}

// Pre-rendered frames: feed rendering allocates by design (returns Frame by
// value); the contract under test is the codec, so frames are produced
// outside the measured window.
std::vector<Frame> render_frames(int count) {
  TourGuideFeed feed{{kW, kH, 10.0, 3}};
  std::vector<Frame> frames;
  frames.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) frames.push_back(feed.frame_at(i));
  return frames;
}

TEST(CodecHotPath, EncodeIsAllocationFreeAfterWarmup) {
  const auto frames = render_frames(24);
  VideoEncoder enc{kW, kH, cfg()};
  // Warm-up: first frames populate the pool, the scratch frames, and the
  // coeffs/modes capacity (keyframe at 0 is the largest output).
  for (int i = 0; i < 8; ++i) enc.encode(frames[static_cast<std::size_t>(i)]);

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 8; i < 24; ++i) {
    auto f = enc.encode(frames[static_cast<std::size_t>(i)]);
    ASSERT_NE(f, nullptr);
    // f is dropped at scope end → the pool slot is free again next frame.
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "encode hot path allocated " << (after - before) << " times";

  // The lag-measurement feed takes every other encode path: a window over
  // all-SKIP repeats of the blank screen, a flash (frames 20-21), the
  // post-flash frame and more repeats must allocate nothing either.
  FlashFeed flash_feed{{kW, kH, 10.0, 3}};
  std::vector<Frame> flash;
  for (int i = 0; i < 30; ++i) flash.push_back(flash_feed.frame_at(i));
  VideoEncoder flash_enc{kW, kH, cfg()};
  for (int i = 0; i < 10; ++i) flash_enc.encode(flash[static_cast<std::size_t>(i)]);
  const std::uint64_t flash_before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 10; i < 30; ++i) {
    auto f = flash_enc.encode(flash[static_cast<std::size_t>(i)]);
    ASSERT_NE(f, nullptr);
  }
  const std::uint64_t flash_after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(flash_after - flash_before, 0u)
      << "flash-feed encode allocated " << (flash_after - flash_before) << " times";
}

TEST(CodecHotPath, DecodeIsAllocationFreeAfterWarmup) {
  const auto frames = render_frames(24);
  VideoEncoder enc{kW, kH, cfg()};
  std::vector<std::shared_ptr<EncodedFrame>> encoded;
  encoded.reserve(frames.size());
  // Retaining every frame forces the encoder to allocate fresh ones — the
  // pool must never recycle a frame the caller still holds.
  for (const auto& f : frames) encoded.push_back(enc.encode(f));

  VideoDecoder dec{kW, kH};
  for (int i = 0; i < 8; ++i) dec.decode(*encoded[static_cast<std::size_t>(i)]);

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 8; i < 24; ++i) dec.decode(*encoded[static_cast<std::size_t>(i)]);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "decode hot path allocated " << (after - before) << " times";
}

// The pool is an optimization, never a semantic: an encoder whose caller
// retains every output (pool always exhausted → fresh allocations) must
// produce the exact same stream as one whose caller drops frames
// immediately (pool recycles every time).
TEST(CodecHotPath, PoolRecyclingDoesNotChangeTheStream) {
  const auto frames = render_frames(20);
  VideoEncoder retain_enc{kW, kH, cfg()};
  VideoEncoder drop_enc{kW, kH, cfg()};
  std::vector<std::shared_ptr<EncodedFrame>> retained;
  for (const auto& f : frames) {
    retained.push_back(retain_enc.encode(f));
    const auto dropped = drop_enc.encode(f);
    const auto& kept = *retained.back();
    EXPECT_EQ(dropped->bytes, kept.bytes);
    EXPECT_EQ(dropped->qstep, kept.qstep);
    EXPECT_EQ(dropped->sequence, kept.sequence);
    EXPECT_EQ(dropped->keyframe, kept.keyframe);
    EXPECT_EQ(dropped->coeffs, kept.coeffs);
    EXPECT_EQ(dropped->modes, kept.modes);
  }
  // Sanity: the retained frames really are all distinct objects.
  for (std::size_t i = 0; i < retained.size(); ++i) {
    for (std::size_t j = i + 1; j < retained.size(); ++j) {
      EXPECT_NE(retained[i].get(), retained[j].get());
    }
  }
  EXPECT_EQ(retain_enc.last_reconstructed(), drop_enc.last_reconstructed());
}

// The counting operators themselves must be active, or the zero-allocation
// expectations above would pass vacuously.
TEST(CodecHotPath, CountingAllocatorIsLive) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  auto* v = new std::vector<int>(1024, 7);
  delete v;
  EXPECT_GT(g_allocs.load(std::memory_order_relaxed), before);
  EXPECT_GT(g_frees.load(std::memory_order_relaxed), 0u);
}

}  // namespace
}  // namespace vc::media
