// Layer probes for vcperf's traced run: each times calls into one layer's
// public entry point, at the parameters a workload uses, from outside the
// simulator. Spans are recorded in the benchmark's own files; nothing inside
// src/ is instrumented.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace vcperf {

enum Layer : int {
  kFeeds,
  kEncode,
  kDecode,
  kAudio,
  kAlign,
  kQoe,
  kLoop,
  kLink,
  kShaper,
  kRelay,
  kTrunk,
  kAbr,
  kLayerCount,
};

inline constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "media.feeds", "media.encode", "media.decode", "media.audio",    "media.align", "media.qoe",
    "net.loop",    "net.link",     "net.shaper",   "platform.relay", "fleet.trunk", "abr",
};

/// Wall-clock spans in Chrome trace-event form ("ph":"X"), kept in memory
/// and written once when the traced run ends.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  void add(std::string name, Clock::time_point begin, Clock::time_point end);
  /// {"traceEvents":[{"name","ph":"X","ts","dur","pid","tid"}...]}, ts in µs
  /// since the log was created.
  std::string to_chrome_json() const;

 private:
  struct Span {
    std::string name;
    double ts_us = 0.0;
    double dur_us = 0.0;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// The workload-specific inputs of every probe. Sizes are the workload's own:
/// the sent feed's content size and padding, the receiver count a relay
/// copies to, the queue depth the event loop runs at, and so on.
struct ProbeParams {
  /// The content senders play: the lag feed (FlashFeed), the low-motion
  /// TalkingHeadFeed, the high-motion TourGuideFeed, or both motions in equal
  /// parts (each probe then alternates calls between the two).
  enum class Feed { kFlash, kLowMotion, kHighMotion, kBothMotions };
  Feed feed = Feed::kFlash;
  int feed_width = 160;
  int feed_height = 120;
  int padding = 0;
  /// Frames one sender plays in a task: the feed probe cycles through them,
  /// and a receiver's recording (media.align's input) is this long.
  int media_frames = 120;
  /// Encoder target: the client's initial 600 kbps, or a flow's share of a
  /// shared bottleneck.
  double encode_kbps = 600.0;
  /// Receivers each sent packet or frame reaches: a relay ingest's
  /// participant copies, an audio frame's decodes.
  int receivers = 7;
  /// Pending events the loop probe holds (the workload's measured queue-depth
  /// high-water mark when it exposes one).
  int loop_depth = 64;
};

/// Returns the best ns per call of `layer`'s public entry point over five
/// timed rounds of at least 100 ms each, after one untimed warm-up round.
/// Then, when `calls_per_task` >= 1, makes one task's worth of calls again as
/// one span named after the layer: laid beside the task spans, these show
/// where a task's wall time goes.
double probe_layer(Layer layer, const ProbeParams& params, double calls_per_task, SpanLog& log);

}  // namespace vcperf
