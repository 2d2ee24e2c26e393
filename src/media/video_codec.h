// Toy block-transform video codec.
//
// This is a real codec, not a size model: frames are split into 8×8 blocks,
// predicted (intra flat / inter from the previous *reconstructed* frame),
// DCT-transformed, quantized, and entropy-sized; the decoder inverts the
// pipeline bit-exactly from the quantized coefficients. It shares the two
// properties of production codecs that the paper's QoE findings rest on:
//   1. low-motion content costs far fewer bits at equal quality (Finding 3),
//   2. quality degrades smoothly as rate control raises the quantizer to meet
//      a bitrate target, and collapses when frames are lost (Figs 12, 17).
//
// The encoded byte size is an entropy estimate over the quantized
// coefficients rather than a literal bitstream; packetization uses that size
// on the wire, while decoding uses the coefficients carried alongside.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "media/frame.h"
#include "net/packet.h"

namespace vc::media {

inline constexpr int kBlock = 8;

/// Per-block prediction mode.
enum class BlockMode : std::uint8_t { kIntra = 0, kInter = 1 };

/// Rounds half away from zero: std::lround without the libm call, and equal
/// to it for |c| < 2^52, where c - trunc(c) is exact. The quantizer rounds
/// every coefficient with it.
inline long round_half_away(double c) {
  const auto t = static_cast<long>(c);
  const double frac = c - static_cast<double>(t);
  return t + (frac >= 0.5 ? 1 : 0) - (frac <= -0.5 ? 1 : 0);
}

/// A compressed frame. Immutable after encoding; shared between fan-out
/// copies when a relay forwards the stream to multiple receivers.
struct EncodedFrame final : public net::PacketPayload {
  int width = 0;
  int height = 0;
  bool keyframe = false;
  double qstep = 0.0;
  /// Modeled compressed size of the quality payload.
  std::int64_t bytes = 0;
  /// Size on the wire including FEC/redundancy padding added by the sending
  /// client (>= bytes). Real VCA streams are near-CBR at the policy rate:
  /// the codec payload is only part of it.
  std::int64_t wire_bytes = 0;
  /// Display sequence number assigned by the encoder.
  std::int64_t sequence = 0;
  /// SKIP accounting: blocks coded as SKIP (early-skip copy or all-zero
  /// inter residual) out of total_blocks. skip_blocks/total_blocks is the
  /// frame's SKIP ratio — near 1.0 on static content (Finding 3).
  std::int32_t skip_blocks = 0;
  std::int32_t total_blocks = 0;
  std::vector<std::int16_t> coeffs;   // block-major, 64 per block
  std::vector<BlockMode> modes;       // one per block
};

class VideoEncoder {
 public:
  struct Config {
    DataRate target_bitrate = DataRate::kbps(800);
    double fps = 15.0;
    /// A keyframe every this many frames (and at stream start).
    int keyframe_interval = 60;
    double min_qstep = 0.1;
    double max_qstep = 160.0;
  };

  VideoEncoder(int width, int height, Config cfg);

  /// Changes the bitrate target mid-stream (rate adaptation).
  void set_target_bitrate(DataRate rate);
  DataRate target_bitrate() const { return cfg_.target_bitrate; }

  /// Encodes the next frame in display order. (Mutable so the sending
  /// client can stamp wire_bytes; treat as immutable once transmitted.)
  std::shared_ptr<EncodedFrame> encode(const Frame& frame);

  /// The encoder's own reconstruction of the last frame (what a decoder
  /// with no losses would show).
  const Frame& last_reconstructed() const { return recon_; }
  double current_qstep() const { return qstep_; }

 private:
  /// Per-block outcome of the mode decision.
  enum class BlockPlan : std::uint8_t { kSkip, kInter, kIntra };
  struct PassResult {
    std::int64_t bits = 0;
    std::int32_t skip_blocks = 0;
    std::int32_t total_blocks = 0;
  };
  /// The qstep-independent half of encoding: decides every block's mode into
  /// plan_ and writes the residual DCT of each coded block to `dct` (64
  /// doubles per block). Returns true when every block took the SAD-SKIP
  /// path.
  bool analyze(const Frame& frame, bool keyframe, double* dct);
  /// Quantizes the analysed frame at `qstep` and sizes it. With `out` (the
  /// real pass) it also emits the frame and updates recon_ in place: a block
  /// predicts only from its own pixels of the reference, so it may overwrite
  /// them once read.
  PassResult quantize(const double* dct, double qstep, EncodedFrame* out);
  /// Pooled EncodedFrame: recycles a previously returned frame once the
  /// caller has dropped it (use_count()==1), else allocates. Keeps the
  /// steady-state encode path allocation-free without ever mutating a frame
  /// a consumer still holds.
  std::shared_ptr<EncodedFrame> acquire_output_frame();

  int width_;
  int height_;
  Config cfg_;
  Frame recon_;  // closed-loop reference
  // The last input, valid while static_input_: that frame was all SAD-SKIP,
  // so a repeat of it meets the same reference and needs no analysis.
  Frame last_input_;
  bool static_input_ = false;
  std::vector<BlockPlan> plan_;  // from the last analyze(), one per block
  std::array<std::shared_ptr<EncodedFrame>, 4> frame_pool_;
  double qstep_ = 10.0;
  std::int64_t next_seq_ = 0;
  double buffer_bits_ = 0.0;  // virtual buffer fullness for rate control
};

class VideoDecoder {
 public:
  VideoDecoder(int width, int height);

  /// Decodes a frame. The decoder tolerates gaps: a missing frame is simply
  /// never passed in, and the previously decoded frame stays on screen
  /// (freeze) — callers render current() at display times.
  const Frame& decode(const EncodedFrame& frame);

  const Frame& current() const { return current_; }
  std::int64_t frames_decoded() const { return frames_decoded_; }

 private:
  int width_;
  int height_;
  Frame current_;
  Frame scratch_;  // decode target, swapped into current_ per frame
  std::int64_t frames_decoded_ = 0;
};

}  // namespace vc::media
