#include "media/video_codec.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "media/dct8.h"

namespace vc::media {
namespace {

using Block = std::array<double, kBlock * kBlock>;

// Table-driven quantization: kQuant.weight is the frequency-weighted step
// multiplier (1.0 + 0.12·(u+v), like JPEG/H.26x matrices) and kQuant.bits
// the entropy estimate for one quantized coefficient (sign + magnitude
// prefix). Both tables are generated from the exact expressions the hot
// loop used to evaluate per coefficient — 2 + ⌊2·log2(1+|q|)⌋ cost a log2
// per coefficient per pass — so every encoded bit count is unchanged.
struct QuantTables {
  double weight[kBlock * kBlock];
  std::uint8_t bits[32769];  // index |q|, q clamped to int16 so |q| <= 32768
  QuantTables() {
    for (int v = 0; v < kBlock; ++v) {
      for (int u = 0; u < kBlock; ++u) weight[v * kBlock + u] = 1.0 + 0.12 * (u + v);
    }
    bits[0] = 0;
    for (int m = 1; m <= 32768; ++m) {
      const double mag = static_cast<double>(m);
      bits[m] = static_cast<std::uint8_t>(2 + static_cast<std::int64_t>(2.0 * std::log2(1.0 + mag)));
    }
  }
};
const QuantTables kQuant;

// SKIP threshold: ~1.5 luma units/pixel. SAD sums of 8-bit pixels are exact
// small integers, so integer accumulation reproduces the historical double
// accumulation bit-for-bit in any order.
constexpr std::int32_t kSkipSad = 96;

std::int64_t div_round_up(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

// Residual DCT coefficients of the frame being encoded, 64 per block. One
// buffer per thread rather than per encoder keeps a city's many encoders
// from each holding a frame's worth of doubles: analyze() fills it and the
// two quantize() passes of the same encode() read it, so encoders sharing a
// thread never observe each other's contents. It only grows.
double* thread_dct_buffer(std::size_t doubles) {
  thread_local std::vector<double> buffer;
  if (buffer.size() < doubles) buffer.resize(doubles);
  return buffer.data();
}

}  // namespace

VideoEncoder::VideoEncoder(int width, int height, Config cfg)
    : width_(width), height_(height), cfg_(cfg), recon_(width, height, 0),
      last_input_(width, height, 0) {
  if (width % kBlock != 0 || height % kBlock != 0) {
    throw std::invalid_argument{"frame dimensions must be multiples of 8"};
  }
  if (cfg_.fps <= 0.0 || cfg_.keyframe_interval <= 0) throw std::invalid_argument{"bad encoder config"};
  plan_.assign(static_cast<std::size_t>(width / kBlock) * (height / kBlock), BlockPlan::kIntra);
}

void VideoEncoder::set_target_bitrate(DataRate rate) { cfg_.target_bitrate = rate; }

bool VideoEncoder::analyze(const Frame& frame, bool keyframe, double* dct) {
  const BlockKernels& kern = block_kernels();
  const int bx = width_ / kBlock;
  const int by = height_ / kBlock;
  alignas(32) Block residual;
  const std::uint8_t* fdata = frame.data();
  const std::uint8_t* rdata = recon_.data();
  const int stride = width_;
  bool all_skip = true;
  for (int byi = 0; byi < by; ++byi) {
    for (int bxi = 0; bxi < bx; ++bxi) {
      const std::size_t k = static_cast<std::size_t>(byi) * bx + bxi;
      const int x0 = bxi * kBlock;
      const int y0 = byi * kBlock;
      const std::uint8_t* fblock = fdata + static_cast<std::size_t>(y0) * stride + x0;
      const std::uint8_t* rblock = rdata + static_cast<std::size_t>(y0) * stride + x0;
      // Mode decision by SAD against each predictor. On keyframes the mode
      // is forced intra, so neither SAD is needed at all; otherwise the
      // inter SAD may stop once it exceeds the (complete) intra SAD —
      // SADs are monotone in pixels covered, so a partial sum past the
      // intra SAD already decides the comparison and no quantity derived
      // from the exact inter total is ever used on that path.
      bool inter = false;
      if (!keyframe) {
        const std::int32_t sad_intra = kern.sad_flat(fblock, stride);
        const std::int32_t sad_inter = kern.sad(fblock, rblock, stride, sad_intra);
        inter = sad_inter <= sad_intra;
        // SKIP decision before the transform: when the block barely differs
        // from the reference, copy it (real codecs' SKIP mode). Without
        // this, the encoder would spend bits forever chasing its own
        // quantization noise on static content — and a "blank" screen would
        // never go quiet on the wire, breaking the premise of the paper's
        // lag measurement.
        if (inter && sad_inter < kSkipSad) {
          plan_[k] = BlockPlan::kSkip;
          continue;
        }
      }
      all_skip = false;
      plan_[k] = inter ? BlockPlan::kInter : BlockPlan::kIntra;
      kern.residual(fblock, inter ? rblock : nullptr, stride, residual.data());
      kern.dct(residual.data(), dct + k * kBlock * kBlock);
    }
  }
  return all_skip;
}

VideoEncoder::PassResult VideoEncoder::quantize(const double* dct, double qstep,
                                                EncodedFrame* out) {
  const BlockKernels& kern = block_kernels();
  const int bx = width_ / kBlock;
  const int by = height_ / kBlock;
  PassResult res;
  if (out != nullptr) {
    // assign() within retained capacity: allocation-free after first use.
    out->coeffs.assign(static_cast<std::size_t>(bx) * by * kBlock * kBlock, 0);
    out->modes.assign(static_cast<std::size_t>(bx) * by, BlockMode::kIntra);
  }
  alignas(32) Block step, deq, rec;
  for (int i = 0; i < kBlock * kBlock; ++i) step[i] = qstep * kQuant.weight[i];
  const int stride = width_;
  for (int byi = 0; byi < by; ++byi) {
    for (int bxi = 0; bxi < bx; ++bxi) {
      const std::size_t k = static_cast<std::size_t>(byi) * bx + bxi;
      const int x0 = bxi * kBlock;
      const int y0 = byi * kBlock;
      ++res.total_blocks;
      if (plan_[k] == BlockPlan::kSkip) {
        // A SKIP block copies its reference: recon_ already holds it.
        res.bits += 1;
        ++res.skip_blocks;
        if (out != nullptr) out->modes[k] = BlockMode::kInter;
        continue;
      }
      const bool inter = plan_[k] == BlockPlan::kInter;
      std::int16_t trial_q[kBlock * kBlock];
      std::int16_t* q = out != nullptr ? out->coeffs.data() + k * kBlock * kBlock : trial_q;
      const bool nonzero = kern.quantize(dct + k * kBlock * kBlock, step.data(), q);
      std::int64_t block_bits = 10;  // mode + qdelta + EOB overhead
      if (nonzero) {
        for (int i = 0; i < kBlock * kBlock; ++i) {
          block_bits += kQuant.bits[q[i] < 0 ? -static_cast<int>(q[i]) : static_cast<int>(q[i])];
        }
      } else if (inter) {
        // Skip-block coding: an inter block with an all-zero residual costs
        // a fraction of a bit (run-length coded), like real codecs' SKIP
        // mode — this is what makes a static scene nearly free (Finding 3)
        // and keeps the blank frames of the lag feed under the big-packet
        // threshold.
        block_bits = 1;
        ++res.skip_blocks;
      }
      res.bits += block_bits;
      if (out != nullptr) {
        out->modes[k] = inter ? BlockMode::kInter : BlockMode::kIntra;
        kern.dequantize(q, step.data(), deq.data());
        kern.idct(deq.data(), rec.data());
        std::uint8_t* rblock = recon_.data() + static_cast<std::size_t>(y0) * stride + x0;
        kern.reconstruct(rec.data(), inter ? rblock : nullptr, rblock, stride);
      }
    }
  }
  return res;
}

std::shared_ptr<EncodedFrame> VideoEncoder::acquire_output_frame() {
  // Recycle a pooled frame once its last external reference is gone: the
  // coeffs/modes capacity survives, so the steady-state encode path makes
  // zero heap allocations (tests/media/test_codec_hotpath.cpp). A frame the
  // caller still holds is never touched — a fresh one is allocated instead —
  // so recycling cannot change any encoded bit.
  for (auto& slot : frame_pool_) {
    if (slot == nullptr) {
      slot = std::make_shared<EncodedFrame>();
      return slot;
    }
    if (slot.use_count() == 1) return slot;
  }
  return std::make_shared<EncodedFrame>();
}

std::shared_ptr<EncodedFrame> VideoEncoder::encode(const Frame& frame) {
  if (frame.width() != width_ || frame.height() != height_) {
    throw std::invalid_argument{"frame size does not match encoder"};
  }
  const bool keyframe = next_seq_ % cfg_.keyframe_interval == 0;
  const double per_frame_budget =
      static_cast<double>(cfg_.target_bitrate.bits_per_second()) / cfg_.fps;
  // Keyframes may spend a few frames' budget; the virtual buffer charges the
  // overdraft to subsequent frames.
  const double frame_target = per_frame_budget * (keyframe ? 3.0 : 1.0);

  // Analysis does not depend on qstep, so both passes below share it. A
  // non-keyframe repeating the input of an all-SAD-SKIP frame meets the
  // same, unchanged reference, so every block SAD repeats: plan_ still
  // holds its all-SKIP plan and the analysis is skipped.
  double* dct = thread_dct_buffer(plan_.size() * kBlock * kBlock);
  const bool repeat = !keyframe && static_input_ && frame == last_input_;
  const bool all_skip = repeat || analyze(frame, keyframe, dct);

  // Trial pass at the current quantizer, then one corrective pass.
  const PassResult trial = quantize(dct, qstep_, nullptr);
  double q = qstep_;
  if (trial.bits > 0 && frame_target > 0) {
    const double ratio = static_cast<double>(trial.bits) / frame_target;
    q = std::clamp(qstep_ * std::pow(ratio, 0.8), cfg_.min_qstep, cfg_.max_qstep);
  }

  auto out = acquire_output_frame();
  out->width = width_;
  out->height = height_;
  out->keyframe = keyframe;
  out->qstep = q;
  out->sequence = next_seq_++;
  const PassResult real = quantize(dct, q, out.get());
  out->bytes = std::max<std::int64_t>(div_round_up(real.bits, 8), 64);
  out->wire_bytes = out->bytes;
  out->skip_blocks = real.skip_blocks;
  out->total_blocks = real.total_blocks;
  if (all_skip && !repeat) std::copy(frame.data(), frame.data() + frame.size(), last_input_.data());
  static_input_ = all_skip;

  // Buffer feedback nudges the starting quantizer of the next frame.
  buffer_bits_ += static_cast<double>(real.bits) - per_frame_budget;
  buffer_bits_ = std::max(buffer_bits_, 0.0);
  const double pressure = buffer_bits_ / (per_frame_budget * 4.0 + 1.0);
  qstep_ = std::clamp(q * (1.0 + 0.2 * pressure), cfg_.min_qstep, cfg_.max_qstep);
  return out;
}

VideoDecoder::VideoDecoder(int width, int height)
    : width_(width), height_(height), current_(width, height, 0), scratch_(width, height, 0) {
  if (width % kBlock != 0 || height % kBlock != 0) {
    throw std::invalid_argument{"frame dimensions must be multiples of 8"};
  }
}

const Frame& VideoDecoder::decode(const EncodedFrame& frame) {
  if (frame.width != width_ || frame.height != height_) {
    throw std::invalid_argument{"encoded frame size does not match decoder"};
  }
  const BlockKernels& kern = block_kernels();
  const int bx = width_ / kBlock;
  const int by = height_ / kBlock;
  alignas(32) Block step, deq, rec;
  for (int i = 0; i < kBlock * kBlock; ++i) step[i] = frame.qstep * kQuant.weight[i];
  const int stride = width_;
  for (int byi = 0; byi < by; ++byi) {
    for (int bxi = 0; bxi < bx; ++bxi) {
      const std::size_t k = static_cast<std::size_t>(byi) * bx + bxi;
      const std::size_t offset = static_cast<std::size_t>(byi * kBlock) * stride + bxi * kBlock;
      kern.dequantize(frame.coeffs.data() + k * kBlock * kBlock, step.data(), deq.data());
      kern.idct(deq.data(), rec.data());
      const bool inter = frame.modes[k] == BlockMode::kInter;
      kern.reconstruct(rec.data(), inter ? current_.data() + offset : nullptr,
                       scratch_.data() + offset, stride);
    }
  }
  // Every pixel of scratch_ was just written; swap it in (the previous
  // frame becomes the next call's scratch) — no per-frame allocation.
  std::swap(current_, scratch_);
  ++frames_decoded_;
  return current_;
}

}  // namespace vc::media
