// Toy transform audio codec (Opus stand-in).
//
// 20 ms frames are DCT-transformed; the bit budget per frame (from the
// target bitrate) buys the top-magnitude coefficients, quantized. Decoding
// inverts exactly; lost frames decode to silence — the dropout artifact the
// paper hears on Webex under tight bandwidth caps (Fig 18).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/units.h"
#include "media/audio.h"
#include "net/packet.h"

namespace vc::media {

struct EncodedAudioFrame final : public net::PacketPayload {
  int sample_rate = 16'000;
  int frame_samples = 320;
  std::int64_t sequence = 0;
  /// Modeled compressed size.
  std::int64_t bytes = 0;
  double qstep = 1.0;
  std::vector<std::uint16_t> indices;  // kept coefficient positions
  std::vector<std::int16_t> values;    // quantized values, parallel to indices
};

class AudioEncoder {
 public:
  struct Config {
    DataRate bitrate = DataRate::kbps(64);
    int sample_rate = 16'000;
  };

  explicit AudioEncoder(Config cfg);

  int frame_samples() const { return frame_samples_; }
  DataRate bitrate() const { return cfg_.bitrate; }

  /// Encodes exactly frame_samples() samples.
  std::shared_ptr<const EncodedAudioFrame> encode(std::span<const float> samples);

 private:
  Config cfg_;
  int frame_samples_;
  std::int64_t next_seq_ = 0;
};

class AudioDecoder {
 public:
  explicit AudioDecoder(int frame_samples) : frame_samples_(frame_samples) {}

  /// Decodes one frame to PCM.
  std::vector<float> decode(const EncodedAudioFrame& frame) const;
  /// Concealment output for a lost frame (silence).
  std::vector<float> conceal() const { return std::vector<float>(frame_samples_, 0.0F); }

 private:
  int frame_samples_;
};

}  // namespace vc::media
