#include <gtest/gtest.h>

#include <cmath>

#include "media/audio.h"
#include "media/audio_codec.h"

namespace vc::media {
namespace {

TEST(VoiceSynth, DeterministicAndSized) {
  const auto a = synthesize_voice(2.0, 42);
  const auto b = synthesize_voice(2.0, 42);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.samples.size(), 32'000u);
  EXPECT_NEAR(a.duration_sec(), 2.0, 1e-9);
}

TEST(VoiceSynth, DifferentSeedsDiffer) {
  const auto a = synthesize_voice(1.0, 1);
  const auto b = synthesize_voice(1.0, 2);
  EXPECT_NE(a.samples, b.samples);
}

TEST(VoiceSynth, HasVoicedAndSilentSegments) {
  const auto v = synthesize_voice(5.0, 7);
  // 100 ms windows: some loud (syllables), some quiet (pauses).
  const std::size_t win = 1600;
  int loud = 0;
  int quiet = 0;
  for (std::size_t i = 0; i + win <= v.samples.size(); i += win) {
    double acc = 0;
    for (std::size_t k = 0; k < win; ++k) acc += std::abs(v.samples[i + k]);
    ((acc / win > 0.05) ? loud : quiet) += 1;
  }
  EXPECT_GT(loud, 5);
  EXPECT_GT(quiet, 3);
}

TEST(Loudness, NormalizesRms) {
  auto v = synthesize_voice(1.0, 3);
  normalize_loudness(v, 0.1);
  EXPECT_NEAR(v.rms(), 0.1, 1e-6);
}

TEST(Loudness, SilenceUntouched) {
  AudioSignal s;
  s.samples.assign(1600, 0.0F);
  normalize_loudness(s, 0.1);
  EXPECT_DOUBLE_EQ(s.rms(), 0.0);
}

TEST(OffsetFinder, RecoversKnownShift) {
  const auto ref = synthesize_voice(3.0, 11);
  // Delay by 4000 samples (250 ms).
  AudioSignal delayed;
  delayed.sample_rate = ref.sample_rate;
  delayed.samples.assign(4000, 0.0F);
  delayed.samples.insert(delayed.samples.end(), ref.samples.begin(), ref.samples.end());
  const auto offset = find_offset_samples(ref, delayed, 8000);
  // Envelope hop is 10 ms (160 samples): allow one hop of error.
  EXPECT_NEAR(static_cast<double>(offset), 4000.0, 200.0);
}

TEST(OffsetFinder, ZeroForAlignedSignals) {
  const auto ref = synthesize_voice(2.0, 13);
  EXPECT_NEAR(static_cast<double>(find_offset_samples(ref, ref, 4000)), 0.0, 1.0);
}

TEST(Shifted, AppliesShiftAndPads) {
  AudioSignal s;
  s.sample_rate = 16'000;
  for (int i = 0; i < 10; ++i) s.samples.push_back(static_cast<float>(i));
  const auto out = shifted(s, 3, 10);
  EXPECT_FLOAT_EQ(out.samples[0], 3.0F);
  EXPECT_FLOAT_EQ(out.samples[6], 9.0F);
  EXPECT_FLOAT_EQ(out.samples[7], 0.0F);  // past the end: silence
  const auto neg = shifted(s, -2, 5);
  EXPECT_FLOAT_EQ(neg.samples[0], 0.0F);
  EXPECT_FLOAT_EQ(neg.samples[2], 0.0F);
  EXPECT_FLOAT_EQ(neg.samples[3], 1.0F);
}

TEST(AudioCodec, FrameSizing) {
  AudioEncoder enc{{DataRate::kbps(64), 16'000}};
  EXPECT_EQ(enc.frame_samples(), 320);
  const auto voice = synthesize_voice(0.1, 5);
  const auto frame = enc.encode(std::span<const float>{voice.samples.data(), 320});
  // 64 Kbps × 20 ms = 160 bytes budget.
  EXPECT_LE(frame->bytes, 165);
  EXPECT_GT(frame->bytes, 20);
}

TEST(AudioCodec, RoundTripPreservesSignalShape) {
  AudioEncoder enc{{DataRate::kbps(96), 16'000}};
  AudioDecoder dec{320};
  const auto voice = synthesize_voice(0.5, 21);
  double err = 0;
  double energy = 0;
  for (int f = 0; f < 20; ++f) {
    const std::span<const float> in{voice.samples.data() + f * 320, 320};
    const auto decoded = dec.decode(*enc.encode(in));
    for (int i = 0; i < 320; ++i) {
      err += (decoded[static_cast<std::size_t>(i)] - in[static_cast<std::size_t>(i)]) *
             (decoded[static_cast<std::size_t>(i)] - in[static_cast<std::size_t>(i)]);
      energy += in[static_cast<std::size_t>(i)] * in[static_cast<std::size_t>(i)];
    }
  }
  EXPECT_LT(err, 0.25 * energy);  // most of the energy preserved
}

TEST(AudioCodec, HigherBitrateLowerError) {
  const auto voice = synthesize_voice(0.5, 23);
  auto total_error = [&](double kbps) {
    AudioEncoder enc{{DataRate::kbps(kbps), 16'000}};
    AudioDecoder dec{320};
    double err = 0;
    for (int f = 0; f < 20; ++f) {
      const std::span<const float> in{voice.samples.data() + f * 320, 320};
      const auto decoded = dec.decode(*enc.encode(in));
      for (int i = 0; i < 320; ++i) {
        const double d = decoded[static_cast<std::size_t>(i)] - in[static_cast<std::size_t>(i)];
        err += d * d;
      }
    }
    return err;
  };
  EXPECT_LT(total_error(96), total_error(16));
}

TEST(AudioCodec, ConcealmentIsSilence) {
  AudioDecoder dec{320};
  const auto out = dec.conceal();
  ASSERT_EQ(out.size(), 320u);
  for (float s : out) EXPECT_FLOAT_EQ(s, 0.0F);
}

TEST(AudioCodec, WrongFrameSizeThrows) {
  AudioEncoder enc{{DataRate::kbps(64), 16'000}};
  std::vector<float> wrong(100, 0.0F);
  EXPECT_THROW(enc.encode(wrong), std::invalid_argument);
}

}  // namespace
}  // namespace vc::media
