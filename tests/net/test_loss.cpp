#include <gtest/gtest.h>

#include <memory>

#include "net/loss.h"
#include "net/network.h"

namespace vc::net {
namespace {

TEST(BernoulliLoss, MatchesAverage) {
  BernoulliLoss loss{0.2};
  EXPECT_DOUBLE_EQ(loss.average_loss(), 0.2);
  Rng rng{1};
  int drops = 0;
  for (int i = 0; i < 20'000; ++i) drops += loss.should_drop(rng) ? 1 : 0;
  EXPECT_NEAR(drops / 20'000.0, 0.2, 0.015);
}

TEST(BernoulliLoss, RejectsBadProbability) {
  EXPECT_THROW(BernoulliLoss{-0.1}, std::invalid_argument);
  EXPECT_THROW(BernoulliLoss{1.1}, std::invalid_argument);
}

TEST(GilbertElliott, StationaryAverageMatchesFormula) {
  auto ge = GilbertElliottLoss::with_average(0.05, 8.0);
  EXPECT_NEAR(ge.average_loss(), 0.05, 1e-9);
  Rng rng{2};
  int drops = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) drops += ge.should_drop(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.05, 0.01);
}

TEST(GilbertElliott, LossIsBursty) {
  // Same average loss, very different clustering: measure the probability
  // that a drop is immediately followed by another drop.
  auto burst_follow_prob = [](LossModel& model, std::uint64_t seed) {
    Rng rng{seed};
    int drops = 0;
    int follows = 0;
    bool prev = false;
    for (int i = 0; i < 300'000; ++i) {
      const bool d = model.should_drop(rng);
      if (prev) {
        ++drops;
        follows += d ? 1 : 0;
      }
      prev = d;
    }
    return drops > 0 ? static_cast<double>(follows) / drops : 0.0;
  };
  BernoulliLoss uniform{0.05};
  auto bursty = GilbertElliottLoss::with_average(0.05, 12.0);
  const double uniform_follow = burst_follow_prob(uniform, 3);
  const double bursty_follow = burst_follow_prob(bursty, 3);
  EXPECT_NEAR(uniform_follow, 0.05, 0.02);
  EXPECT_GT(bursty_follow, 4.0 * uniform_follow);
}

TEST(GilbertElliott, ExplicitParamsStationaryOccupancyIsPOverPPlusQ) {
  // With p = P(good→bad) and q = P(bad→good), the chain spends pi_bad =
  // p/(p+q) of its time in the bad state. Measure occupancy directly.
  GilbertElliottLoss::Params params;
  params.p_good_to_bad = 0.01;
  params.p_bad_to_good = 0.15;
  params.loss_good = 0.0;
  params.loss_bad = 1.0;
  GilbertElliottLoss ge{params};
  const double pi_bad = 0.01 / (0.01 + 0.15);
  EXPECT_NEAR(ge.average_loss(), pi_bad, 1e-12);  // loss_bad=1 ⇒ loss = occupancy
  Rng rng{5};
  int bad = 0;
  const int n = 400'000;
  for (int i = 0; i < n; ++i) {
    ge.should_drop(rng);
    bad += ge.in_bad_state() ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(bad) / n, pi_bad, 0.005);
}

TEST(GilbertElliott, MeanBurstLengthMatchesTarget) {
  // Bad-state sojourns are geometric with mean 1/p_bad_to_good — the
  // `mean_burst` knob of with_average().
  const double mean_burst = 7.0;
  auto ge = GilbertElliottLoss::with_average(0.05, mean_burst);
  EXPECT_NEAR(ge.params().p_bad_to_good, 1.0 / mean_burst, 1e-12);
  Rng rng{6};
  int bursts = 0;
  std::int64_t bad_packets = 0;
  bool prev_bad = false;
  for (int i = 0; i < 600'000; ++i) {
    ge.should_drop(rng);
    const bool bad = ge.in_bad_state();
    if (bad && !prev_bad) ++bursts;
    bad_packets += bad ? 1 : 0;
    prev_bad = bad;
  }
  ASSERT_GT(bursts, 100);
  EXPECT_NEAR(static_cast<double>(bad_packets) / bursts, mean_burst, 0.7);
}

TEST(GilbertElliott, SameSeedYieldsIdenticalDropSequence) {
  auto a = GilbertElliottLoss::with_average(0.08, 9.0);
  auto b = GilbertElliottLoss::with_average(0.08, 9.0);
  Rng rng_a{42};
  Rng rng_b{42};
  Rng rng_c{43};
  auto c = GilbertElliottLoss::with_average(0.08, 9.0);
  bool any_differs = false;
  for (int i = 0; i < 10'000; ++i) {
    const bool da = a.should_drop(rng_a);
    EXPECT_EQ(da, b.should_drop(rng_b)) << "diverged at packet " << i;
    any_differs = any_differs || da != c.should_drop(rng_c);
  }
  EXPECT_TRUE(any_differs);  // a different seed is a different channel
}

TEST(GilbertElliott, RejectsBadTargets) {
  EXPECT_THROW(GilbertElliottLoss::with_average(0.0, 5.0), std::invalid_argument);
  EXPECT_THROW(GilbertElliottLoss::with_average(0.7, 2.0), std::invalid_argument);
  EXPECT_THROW(GilbertElliottLoss::with_average(0.05, 0.5), std::invalid_argument);
}

TEST(NetworkLoss, CustomModelApplied) {
  Network net{std::make_unique<FixedLatencyModel>(millis(1)), 1};
  net.set_loss_model(std::make_unique<BernoulliLoss>(1.0));  // drop everything
  Host& a = net.add_host("a", GeoPoint{0, 0});
  Host& b = net.add_host("b", GeoPoint{1, 1});
  auto& tx = a.udp_bind(100);
  auto& rx = b.udp_bind(200);
  int received = 0;
  rx.on_receive([&](const Packet&) { ++received; });
  for (int i = 0; i < 50; ++i) tx.send_to(Endpoint{b.ip(), 200}, 10);
  net.loop().run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().packets_lost, 50);
}

TEST(NetworkLoss, IngressLossIsPerHost) {
  Network net{std::make_unique<FixedLatencyModel>(millis(1)), 1};
  Host& a = net.add_host("a", GeoPoint{0, 0});
  Host& lossy = net.add_host("lossy", GeoPoint{1, 1});
  Host& clean = net.add_host("clean", GeoPoint{2, 2});
  lossy.set_ingress_loss(std::make_unique<BernoulliLoss>(1.0));
  auto& tx = a.udp_bind(100);
  int lossy_rx = 0;
  int clean_rx = 0;
  lossy.udp_bind(200).on_receive([&](const Packet&) { ++lossy_rx; });
  clean.udp_bind(200).on_receive([&](const Packet&) { ++clean_rx; });
  for (int i = 0; i < 20; ++i) {
    tx.send_to(Endpoint{lossy.ip(), 200}, 10);
    tx.send_to(Endpoint{clean.ip(), 200}, 10);
  }
  net.loop().run();
  EXPECT_EQ(lossy_rx, 0);
  EXPECT_EQ(clean_rx, 20);
  EXPECT_EQ(lossy.ingress_losses(), 20);
}

}  // namespace
}  // namespace vc::net
