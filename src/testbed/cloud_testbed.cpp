#include "testbed/cloud_testbed.h"

namespace vc::testbed {
namespace {

/// Std-dev of each VM's clock offset (cloud stratum-1 sync quality).
constexpr double kClockSigmaMs = 0.4;

}  // namespace

CloudTestbed::CloudTestbed(Config config, Instruments instruments)
    : network_(std::make_unique<net::Network>(
          std::make_unique<net::GeoLatencyModel>(config.latency), config.seed, instruments)),
      rng_(config.seed ^ 0xC10C0FF5E7ULL) {}

CloudTestbed::CloudTestbed(std::uint64_t seed) : CloudTestbed(Config{.seed = seed}) {}

net::Host& CloudTestbed::create_vm(const VmSite& site, int index) {
  std::string name = site.name;
  if (index > 0) name += "-" + std::to_string(index + 1);
  net::Host& host = network_->add_host(std::move(name), site.geo);
  clock_offsets_[host.ip()] = millis_f(rng_.normal(0.0, kClockSigmaMs));
  return host;
}

SimDuration CloudTestbed::clock_offset(const net::Host& host) const {
  auto it = clock_offsets_.find(host.ip());
  return it == clock_offsets_.end() ? SimDuration::zero() : it->second;
}

}  // namespace vc::testbed
