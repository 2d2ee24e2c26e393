// The cloud side of the benchmark: a simulated internet, provisioned VMs,
// and the VM clock-sync model.
//
// Azure/AWS time-sync services keep tenant clocks within about a millisecond
// of true time (Section 3.1); each VM here gets a small random clock offset,
// which packet captures bake into their timestamps — so lag measurements
// inherit realistic sync error instead of impossible perfection.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "net/network.h"
#include "testbed/locations.h"

namespace vc::testbed {

class CloudTestbed {
 public:
  struct Config {
    std::uint64_t seed = 42;
    /// Std-dev of each VM's clock offset (cloud stratum-1 sync quality).
    double clock_sigma_ms = 0.4;
    net::GeoLatencyModel::Params latency{};
  };

  /// `instruments` go to the network, and from it to everything built on
  /// the bed (see common/instruments.h).
  explicit CloudTestbed(Config config, Instruments instruments = {});
  explicit CloudTestbed(std::uint64_t seed);

  net::Network& network() { return *network_; }
  net::EventLoop& loop() { return network_->loop(); }

  /// Provisions a VM at a site; `index` disambiguates multi-VM sites.
  net::Host& create_vm(const VmSite& site, int index = 0);

  /// The VM's clock offset from true time (used when attaching captures;
  /// measurement code never reads it).
  SimDuration clock_offset(const net::Host& host) const;

  /// Runs the event loop until every scheduled event has fired.
  void run_all() { network_->loop().run(); }

 private:
  std::unique_ptr<net::Network> network_;
  Rng rng_;
  double clock_sigma_ms_ = 0.4;
  std::unordered_map<net::IpAddr, SimDuration> clock_offsets_;
};

}  // namespace vc::testbed
