// The observability sinks a simulated world reports into. A world's
// net::Network takes one bundle when it is constructed, and every component
// built on that network — loop, hosts and their shapers, relays, clients,
// probers, controllers, orchestrators, fleets and trunks — resolves its
// instruments from it in its own constructor. Empty Instruments wire nothing.
#pragma once

namespace vc {

class MetricsRegistry;
class MetricsTimeline;
class Tracer;

/// Optional observability sinks, all borrowed; they must outlive the world.
struct Instruments {
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  /// Armed by core::SessionWorld::run against `metrics`; ignored without it.
  MetricsTimeline* timeline = nullptr;
};

}  // namespace vc
