// vcbench — public umbrella header.
//
// A benchmarking framework for videoconferencing systems, reproducing the
// methodology and experiments of "Can You See Me Now? A Measurement Study of
// Zoom, Webex, and Meet" (IMC 2021): emulated clients with loopback media
// devices and scripted workflows, geo-distributed deployment on a simulated
// internet, platform-agnostic traffic capture and analysis, full-reference
// video/audio QoE scoring, and mobile resource modeling.
//
// Quick start (see examples/quickstart.cpp):
//
//   vc::core::LagBenchmarkConfig cfg;
//   cfg.platform = vc::platform::PlatformId::kZoom;
//   cfg.participant_sites = vc::core::us_participant_sites(cfg.host_site);
//   auto result = vc::core::run_lag_benchmark(cfg);
//   for (const auto& p : result.participants)
//     std::cout << p.label << ": median lag "
//               << vc::median(p.lags_ms) << " ms\n";
#pragma once

#include "core/city_benchmark.h"            // relay fleets at city scale
#include "core/fairness_benchmark.h"        // competing flows on one bottleneck
#include "core/fault_recovery_benchmark.h"  // mid-call faults and recovery
#include "core/lag_benchmark.h"             // Figs 2, 4–11: streaming lag and RTTs
#include "core/mobile_benchmark.h"          // Fig 19, Table 4: mobile resources
#include "core/qoe_benchmark.h"             // Figs 12, 14–18: QoE, rates, bandwidth caps
#include "core/qoe_infer_benchmark.h"       // header-free QoE inference vs truth
#include "core/session_world.h"             // the testbed every scenario builds on
