#include "core/mobile_benchmark.h"

#include <array>
#include <memory>

#include "core/session_world.h"
#include "media/audio.h"
#include "mobile/resource_monitor.h"

namespace vc::core {
namespace {

struct PhoneRun {
  client::VcaClient* client;
  std::unique_ptr<mobile::ResourceMonitor> monitor;
};

PhoneRun make_phone(SessionWorld& world, net::Host& host, const mobile::DeviceProfile& device,
                    mobile::MobileScenario scenario, platform::ViewMode view_override,
                    bool use_override, std::uint64_t seed) {
  const mobile::ScenarioSettings s = mobile::scenario_settings(scenario);
  client::VcaClient::Config cfg;
  cfg.device = device.device_class;
  cfg.view = use_override ? view_override : s.view;
  cfg.send_video = s.camera_on;
  cfg.send_audio = false;  // phones are muted listeners in the experiments
  cfg.decode_video = false;
  cfg.synthetic_video = true;
  cfg.rate_override = device.camera_rate;
  cfg.seed = seed;
  client::VcaClient& phone = world.client(host, cfg);
  return PhoneRun{&phone, std::make_unique<mobile::ResourceMonitor>(phone, device, scenario,
                                                                    seed ^ 0xC9F7)};
}

/// The phone testbed both mobile entry points share: the platform, the
/// US-East host VM, then the S10 and J3 on the residential network.
std::array<net::Host*, 3> provision(SessionWorld& world, platform::PlatformId id,
                                    std::uint64_t platform_seed, int fan_out_shards) {
  world.add_platform(id, {.seed = platform_seed, .fan_out_shards = fan_out_shards});
  net::Host* host_vm = &world.vm("US-East", 8);
  net::Host* s10 = &world.vm(testbed::residential_us_east(), 0);
  return {host_vm, s10, &world.vm(testbed::residential_us_east(), 1)};
}

/// A VM streaming modeled (synthetic) video without audio. Meet serves
/// mobile receivers its high simulcast layer regardless of the target device
/// (Fig 19b), while Zoom/Webex stay on their multi-party policy rates.
client::VcaClient::Config vm_sender(platform::PlatformId id, platform::MotionClass motion,
                                    std::uint64_t seed) {
  client::VcaClient::Config cfg;
  cfg.send_audio = false;
  cfg.decode_video = false;
  cfg.synthetic_video = true;
  cfg.motion = motion;
  if (id == platform::PlatformId::kMeet) {
    cfg.rate_override = platform::rate_profile(id).mobile_main_rate;
  }
  cfg.seed = seed;
  return cfg;
}

}  // namespace

MobileSessionResult run_mobile_session(const MobileBenchmarkConfig& config, std::uint64_t seed) {
  const mobile::ScenarioSettings settings = mobile::scenario_settings(config.scenario);

  SessionWorld world{seed};
  const auto [host_vm, s10_vm, j3_vm] =
      provision(world, config.platform, seed ^ 0x303, config.fan_out_shards);

  // The host streams the LM/HM feed, with audio.
  client::VcaClient::Config host_cfg = vm_sender(
      config.platform,
      settings.high_motion ? platform::MotionClass::kHighMotion : platform::MotionClass::kLowMotion,
      seed);
  host_cfg.send_audio = true;
  client::VcaClient& host_client = world.client(*host_vm, host_cfg);
  client::MediaFeeder& feeder = world.feeder(host_client);

  PhoneRun s10 = make_phone(world, *s10_vm, mobile::galaxy_s10(), config.scenario,
                            platform::ViewMode::kFullScreen, false, seed + 1);
  PhoneRun j3 = make_phone(world, *j3_vm, mobile::galaxy_j3(), config.scenario,
                           platform::ViewMode::kFullScreen, false, seed + 2);

  testbed::SessionOrchestrator::Plan plan;
  plan.host = &host_client;
  plan.participants = {s10.client, j3.client};
  plan.media_duration = config.duration;
  plan.on_all_joined = [&] {
    feeder.play_audio(media::synthesize_voice(config.duration.seconds(), seed ^ 0xA0D10));
    s10.monitor->start(config.duration);
    j3.monitor->start(config.duration);
  };
  world.orchestrate(std::move(plan));
  world.run();

  MobileSessionResult out;
  out.s10_cpu = s10.monitor->cpu_samples();
  out.j3_cpu = j3.monitor->cpu_samples();
  out.s10_download_kbps = s10.monitor->download_rate().as_kbps();
  out.s10_upload_kbps = s10.monitor->upload_rate().as_kbps();
  out.s10_battery_pct_per_hour = s10.monitor->battery_pct_per_hour();
  out.j3_download_kbps = j3.monitor->download_rate().as_kbps();
  out.j3_upload_kbps = j3.monitor->upload_rate().as_kbps();
  out.j3_battery_pct_per_hour = j3.monitor->battery_pct_per_hour();
  return out;
}

MobileBenchmarkResult run_mobile_benchmark(const MobileBenchmarkConfig& config) {
  MobileBenchmarkResult result;
  result.platform = config.platform;
  result.scenario = config.scenario;
  result.s10.device = "S10";
  result.j3.device = "J3";

  for (int rep = 0; rep < config.repetitions; ++rep) {
    const std::uint64_t seed = config.seed + static_cast<std::uint64_t>(rep) * 2917;
    const MobileSessionResult session = run_mobile_session(config, seed);
    auto harvest = [](MobileDeviceResult& out, const std::vector<double>& cpu, double down,
                      double up, double battery) {
      out.cpu_samples.insert(out.cpu_samples.end(), cpu.begin(), cpu.end());
      out.download_kbps.add(down);
      out.upload_kbps.add(up);
      out.battery_pct_per_hour.add(battery);
    };
    harvest(result.s10, session.s10_cpu, session.s10_download_kbps, session.s10_upload_kbps,
            session.s10_battery_pct_per_hour);
    harvest(result.j3, session.j3_cpu, session.j3_download_kbps, session.j3_upload_kbps,
            session.j3_battery_pct_per_hour);
  }
  result.s10.cpu = boxplot(result.s10.cpu_samples);
  result.j3.cpu = boxplot(result.j3.cpu_samples);
  return result;
}

ScaleSessionResult run_scale_session(const ScaleBenchmarkConfig& config, std::uint64_t seed) {
  const int extra_vms = std::max(0, config.n_total - 3);

  SessionWorld world{seed, {.tracer = config.tracer}};
  const auto [host_vm, s10_vm, j3_vm] =
      provision(world, config.platform, seed ^ 0x404, config.fan_out_shards);

  // Everyone streams high-motion simultaneously (Section 5, Table 4).
  auto make_vm_sender = [&](net::Host& vm, std::uint64_t s) {
    return &world.client(vm, vm_sender(config.platform, platform::MotionClass::kHighMotion, s));
  };

  client::VcaClient* host_client = make_vm_sender(*host_vm, seed);
  client::MediaFeeder& feeder = world.feeder(*host_client);
  std::vector<client::VcaClient*> extras;
  const auto us = testbed::us_sites();
  for (int i = 0; i < extra_vms; ++i) {
    net::Host& vm = world.vm(us[static_cast<std::size_t>(i) % us.size()], 20 + i);
    extras.push_back(make_vm_sender(vm, seed + 100 + static_cast<std::uint64_t>(i)));
  }

  // Phones use the HM scenario settings with the requested view.
  PhoneRun s10 = make_phone(world, *s10_vm, mobile::galaxy_s10(), mobile::MobileScenario::kHM,
                            config.phone_view, true, seed + 1);
  PhoneRun j3 = make_phone(world, *j3_vm, mobile::galaxy_j3(), mobile::MobileScenario::kHM,
                           config.phone_view, true, seed + 2);

  testbed::SessionOrchestrator::Plan plan;
  plan.host = host_client;
  plan.participants = {s10.client, j3.client};
  plan.participants.insert(plan.participants.end(), extras.begin(), extras.end());
  plan.media_duration = config.duration;
  plan.on_all_joined = [&] {
    feeder.play_audio(media::synthesize_voice(config.duration.seconds(), seed ^ 0xA0D11));
    s10.monitor->start(config.duration);
    j3.monitor->start(config.duration);
  };
  world.orchestrate(std::move(plan));
  world.run();

  ScaleSessionResult out;
  out.s10_cpu = s10.monitor->cpu_samples();
  out.j3_cpu = j3.monitor->cpu_samples();
  out.s10_rate_mbps = s10.monitor->download_rate().as_mbps();
  out.j3_rate_mbps = j3.monitor->download_rate().as_mbps();
  return out;
}

ScaleBenchmarkResult run_scale_benchmark(const ScaleBenchmarkConfig& config) {
  ScaleBenchmarkResult result;
  result.platform = config.platform;
  result.n_total = config.n_total;
  result.phone_view = config.phone_view;

  std::vector<double> s10_cpu;
  std::vector<double> j3_cpu;
  RunningStats s10_rate;
  RunningStats j3_rate;

  for (int rep = 0; rep < config.repetitions; ++rep) {
    const std::uint64_t seed = config.seed + static_cast<std::uint64_t>(rep) * 5801;
    const ScaleSessionResult session = run_scale_session(config, seed);
    s10_cpu.insert(s10_cpu.end(), session.s10_cpu.begin(), session.s10_cpu.end());
    j3_cpu.insert(j3_cpu.end(), session.j3_cpu.begin(), session.j3_cpu.end());
    s10_rate.add(session.s10_rate_mbps);
    j3_rate.add(session.j3_rate_mbps);
  }

  result.s10_rate_mbps = s10_rate.mean();
  result.j3_rate_mbps = j3_rate.mean();
  result.s10_cpu_median = median(s10_cpu);
  result.j3_cpu_median = median(j3_cpu);
  return result;
}

}  // namespace vc::core
