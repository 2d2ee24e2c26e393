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
                                    std::uint64_t platform_seed) {
  world.add_platform(id, platform_seed);
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
      provision(world, config.platform, seed ^ 0x303);

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

ScaleSessionResult run_scale_session(const ScaleBenchmarkConfig& config, std::uint64_t seed) {
  const int extra_vms = std::max(0, config.n_total - 3);

  SessionWorld world{seed, {.tracer = config.tracer}};
  const auto [host_vm, s10_vm, j3_vm] =
      provision(world, config.platform, seed ^ 0x404);

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

}  // namespace vc::core
