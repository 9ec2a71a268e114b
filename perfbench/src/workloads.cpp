#include "workloads.hpp"

#include <algorithm>

#include "apps/registry.hpp"
#include "common/strings.hpp"
#include "core/arrivals.hpp"
#include "tracing.hpp"

namespace perfbench {

using namespace dssoc;

namespace {

double ms_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

/// The 20 ms scaled frame of bench_fig10/bench_slo (one fifth of the
/// paper's 100 ms window; rates in jobs/ms are unchanged).
constexpr double kFrameMs = 20.0;
constexpr double kFrameScale = 0.2;

/// Table II rows 4.57 and 6.92 jobs/ms: per-app counts over 100 ms.
struct TableTwoRow {
  const char* rate;
  std::size_t pulse_doppler, range_detection, wifi_tx, wifi_rx;
};
constexpr TableTwoRow kBacklogRows[] = {{"4.57", 18, 329, 55, 55},
                                        {"6.92", 32, 495, 82, 83}};

/// Table II row 0 (1.71 jobs/ms) as per-app rates — bench_slo's base mix.
struct AppRate {
  const char* app;
  double rate_per_ms;
};
constexpr AppRate kBaseMix[] = {{"pulse_doppler", 0.08},
                                {"range_detection", 1.23},
                                {"wifi_tx", 0.20},
                                {"wifi_rx", 0.20}};

/// bench_slo's saturation settings: 2 ms deadline, 256-task backlog cut.
constexpr const char* kDeadlineNs = "2000000";
constexpr std::size_t kBacklogLimit = 256;

core::EmulationSetup make_setup(const Setup& s,
                                const platform::Platform& platform,
                                const std::string& config,
                                const std::string& policy) {
  core::EmulationSetup setup;
  setup.platform = &platform;
  setup.soc = platform::parse_config_label(config);
  setup.apps = &s.library;
  setup.registry = &s.registry;
  setup.cost_model = platform::default_cost_model();
  setup.options.scheduler = policy;
  return setup;
}

std::string traffic_spec(const std::string& process, double factor) {
  std::string spec = cat("arrivals:", process, ":");
  for (const AppRate& mix : kBaseMix) {
    const double rate = mix.rate_per_ms * factor;
    if (process == "poisson") {
      spec += cat("app=", mix.app,
                  ",rate_per_ms=", format_double_roundtrip(rate));
    } else {
      // On/off bursts: silent low state, 2x-average high state, 2 ms
      // mean dwell — the long-run rate equals the Poisson row's.
      spec += cat("app=", mix.app, ",rates_per_ms=0/",
                  format_double_roundtrip(2.0 * rate), ",mean_dwell_ms=2");
    }
    spec += cat(",deadline_ns=", kDeadlineNs, ";");
  }
  spec.pop_back();
  return spec;
}

void add_eft_backlog(Setup& s, std::uint64_t seed) {
  const SimTime frame = sim_from_ms(kFrameMs);
  const auto scaled = [](std::size_t count) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(count) * kFrameScale));
  };
  for (const TableTwoRow& row : kBacklogRows) {
    for (const char* policy : {"EFT", "MET"}) {
      exp::SweepPoint point;
      point.label = cat("3C+2F/", policy, "/", row.rate);
      point.setup = make_setup(s, s.zcu102, "3C+2F", policy);
      point.setup.options.run_kernels = false;
      point.setup.options.seed = seed;
      point.time_frame = frame;
      Rng rng(seed);
      const std::int64_t start = now_ns();
      point.workload = core::make_performance_workload(
          {{"pulse_doppler",
            core::period_for_count(frame, scaled(row.pulse_doppler)), 1.0},
           {"range_detection",
            core::period_for_count(frame, scaled(row.range_detection)), 1.0},
           {"wifi_tx", core::period_for_count(frame, scaled(row.wifi_tx)), 1.0},
           {"wifi_rx", core::period_for_count(frame, scaled(row.wifi_rx)),
            1.0}},
          frame, rng);
      s.arrivals_ms += ms_since(start);
      s.points.push_back(std::move(point));
      s.may_saturate.push_back(false);
      s.overdriven.push_back(false);
    }
  }
}

void add_functional_verify(Setup& s, std::uint64_t seed) {
  struct Target {
    const platform::Platform* platform;
    const char* config;
  };
  const Target targets[] = {{&s.zcu102, "3C+2F"},
                            {&s.zcu102, "2C+1F"},
                            {&s.odroid, "3BIG+2LTL"}};
  constexpr std::size_t kSeedsPerTarget = 2;
  std::size_t index = 0;
  for (const Target& target : targets) {
    for (std::size_t k = 0; k < kSeedsPerTarget; ++k, ++index) {
      exp::SweepPoint point;
      const std::uint64_t point_seed = exp::point_seed(seed, index);
      point.label = cat(target.config, "/FRFS/validation/s", k);
      point.setup = make_setup(s, *target.platform, target.config, "FRFS");
      point.setup.options.seed = point_seed;
      const std::int64_t start = now_ns();
      point.workload = core::make_validation_workload({{"pulse_doppler", 4},
                                                       {"range_detection", 12},
                                                       {"wifi_tx", 12},
                                                       {"wifi_rx", 12}});
      s.arrivals_ms += ms_since(start);
      s.points.push_back(std::move(point));
      s.may_saturate.push_back(false);
      s.overdriven.push_back(false);
    }
  }
}

void add_sweep_durable(Setup& s, std::uint64_t seed) {
  const SimTime frame = sim_from_ms(kFrameMs);
  // Overdriven loads may reach the backlog cut. Stable ones may only when
  // the trace holds two or more pulse_doppler jobs: the limit counts ready
  // tasks, not jobs, and each pulse_doppler job releases 128 row FFTs at
  // once, so two in flight exceed 256 at any load.
  constexpr double kStable[] = {0.25, 0.5};
  constexpr double kOverdriven[] = {4.0, 8.0};
  constexpr std::size_t kSeeds = 16;
  std::size_t index = 0;
  for (const char* process : {"poisson", "mmpp"}) {
    for (const char* policy : {"FRFS", "MET"}) {
      for (int overdriven = 0; overdriven < 2; ++overdriven) {
        for (const double factor : overdriven ? kOverdriven : kStable) {
          const std::int64_t start = now_ns();
          const std::unique_ptr<core::ArrivalProcess> traffic =
              core::ArrivalRegistry::instance().create(
                  traffic_spec(process, factor));
          s.arrivals_ms += ms_since(start);
          for (std::size_t k = 0; k < kSeeds; ++k, ++index) {
            exp::SweepPoint point;
            point.label = cat("3C+2F/", policy, "/", process, "-",
                              format_double(factor, 2), "x/s", k);
            point.setup = make_setup(s, s.zcu102, "3C+2F", policy);
            point.setup.options.run_kernels = false;
            point.setup.options.saturation_backlog_limit = kBacklogLimit;
            point.setup.options.seed = exp::point_seed(seed, index);
            point.time_frame = frame;
            Rng rng(point.setup.options.seed);
            const std::int64_t gen = now_ns();
            point.workload = traffic->generate(frame, rng);
            s.arrivals_ms += ms_since(gen);
            const std::size_t pulse_doppler_jobs =
                point.workload.instance_counts()["pulse_doppler"];
            s.may_saturate.push_back(overdriven != 0 ||
                                     pulse_doppler_jobs >= 2);
            s.overdriven.push_back(overdriven != 0);
            s.points.push_back(std::move(point));
          }
        }
      }
    }
  }
}

}  // namespace

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> list = {
      {"eft-backlog", Fabric::kInProcess, 0},
      {"functional-verify", Fabric::kInProcess, 0},
      {"sweep-durable", Fabric::kProcessPool, 2},
  };
  return list;
}

const WorkloadInfo* find_workload(const std::string& name) {
  for (const WorkloadInfo& info : workloads()) {
    if (info.name == name) {
      return &info;
    }
  }
  return nullptr;
}

std::unique_ptr<Setup> build_setup(const WorkloadInfo& workload,
                                   std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  std::int64_t start = now_ns();
  s->zcu102 = platform::zcu102();
  s->odroid = platform::odroid_xu3();
  s->platform_ms = ms_since(start);

  start = now_ns();
  apps::register_all_kernels(s->registry);
  s->register_ms = ms_since(start);

  start = now_ns();
  s->library = apps::default_application_library();
  s->library_ms = ms_since(start);

  if (workload.name == "eft-backlog") {
    add_eft_backlog(*s, seed);
  } else if (workload.name == "functional-verify") {
    add_functional_verify(*s, seed);
  } else {
    add_sweep_durable(*s, seed);
  }
  for (const exp::SweepPoint& point : s->points) {
    s->arrival_entries += point.workload.size();
  }
  return s;
}

}  // namespace perfbench
