// The benchmark's three workloads and the set-up every run performs before
// its first emulation. Why each workload exists is in perfbench/README.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "platform/platform.hpp"

namespace perfbench {

enum class Fabric {
  kInProcess,   ///< run_virtual on the calling thread, point by point
  kProcessPool  ///< exp::run_sweep on the proc fabric with a journal
};

/// Everything a workload builds before its first emulation. Points hold
/// pointers into the other members, so a Setup never moves.
struct Setup {
  dssoc::platform::Platform zcu102;
  dssoc::platform::Platform odroid;
  dssoc::core::SharedObjectRegistry registry;
  dssoc::core::ApplicationLibrary library;
  std::vector<dssoc::exp::SweepPoint> points;
  /// Per point: the overload cut may legitimately end it.
  std::vector<bool> may_saturate;
  /// Per point: offered load above what the configuration can absorb.
  std::vector<bool> overdriven;

  // Host time of each set-up layer, ms.
  double platform_ms = 0.0;
  double register_ms = 0.0;
  double library_ms = 0.0;
  double arrivals_ms = 0.0;
  std::size_t arrival_entries = 0;

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
};

struct WorkloadInfo {
  std::string name;
  Fabric fabric = Fabric::kInProcess;
  /// Worker processes on the proc fabric (unused in-process).
  int workers = 0;
};

/// The workload called `name`, or nullptr when there is none.
const WorkloadInfo* find_workload(const std::string& name);
const std::vector<WorkloadInfo>& workloads();

/// Builds the platforms, kernel registry, application library and every
/// point's arrival trace for `workload` at `seed`, timing each layer.
std::unique_ptr<Setup> build_setup(const WorkloadInfo& workload,
                                   std::uint64_t seed);

}  // namespace perfbench
