// Outside-in instrumentation for the benchmark: an in-memory span recorder
// plus delegating wrappers around the two layers the emulator lets a caller
// substitute — the scheduler (through SchedulerRegistry) and the kernel
// symbol table (through SharedObjectRegistry). Nothing here touches src/;
// every span is recorded around a public call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/emulation.hpp"

namespace perfbench {

/// Monotonic host time in nanoseconds.
std::int64_t now_ns();

/// One timed call into a layer.
struct Span {
  std::uint32_t name = 0;    ///< index into Tracer::name()
  std::int32_t parent = -1;  ///< enclosing span's index, -1 at top level
  std::uint32_t point = 0;   ///< id of the emulation point it belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Single-threaded span recorder. Spans stay in memory until write_csv().
class Tracer {
 public:
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Dense id of a span name (interned once, looked up by id afterwards).
  std::uint32_t intern(const std::string& name);
  const std::string& name(std::uint32_t id) const { return names_[id]; }

  void set_point(std::uint32_t point) noexcept { point_ = point; }

  /// Opens a span nested in the innermost open one; returns its index.
  std::size_t open(std::uint32_t name);
  void close(std::size_t index);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// name,parent,point,start_ns,end_ns — one line per span.
  void write_csv(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint32_t point_ = 0;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

Tracer& tracer();

/// Records a span for the enclosing scope when tracing is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::uint32_t name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t index_ = kNone;
};

/// Deterministic work counters gathered by the wrappers. They depend only
/// on the emulated inputs, never on the host.
struct Counters {
  std::uint64_t sched_calls = 0;
  std::uint64_t ready_scanned = 0;  ///< sum of ready-list lengths at entry
  std::uint64_t assigned = 0;       ///< tasks removed from the ready list
  std::uint64_t inert_calls = 0;    ///< calls that assigned nothing
  std::uint64_t est_real = 0;       ///< estimate() + available_at() calls
  std::uint64_t est_logical = 0;    ///< sum of note_logical_estimates()
  std::uint64_t kernel_calls = 0;
  std::uint64_t crc_checks = 0;     ///< wifi_rx_crc_check executions
  std::uint64_t crc_pass = 0;       ///< of those, crc_ok == 1
};

Counters& counters();

/// Registers the "perfbench" spec prefix with the SchedulerRegistry:
/// "perfbench:<policy>" builds <policy> wrapped in a delegating scheduler
/// that times each schedule() call and counts its work. Idempotent.
void register_traced_schedulers();

/// The registry spec of the wrapped form of `policy`.
std::string traced_scheduler(const std::string& policy);

/// A symbol table holding every (shared object, runfunc) the library's DAG
/// nodes reference, each delegating to the kernel in `real`. The
/// wifi_rx_crc_check symbol always reports its crc_ok result into
/// counters(); with `traced`, every call is also counted and recorded as an
/// "apps.kernel.<runfunc>" span.
dssoc::core::SharedObjectRegistry bench_registry(
    const dssoc::core::SharedObjectRegistry& real,
    const dssoc::core::ApplicationLibrary& library, bool traced);

}  // namespace perfbench
