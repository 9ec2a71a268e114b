// perfbench: the emulator's benchmark program.
//
//   perfbench --workload <eft-backlog|functional-verify|sweep-durable>
//             --seed N --seconds S --trace 0|1
//             [--pins FILE] [--out-dir DIR] [--write-pins FILE]
//
// One run sets the workload up several times (setup_s is their median),
// then repeats the workload's measured phase ("pass") until S seconds have
// passed. Every pass checks the emulated outputs: per-point digests must
// repeat exactly across passes (and match the pins file at the pinned
// seed), functional checks must pass, and only overdriven points may hit
// the saturation cut. With --trace 1 passes alternate between wrappers off
// and wrappers on; the wrapped passes give the per-layer numbers and the
// tracing overhead. The last stdout line is the JSON result; the process
// exits 1 when any check failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "exp/bench_json.hpp"
#include "exp/journal.hpp"
#include "exp/sweep_env.hpp"
#include "exp/wire.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dssoc;
namespace fs = std::filesystem;

/// The seed whose per-point digests and counters are pinned in the pins
/// file; other seeds fall back to traced-equals-untraced and pass-to-pass
/// equality.
constexpr std::uint64_t kPinSeed = 1;
constexpr int kSetupRepeats = 21;

/// Kernels reported one by one: the symbols that took >= 5% of kernel time
/// on functional-verify at the pinned seed.
const char* const kHotKernels[] = {"pd_ref_fft", "pd_row_fft", "pd_row_ifft",
                                   "pd_dop_fft", "pd_row_ifft_accel"};

// --- statistics -------------------------------------------------------------

/// Linear interpolation between order statistics (q in [0, 1]).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Nearest-rank percentile (p in (0, 100]), as EmulationStats reports
/// latencies: always an observed sample. Pooled point times mix clusters of
/// very different points, and interpolating between two clusters would
/// swing with every shift in the sample count.
double nearest_rank(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// The highest percentile of `values` with at least ten samples beyond it.
struct Tail {
  double percentile = 100.0;  ///< 100 = too few samples; value is the max
  double value = 0.0;
};

Tail tail_of(const std::vector<double>& values) {
  const double n = static_cast<double>(values.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n - std::ceil(p / 100.0 * n) >= 10.0) {
      return {p, nearest_rank(values, p)};
    }
  }
  return {100.0, nearest_rank(values, 100.0)};
}

std::string percentile_name(double p) {
  return p >= 100.0 ? std::string("max") : "p" + format_double_roundtrip(p);
}

// --- host measurements --------------------------------------------------------

struct Usage {
  double cpu_s = 0.0;       ///< user + system, self + reaped children
  double peak_rss_mb = 0.0; ///< self peak + largest child peak
};

Usage usage_now() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  Usage u;
  u.cpu_s = seconds(self.ru_utime) + seconds(self.ru_stime) +
            seconds(children.ru_utime) + seconds(children.ru_stime);
  u.peak_rss_mb =
      static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
  return u;
}

/// Fixed integer loop, timed: a yardstick for how fast this host ran.
double calibration_ms() {
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t start = now_ns();
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
    times.push_back(static_cast<double>(now_ns() - start) / 1e6);
  }
  return median(times);
}

double ms_between(std::int64_t start, std::int64_t end) {
  return static_cast<double>(end - start) / 1e6;
}

std::uintmax_t file_bytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

// --- one pass -------------------------------------------------------------------

/// Sums over a pass's emulated results. They must repeat exactly.
struct EmuTotals {
  std::uint64_t tasks = 0;
  std::uint64_t sched_events = 0;
  SimTime makespan = 0;
  SimTime sched_overhead = 0;

  void add(const core::EmulationStats& stats) {
    tasks += stats.tasks.size();
    sched_events += stats.scheduling_events;
    makespan += stats.makespan;
    sched_overhead += stats.scheduling_overhead_total;
  }
  bool operator==(const EmuTotals&) const = default;
};

struct Pass {
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double resume_s = 0.0;
  std::vector<double> point_ms;
  std::vector<std::uint64_t> digests;
  std::size_t attempted = 0;
  std::vector<std::string> failures;
  /// Stable-load points the backlog cut ended (allowed, but reported).
  std::size_t stable_cuts = 0;
  EmuTotals emu;
  Counters counters;                     ///< this pass's counter deltas
  std::map<std::string, double> layers;  ///< per-layer values (traced)
  std::vector<double> sched_call_us;     ///< traced schedule() durations
};

Counters delta(const Counters& after, const Counters& before) {
  Counters d;
  d.sched_calls = after.sched_calls - before.sched_calls;
  d.ready_scanned = after.ready_scanned - before.ready_scanned;
  d.assigned = after.assigned - before.assigned;
  d.inert_calls = after.inert_calls - before.inert_calls;
  d.est_real = after.est_real - before.est_real;
  d.est_logical = after.est_logical - before.est_logical;
  d.kernel_calls = after.kernel_calls - before.kernel_calls;
  d.crc_checks = after.crc_checks - before.crc_checks;
  d.crc_pass = after.crc_pass - before.crc_pass;
  return d;
}

class Bench {
 public:
  Bench(const WorkloadInfo& workload, std::uint64_t seed, std::string out_dir)
      : workload_(workload), seed_(seed), out_dir_(std::move(out_dir)) {}

  void set_up();
  Pass run_pass(bool traced);

  const Setup& setup() const { return *setup_; }
  const std::vector<double>& setup_s() const { return setup_s_; }
  const std::map<std::string, std::vector<double>>& setup_layers() const {
    return setup_layers_;
  }

 private:
  void emulate_in_process(Pass& pass, bool traced);
  void run_sweep_pass(Pass& pass, bool traced);
  void check_point(Pass& pass, std::size_t index,
                   const core::EmulationStats& stats, exp::PointStatus status);
  void aggregate_spans(Pass& pass, std::size_t first_span) const;

  const WorkloadInfo& workload_;
  std::uint64_t seed_;
  std::string out_dir_;
  std::unique_ptr<Setup> setup_;
  core::SharedObjectRegistry plain_registry_;
  core::SharedObjectRegistry traced_registry_;
  std::vector<core::EmulationSetup> traced_setups_;
  std::vector<double> setup_s_;
  std::map<std::string, std::vector<double>> setup_layers_;
  std::size_t expected_crc_ = 0;
  std::uint32_t engine_span_ = tracer().intern("core.engine");
  std::uint32_t digest_span_ = tracer().intern("core.stats.digest");
  std::uint32_t summary_span_ = tracer().intern("core.stats.summary");
  std::uint32_t sweep_span_ = tracer().intern("exp.run_sweep");
  std::uint32_t to_json_span_ = tracer().intern("exp.artifact.to_json");
  std::uint32_t write_span_ = tracer().intern("exp.artifact.write");
  std::uint32_t resume_span_ = tracer().intern("exp.resume");
};

void Bench::set_up() {
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    setup_.reset();
    const std::int64_t start = now_ns();
    setup_ = build_setup(workload_, seed_);
    setup_s_.push_back(static_cast<double>(now_ns() - start) / 1e9);
    setup_layers_["platform.build_ms"].push_back(setup_->platform_ms);
    setup_layers_["apps.register_ms"].push_back(setup_->register_ms);
    setup_layers_["apps.library_ms"].push_back(setup_->library_ms);
    setup_layers_["core.arrivals.gen_ms"].push_back(setup_->arrivals_ms);
  }
  // Benchmark plumbing, outside the timed set-up: the delegating symbol
  // tables and the wrapped-scheduler copies of every point's setup.
  plain_registry_ = bench_registry(setup_->registry, setup_->library, false);
  traced_registry_ = bench_registry(setup_->registry, setup_->library, true);
  for (exp::SweepPoint& point : setup_->points) {
    point.setup.registry = &plain_registry_;
    core::EmulationSetup traced = point.setup;
    traced.registry = &traced_registry_;
    traced.options.scheduler = traced_scheduler(traced.options.scheduler);
    traced_setups_.push_back(std::move(traced));
    if (point.setup.options.run_kernels) {
      expected_crc_ += point.workload.instance_counts()["wifi_rx"];
    }
  }
}

void Bench::check_point(Pass& pass, std::size_t index,
                        const core::EmulationStats& stats,
                        exp::PointStatus status) {
  const exp::SweepPoint& point = setup_->points[index];
  ++pass.attempted;
  if (status == exp::PointStatus::kFailed) {
    pass.failures.push_back(cat(point.label, ": failed"));
  } else if (status == exp::PointStatus::kSaturated &&
             !setup_->overdriven[index]) {
    ++pass.stable_cuts;
    if (!setup_->may_saturate[index]) {
      pass.failures.push_back(
          cat(point.label, ": saturated at a load expected to be stable"));
    }
  }
  pass.emu.add(stats);
}

void Bench::emulate_in_process(Pass& pass, bool traced) {
  core::AppInstancePool pool;
  for (std::size_t i = 0; i < setup_->points.size(); ++i) {
    const exp::SweepPoint& point = setup_->points[i];
    const core::EmulationSetup& setup =
        traced ? traced_setups_[i] : point.setup;
    tracer().set_point(static_cast<std::uint32_t>(i));
    const std::int64_t start = now_ns();
    core::EmulationStats stats;
    {
      ScopedSpan span(engine_span_);
      stats = core::run_virtual(setup, point.workload, &pool);
    }
    pass.point_ms.push_back(ms_between(start, now_ns()));
    {
      ScopedSpan span(digest_span_);
      pass.digests.push_back(stats.digest());
    }
    {
      ScopedSpan span(summary_span_);
      const core::LatencyStats summary = stats.latency_stats();
      if (summary.count != stats.apps.size()) {
        pass.failures.push_back(cat(point.label, ": latency summary covers ",
                                    summary.count, " of ", stats.apps.size(),
                                    " apps"));
      }
    }
    check_point(pass, i, stats, exp::status_from_stats(stats));
  }
}

void Bench::run_sweep_pass(Pass& pass, bool traced) {
  const std::string dir = cat(out_dir_, "/sweep-", getpid());
  fs::create_directories(dir);
  const std::string journal = dir + "/journal.bin";
  const std::string artifact = dir + "/BENCH_sweep.json";
  fs::remove(journal);
  setenv("DSSOC_SWEEP_FABRIC", "proc", 1);
  setenv("DSSOC_SWEEP_JOURNAL", journal.c_str(), 1);
  unsetenv("DSSOC_SWEEP_RESUME");
  exp::SweepEnv env = exp::SweepEnv::from_env();
  env.threads = workload_.workers;

  std::vector<exp::SweepPoint>& points = setup_->points;
  const Usage before = usage_now();
  const std::int64_t start = now_ns();
  exp::SweepRun run;
  {
    ScopedSpan span(sweep_span_);
    run = exp::run_sweep(points, env);
  }
  const std::int64_t swept = now_ns();
  json::Value doc;
  {
    ScopedSpan span(to_json_span_);
    doc = exp::sweep_to_json("perfbench-sweep-durable", run.execution.width,
                             run.total_wall_ms, run.execution.results,
                             run.meta);
  }
  const std::int64_t encoded = now_ns();
  {
    ScopedSpan span(write_span_);
    exp::write_json_file(artifact, doc);
  }
  const std::int64_t end = now_ns();
  pass.wall_s = static_cast<double>(end - start) / 1e9;
  pass.cpu_s = usage_now().cpu_s - before.cpu_s;

  const std::vector<exp::SweepResult>& results = run.execution.results;
  if (run.execution.fabric != "proc" || results.size() != points.size()) {
    pass.failures.push_back("sweep did not run on the process fabric");
    return;
  }
  double point_ms_sum = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    pass.point_ms.push_back(results[i].wall_ms);
    point_ms_sum += results[i].wall_ms;
    pass.digests.push_back(results[i].stats.digest());
    check_point(pass, i, results[i].stats, results[i].status);
  }
  const std::uintmax_t journal_bytes = file_bytes(journal);

  // Resume pass: every point must replay from the journal, bit-identical.
  setenv("DSSOC_SWEEP_RESUME", "1", 1);
  env = exp::SweepEnv::from_env();
  env.threads = workload_.workers;
  const std::int64_t resume_start = now_ns();
  exp::SweepRun resumed;
  {
    ScopedSpan span(resume_span_);
    resumed = exp::run_sweep(points, env);
  }
  pass.resume_s = static_cast<double>(now_ns() - resume_start) / 1e9;
  unsetenv("DSSOC_SWEEP_RESUME");
  const std::size_t reused = resumed.execution.journal_points_reused;
  for (std::size_t i = 0; i < resumed.execution.results.size(); ++i) {
    ++pass.attempted;
    if (i >= pass.digests.size() ||
        resumed.execution.results[i].stats.digest() != pass.digests[i]) {
      pass.failures.push_back(
          cat(points[i].label, ": resumed digest differs from the sweep's"));
    }
  }
  if (reused != points.size()) {
    pass.failures.push_back(cat("resume replayed ", reused, " of ",
                                points.size(), " points"));
  }
  if (!traced) {
    return;
  }

  // exp.* layers, timed from the supervisor around the same public calls
  // the fabric makes (spans inside the workers are lost).
  const double phase_ms = ms_between(start, swept);
  const double width = run.execution.width;
  auto& l = pass.layers;
  l["exp.fabric.dispatch_ms"] = phase_ms - point_ms_sum / width;
  l["exp.fabric.efficiency"] = point_ms_sum / (phase_ms * width);
  double retries = 0.0;
  for (const exp::SweepResult& result : results) {
    retries += result.retries;
  }
  l["exp.fabric.retries"] = retries;
  l["exp.fabric.respawns"] =
      static_cast<double>(run.execution.worker_respawns);
  l["exp.artifact.to_json_ms"] = ms_between(swept, encoded);
  l["exp.artifact.write_ms"] = ms_between(encoded, end);
  l["exp.artifact.bytes"] = static_cast<double>(file_bytes(artifact));
  l["exp.journal.bytes"] = static_cast<double>(journal_bytes);
  l["exp.journal.reused"] = static_cast<double>(reused);

  std::int64_t t = now_ns();
  std::vector<std::uint64_t> hashes;
  for (const exp::SweepPoint& point : points) {
    hashes.push_back(exp::point_config_hash(point));
  }
  l["exp.journal.hash_ms"] = ms_between(t, now_ns());

  t = now_ns();
  { const exp::SweepJournal reopened(journal); }
  l["exp.journal.open_ms"] = ms_between(t, now_ns());

  const std::string replica = dir + "/replica.bin";
  fs::remove(replica);
  {
    exp::SweepJournal copy(replica);
    t = now_ns();
    for (std::size_t i = 0; i < results.size(); ++i) {
      copy.append(hashes[i], results[i]);
    }
    l["exp.journal.append_ms"] = ms_between(t, now_ns());
  }
  fs::remove(replica);

  double bytes = 0.0;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    exp::WireResult wire;
    wire.point_index = i;
    wire.ok = results[i].status != exp::PointStatus::kFailed;
    wire.wall_ms = results[i].wall_ms;
    wire.stats = results[i].stats;
    t = now_ns();
    const std::vector<std::uint8_t> frame = exp::encode_result(wire);
    const std::int64_t mid = now_ns();
    const exp::WireResult back = exp::decode_result(frame);
    decode_ns += static_cast<double>(now_ns() - mid);
    encode_ns += static_cast<double>(mid - t);
    bytes += static_cast<double>(frame.size());
    if (back.stats.digest() != pass.digests[i]) {
      pass.failures.push_back(cat(points[i].label, ": wire round trip"));
    }
  }
  const double n = static_cast<double>(results.size());
  l["exp.wire.result_bytes"] = bytes / n;
  l["exp.wire.encode_us"] = encode_ns / n / 1e3;
  l["exp.wire.decode_us"] = decode_ns / n / 1e3;

  // Core layers: replay every point in-process with the wrappers on. Its
  // digests must equal the fabric's (traced == untraced).
  Pass replay;
  emulate_in_process(replay, true);
  for (std::size_t i = 0; i < replay.digests.size(); ++i) {
    if (replay.digests[i] != pass.digests[i]) {
      pass.failures.push_back(
          cat(points[i].label, ": wrapped in-process digest differs"));
    }
  }
  for (const std::string& failure : replay.failures) {
    pass.failures.push_back(failure);
  }
}

Pass Bench::run_pass(bool traced) {
  Pass pass;
  pass.traced = traced;
  tracer().set_enabled(traced);
  const Counters counters_before = counters();
  const std::size_t first_span = tracer().spans().size();
  if (workload_.fabric == Fabric::kProcessPool) {
    run_sweep_pass(pass, traced);
  } else {
    const Usage before = usage_now();
    const std::int64_t start = now_ns();
    emulate_in_process(pass, traced);
    pass.wall_s = static_cast<double>(now_ns() - start) / 1e9;
    pass.cpu_s = usage_now().cpu_s - before.cpu_s;
    pass.resume_s = pass.wall_s;
  }
  tracer().set_enabled(false);
  pass.counters = delta(counters(), counters_before);
  if (expected_crc_ > 0 && (pass.counters.crc_checks != expected_crc_ ||
                            pass.counters.crc_pass != expected_crc_)) {
    pass.failures.push_back(cat("wifi_rx CRC: ", pass.counters.crc_pass,
                                " passed of ", pass.counters.crc_checks,
                                " checks, expected ", expected_crc_));
  }
  if (traced) {
    aggregate_spans(pass, first_span);
  }
  return pass;
}

void Bench::aggregate_spans(Pass& pass, std::size_t first_span) const {
  const std::vector<Span>& spans = tracer().spans();
  const std::uint32_t sched = tracer().intern("core.sched");
  double engine_ns = 0.0;
  double child_ns = 0.0;
  double sched_ns = 0.0;
  double kernel_ns = 0.0;
  double digest_ns = 0.0;
  double summary_ns = 0.0;
  std::map<std::string, double> per_kernel;
  for (std::size_t i = first_span; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double ns = static_cast<double>(span.duration_ns());
    const std::string& name = tracer().name(span.name);
    if (span.name == engine_span_) {
      engine_ns += ns;
    } else if (span.name == digest_span_) {
      digest_ns += ns;
    } else if (span.name == summary_span_) {
      summary_ns += ns;
    } else if (span.name == sched) {
      sched_ns += ns;
      pass.sched_call_us.push_back(ns / 1e3);
    } else if (starts_with(name, "apps.kernel.")) {
      kernel_ns += ns;
      per_kernel[name.substr(12)] += ns;
    }
    if (span.parent >= 0 && spans[static_cast<std::size_t>(span.parent)].name ==
                                engine_span_) {
      child_ns += ns;
    }
  }
  auto& l = pass.layers;
  l["core.engine.host_ms"] = engine_ns / 1e6;
  l["core.engine.self_ms"] = (engine_ns - child_ns) / 1e6;
  l["core.sched.host_ms"] = sched_ns / 1e6;
  l["apps.kernel.host_ms"] = kernel_ns / 1e6;
  l["core.stats.digest_ms"] = digest_ns / 1e6;
  l["core.stats.summary_ms"] = summary_ns / 1e6;
  for (const char* kernel : kHotKernels) {
    l[cat("apps.kernel.", kernel, ".host_ms")] = per_kernel[kernel] / 1e6;
  }
  for (const auto& [kernel, ns] : per_kernel) {
    l[cat("kernel-share.", kernel)] = kernel_ns > 0 ? ns / kernel_ns : 0.0;
  }
}

// --- pins -----------------------------------------------------------------------

/// perfbench/pins.txt lines: "<workload> <key> <value>", where key is a
/// point label (value: 16-hex digest) or a counter name (value: integer).
using Pins = std::map<std::string, std::string>;

Pins read_pins(const std::string& path, const std::string& workload) {
  Pins pins;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    std::string key;
    std::string value;
    if (line.empty() || line[0] == '#' || !(fields >> name >> key >> value)) {
      continue;
    }
    if (name == workload) {
      pins[key] = value;
    }
  }
  return pins;
}

void write_pins(const std::string& path, const std::string& workload,
                const Pins& pins) {
  std::vector<std::string> kept;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (!starts_with(line, workload + " ")) {
        kept.push_back(line);
      }
    }
  }
  std::ofstream out(path);
  for (const std::string& line : kept) {
    out << line << '\n';
  }
  for (const auto& [key, value] : pins) {
    out << workload << ' ' << key << ' ' << value << '\n';
  }
}

// --- output -----------------------------------------------------------------

struct Metric {
  Metric(std::string name_, double value_, std::string unit_,
         std::string note_ = "")
      : name(std::move(name_)),
        value(value_),
        unit(std::move(unit_)),
        note(std::move(note_)) {}

  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample counts etc., printed, not in the JSON
};

std::string json_number(double value) {
  return std::isfinite(value) ? format_double_roundtrip(value) : "0";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += cat(i == 0 ? "" : ", ", "\"", metrics[i].name, "\": {\"value\": ",
               json_number(metrics[i].value), ", \"unit\": \"",
               metrics[i].unit, "\"}");
  }
  return out + "}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = kPinSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string pins;
  std::string out_dir = ".bench_build/perfbench/out";
  std::string write_pins;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::runtime_error("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--pins") {
      args.pins = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--write-pins") {
      args.write_pins = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  return args;
}

/// Keeps the run independent of the caller's DSSOC_* environment: the
/// sweep layer reads its fabric, journal and overrides from there.
void clear_dssoc_environment() {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string var = *entry;
    if (starts_with(var, "DSSOC_")) {
      names.push_back(var.substr(0, var.find('=')));
    }
  }
  for (const std::string& name : names) {
    unsetenv(name.c_str());
  }
}

/// Everything the checks found, over all passes of a run.
struct Verdict {
  std::vector<std::string> failures;
  std::size_t attempted = 0;     ///< point results checked
  std::size_t failed = 0;        ///< failed checks, capped at attempted
  std::size_t pins_checked = 0;

  void fail(const std::string& what) {
    failures.push_back(what);
    ++failed;
  }
  bool correct() const { return failures.empty(); }
};

/// Per-pass failures, plus pass-to-pass determinism: digests and emulated
/// totals must repeat in every pass (traced ones included), and the wrapper
/// counters in every traced pass.
Verdict check_passes(const std::vector<Pass>& passes) {
  Verdict verdict;
  const Pass& first = passes.front();
  const Pass* traced_first = nullptr;
  for (const Pass& pass : passes) {
    verdict.attempted += pass.attempted;
    for (const std::string& failure : pass.failures) {
      verdict.fail(failure);
    }
    if (pass.digests != first.digests) {
      verdict.fail(pass.traced ? "traced digests differ from untraced digests"
                               : "digests drifted between passes");
    }
    if (!(pass.emu == first.emu)) {
      verdict.fail("emulated totals drifted between passes");
    }
    if (!pass.traced) {
      continue;
    }
    if (traced_first == nullptr) {
      traced_first = &pass;
      continue;
    }
    const Counters& a = traced_first->counters;
    const Counters& b = pass.counters;
    if (a.sched_calls != b.sched_calls || a.est_real != b.est_real ||
        a.est_logical != b.est_logical || a.inert_calls != b.inert_calls ||
        a.kernel_calls != b.kernel_calls) {
      verdict.fail("deterministic counters drifted between traced passes");
    }
    for (const char* key : {"exp.journal.reused", "exp.wire.result_bytes"}) {
      const auto x = traced_first->layers.find(key);
      const auto y = pass.layers.find(key);
      if (x != traced_first->layers.end() && y != pass.layers.end() &&
          x->second != y->second) {
        verdict.fail(cat(key, " drifted between traced passes"));
      }
    }
  }
  return verdict;
}

const Pass* first_traced(const std::vector<Pass>& passes) {
  for (const Pass& pass : passes) {
    if (pass.traced) {
      return &pass;
    }
  }
  return nullptr;
}

/// The values pinned at kPinSeed: every point's digest, the emulated totals
/// and, from a traced pass, the wrapper counters.
Pins observed_pins(const Setup& setup, const std::vector<Pass>& passes) {
  const Pass& first = passes.front();
  Pins observed;
  for (std::size_t i = 0; i < setup.points.size() && i < first.digests.size();
       ++i) {
    observed[setup.points[i].label] = format_hex64(first.digests[i]);
  }
  observed["core.engine.emu_tasks"] = std::to_string(first.emu.tasks);
  observed["core.engine.emu_sched_events"] =
      std::to_string(first.emu.sched_events);
  observed["core.engine.emu_makespan_ns"] = std::to_string(first.emu.makespan);
  observed["core.engine.emu_sched_overhead_ns"] =
      std::to_string(first.emu.sched_overhead);
  if (const Pass* traced = first_traced(passes)) {
    const Counters& c = traced->counters;
    observed["core.sched.calls"] = std::to_string(c.sched_calls);
    observed["core.sched.est_real"] = std::to_string(c.est_real);
    observed["core.sched.est_logical"] = std::to_string(c.est_logical);
    observed["core.sched.inert_calls"] = std::to_string(c.inert_calls);
    observed["apps.kernel.calls"] = std::to_string(c.kernel_calls);
    for (const char* key : {"exp.journal.reused", "exp.wire.result_bytes"}) {
      const auto it = traced->layers.find(key);
      if (it != traced->layers.end()) {
        observed[key] = format_double_roundtrip(it->second);
      }
    }
  }
  return observed;
}

void check_pins(Verdict& verdict, const Pins& observed, const Pins& pinned,
                bool traced) {
  if (pinned.empty()) {
    verdict.fail("the pins file has no entries for this workload");
  }
  // Point labels contain '/'; counter keys do not. Wrapper counters exist
  // only in traced runs.
  for (const auto& [key, value] : pinned) {
    const auto it = observed.find(key);
    if (it == observed.end()) {
      if (traced || key.find('/') != std::string::npos) {
        verdict.fail(cat("pinned ", key, " was not observed"));
      }
      continue;
    }
    ++verdict.pins_checked;
    if (it->second != value) {
      verdict.fail(cat("pinned ", key, " = ", value, ", observed ",
                       it->second));
    }
  }
  for (const auto& [key, value] : observed) {
    if (pinned.count(key) == 0) {
      verdict.fail(cat(key, " = ", value, " has no pin"));
    }
  }
}

/// One sample per point: its median host time over the untraced passes, so
/// percentiles describe which points are slow, not host hiccups.
std::vector<double> point_medians(std::size_t n_points,
                                  const std::vector<Pass>& passes) {
  std::vector<std::vector<double>> samples(n_points);
  for (const Pass& pass : passes) {
    for (std::size_t i = 0; !pass.traced && i < pass.point_ms.size() &&
                            i < n_points;
         ++i) {
      samples[i].push_back(pass.point_ms[i]);
    }
  }
  std::vector<double> medians;
  for (const std::vector<double>& point : samples) {
    medians.push_back(median(point));
  }
  return medians;
}

std::vector<double> pass_values(const std::vector<Pass>& passes, bool traced,
                                double Pass::*field) {
  std::vector<double> values;
  for (const Pass& pass : passes) {
    if (pass.traced == traced) {
      values.push_back(pass.*field);
    }
  }
  return values;
}

std::vector<Metric> end_to_end_metrics(const Bench& bench,
                                       const WorkloadInfo& workload,
                                       const std::vector<Pass>& passes,
                                       const std::vector<double>& point_ms,
                                       const Verdict& verdict) {
  const std::vector<double> wall = pass_values(passes, false, &Pass::wall_s);
  const std::string passes_note = cat("median of ", wall.size(), " passes");
  const std::string points_note =
      cat("n=", point_ms.size(), " points x ", wall.size(), " passes");
  const Tail tail = tail_of(point_ms);
  const double ok_frac =
      1.0 - static_cast<double>(std::min(verdict.failed, verdict.attempted)) /
                static_cast<double>(std::max<std::size_t>(verdict.attempted, 1));
  return {
      {"setup_s", median(bench.setup_s()), "s",
       cat("median of ", bench.setup_s().size(), " set-ups")},
      {"wall_s", median(wall), "s", passes_note},
      {"cpu_s", median(pass_values(passes, false, &Pass::cpu_s)), "s",
       passes_note},
      {"point_p50_ms", nearest_rank(point_ms, 50.0), "ms", points_note},
      {"point_tail_ms", tail.value, "ms",
       cat(percentile_name(tail.percentile), ", ", points_note)},
      {"resume_s", median(pass_values(passes, false, &Pass::resume_s)), "s",
       workload.fabric == Fabric::kProcessPool
           ? passes_note + ", journal replay"
           : passes_note + ", no journal: recompute"},
      {"peak_rss_mb", usage_now().peak_rss_mb, "MB", "self + largest worker"},
      {"ok_frac", ok_frac, "frac",
       cat("failed_frac = ", 1.0 - ok_frac, " (", verdict.failed, " of ",
           verdict.attempted, ")")},
  };
}

std::vector<Metric> layer_metrics(const Bench& bench,
                                  const std::vector<Pass>& passes) {
  std::map<std::string, std::vector<double>> layers;
  std::vector<double> sched_us;
  for (const Pass& pass : passes) {
    if (!pass.traced) {
      continue;
    }
    for (const auto& [key, value] : pass.layers) {
      layers[key].push_back(value);
    }
    sched_us.insert(sched_us.end(), pass.sched_call_us.begin(),
                    pass.sched_call_us.end());
  }
  const auto layer = [&](const std::string& key) {
    const auto it = layers.find(key);
    return it == layers.end() ? 0.0 : median(it->second);
  };
  const auto set_up = [&](const std::string& key) {
    return median(bench.setup_layers().at(key));
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto count = [](std::uint64_t value) {
    return static_cast<double>(value);
  };
  const Pass& traced = *first_traced(passes);
  const Counters& c = traced.counters;
  const EmuTotals& emu = traced.emu;
  const double engine_ms = layer("core.engine.host_ms");
  const Tail sched_tail = tail_of(sched_us);
  const std::string calls_note = cat("n=", sched_us.size(), " calls");

  std::vector<Metric> metrics = {
      {"core.sched.calls", count(c.sched_calls), "count"},
      {"core.sched.host_ms", layer("core.sched.host_ms"), "ms"},
      {"core.sched.call_p50_us", nearest_rank(sched_us, 50.0), "us",
       calls_note},
      {"core.sched.call_tail_us", sched_tail.value, "us",
       cat(percentile_name(sched_tail.percentile), ", ", calls_note)},
      {"core.sched.ready_scanned", count(c.ready_scanned), "count"},
      {"core.sched.assigned", count(c.assigned), "count"},
      {"core.sched.inert_frac",
       ratio(count(c.inert_calls), count(c.sched_calls)), "frac"},
      {"core.sched.est_real", count(c.est_real), "count"},
      {"core.sched.est_logical", count(c.est_logical), "count"},
      {"core.sched.est_real_per_logical",
       ratio(count(c.est_real), count(c.est_real + c.est_logical)), "frac"},
      {"apps.kernel.calls", count(c.kernel_calls), "count"},
      {"apps.kernel.host_ms", layer("apps.kernel.host_ms"), "ms"},
  };
  for (const char* kernel : kHotKernels) {
    const std::string key = cat("apps.kernel.", kernel, ".host_ms");
    metrics.emplace_back(key, layer(key), "ms");
  }
  const std::vector<Metric> rest = {
      {"apps.wifi_rx.crc_pass", count(c.crc_pass), "count"},
      {"core.engine.host_ms", engine_ms, "ms"},
      {"core.engine.self_ms", layer("core.engine.self_ms"), "ms"},
      {"core.engine.ns_per_task", ratio(engine_ms * 1e6, count(emu.tasks)),
       "ns"},
      {"core.engine.emu_tasks", count(emu.tasks), "count"},
      {"core.engine.emu_sched_events", count(emu.sched_events), "count"},
      {"core.engine.emu_makespan_ms", sim_to_ms(emu.makespan), "ms"},
      {"core.engine.emu_sched_overhead_ms", sim_to_ms(emu.sched_overhead),
       "ms"},
      {"core.arrivals.gen_ms", set_up("core.arrivals.gen_ms"), "ms"},
      {"core.arrivals.entries", count(bench.setup().arrival_entries),
       "count"},
      {"core.stats.digest_ms", layer("core.stats.digest_ms"), "ms"},
      {"core.stats.summary_ms", layer("core.stats.summary_ms"), "ms"},
      {"apps.library_ms", set_up("apps.library_ms"), "ms"},
      {"apps.register_ms", set_up("apps.register_ms"), "ms"},
      {"platform.build_ms", set_up("platform.build_ms"), "ms"},
      {"exp.fabric.dispatch_ms", layer("exp.fabric.dispatch_ms"), "ms"},
      {"exp.fabric.efficiency", layer("exp.fabric.efficiency"), "frac"},
      {"exp.fabric.retries", layer("exp.fabric.retries"), "count"},
      {"exp.fabric.respawns", layer("exp.fabric.respawns"), "count"},
      {"exp.wire.result_bytes", layer("exp.wire.result_bytes"), "bytes"},
      {"exp.wire.encode_us", layer("exp.wire.encode_us"), "us"},
      {"exp.wire.decode_us", layer("exp.wire.decode_us"), "us"},
      {"exp.journal.bytes", layer("exp.journal.bytes"), "bytes"},
      {"exp.journal.append_ms", layer("exp.journal.append_ms"), "ms"},
      {"exp.journal.open_ms", layer("exp.journal.open_ms"), "ms"},
      {"exp.journal.hash_ms", layer("exp.journal.hash_ms"), "ms"},
      {"exp.journal.reused", layer("exp.journal.reused"), "count"},
      {"exp.artifact.to_json_ms", layer("exp.artifact.to_json_ms"), "ms"},
      {"exp.artifact.write_ms", layer("exp.artifact.write_ms"), "ms"},
      {"exp.artifact.bytes", layer("exp.artifact.bytes"), "bytes"},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());
  const std::vector<double> wall = pass_values(passes, false, &Pass::wall_s);
  const std::vector<double> traced_wall =
      pass_values(passes, true, &Pass::wall_s);
  metrics.emplace_back("trace.overhead_frac",
                       median(traced_wall) / median(wall) - 1.0, "frac",
                       cat("traced ", traced_wall.size(), " / untraced ",
                           wall.size(), " passes"));

  std::cout << "kernel time shares (traced):\n";
  for (const auto& [key, values] : layers) {
    if (starts_with(key, "kernel-share.") && median(values) >= 0.01) {
      std::cout << "  " << key.substr(13) << "  "
                << format_double(100.0 * median(values), 1) << " %\n";
    }
  }
  return metrics;
}

int run(const Args& args) {
  const WorkloadInfo* workload = find_workload(args.workload);
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload \"" << args.workload << "\"\n";
    return 2;
  }
  clear_dssoc_environment();
  register_traced_schedulers();
  fs::create_directories(args.out_dir);

  const double calib_ms = calibration_ms();
  double load[3] = {0.0, 0.0, 0.0};
  getloadavg(load, 3);
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);

  Bench bench(*workload, args.seed, args.out_dir);
  bench.set_up();
  const Setup& setup = bench.setup();
  const std::size_t n_points = setup.points.size();

  std::vector<Pass> passes;
  const std::int64_t start = now_ns();
  const std::size_t min_passes = args.trace ? 2 : 3;
  while (passes.size() < min_passes ||
         static_cast<double>(now_ns() - start) / 1e9 < args.seconds) {
    passes.push_back(bench.run_pass(args.trace && passes.size() % 2 == 1));
  }
  fs::remove_all(cat(args.out_dir, "/sweep-", getpid()));

  Verdict verdict = check_passes(passes);
  const Pins observed = observed_pins(setup, passes);
  if (!args.write_pins.empty()) {
    write_pins(args.write_pins, workload->name, observed);
  }
  if (args.seed == kPinSeed && !args.pins.empty()) {
    check_pins(verdict, observed, read_pins(args.pins, workload->name),
               args.trace);
  }
  verdict.failed = std::min(verdict.failed, verdict.attempted);

  const std::vector<double> point_ms = point_medians(n_points, passes);
  const std::vector<Metric> metrics =
      args.trace ? layer_metrics(bench, passes)
                 : end_to_end_metrics(bench, *workload, passes, point_ms,
                                      verdict);

  // --- report ---------------------------------------------------------------
  const char* correct = verdict.correct() ? "true" : "false";
  std::cout << "perfbench workload=" << workload->name
            << " seed=" << args.seed << " trace=" << (args.trace ? 1 : 0)
            << " points=" << n_points << " passes=" << passes.size() << "\n"
            << "host: nproc=" << nproc << " loadavg="
            << format_double(load[0], 2) << "/" << format_double(load[1], 2)
            << "/" << format_double(load[2], 2)
            << " calibration_ms=" << format_double(calib_ms, 2) << "\n"
            << "checks: " << (verdict.correct() ? "ok" : "FAILED") << " ("
            << verdict.attempted << " point results, " << verdict.pins_checked
            << " pinned values checked"
            << (args.seed == kPinSeed ? ""
                                      : "; unpinned seed: pass-to-pass and "
                                        "traced == untraced digests only")
            << ")\n";
  for (const std::string& failure : verdict.failures) {
    std::cout << "  FAIL " << failure << "\n";
  }
  if (passes.front().stable_cuts > 0) {
    std::cout << "note: " << passes.front().stable_cuts
              << " stable-load point(s) per pass were ended by the task-count "
                 "backlog limit (each holds >= 2 pulse_doppler jobs)\n";
  }
  std::cout << "pass wall s:";
  for (const Pass& pass : passes) {
    std::cout << " " << format_double(pass.wall_s, 3)
              << (pass.traced ? "t" : "");
  }
  std::cout << "\n";
  if (!args.trace && n_points <= 16) {
    std::cout << "point host time, median over passes:\n";
    for (std::size_t i = 0; i < n_points; ++i) {
      std::cout << "  " << setup.points[i].label << "  "
                << format_double(point_ms[i], 3) << " ms\n";
    }
  }
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << (m.note.empty() ? "" : "  (" + m.note + ")")
              << "\n";
  }

  const std::string tag =
      cat(workload->name, "-seed", args.seed, "-trace", args.trace ? 1 : 0);
  {
    std::ofstream record(cat(args.out_dir, "/run-", tag, ".json"));
    record << "{\"workload\": \"" << workload->name << "\", \"seed\": "
           << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
           << ", \"passes\": " << passes.size() << ", \"host\": {\"nproc\": "
           << nproc << ", \"loadavg_1m\": " << json_number(load[0])
           << ", \"calibration_ms\": " << json_number(calib_ms)
           << "}, \"correct\": " << correct
           << ", \"metrics\": " << metrics_json(metrics) << "}\n";
  }
  if (args.trace) {
    tracer().write_csv(cat(args.out_dir, "/spans-", tag, ".csv"));
  }

  std::cout << "{\"correct\": " << correct << ", \"attempted\": "
            << verdict.attempted << ", \"failed\": " << verdict.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return verdict.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
