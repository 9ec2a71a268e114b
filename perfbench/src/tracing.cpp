#include "tracing.hpp"

#include <chrono>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "core/scheduler.hpp"

namespace perfbench {

using namespace dssoc;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t Tracer::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<std::uint32_t>(i);
    }
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::size_t Tracer::open(std::uint32_t name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  span.point = point_;
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  spans_.back().start_ns = now_ns();
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  out << "name,parent,point,start_ns,end_ns\n";
  for (const Span& span : spans_) {
    out << names_[span.name] << ',' << span.parent << ',' << span.point << ','
        << span.start_ns << ',' << span.end_ns << '\n';
  }
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

ScopedSpan::ScopedSpan(std::uint32_t name) {
  if (tracer().enabled()) {
    index_ = tracer().open(name);
  }
}

ScopedSpan::~ScopedSpan() {
  if (index_ != kNone) {
    tracer().close(index_);
  }
}

Counters& counters() {
  static Counters instance;
  return instance;
}

namespace {

constexpr const char* kPrefix = "perfbench";

/// Forwards every estimator call to the engine's estimator and counts it.
class CountingEstimator final : public core::ExecutionEstimator {
 public:
  const core::ExecutionEstimator* inner = nullptr;

  SimTime estimate(const core::TaskInstance& task,
                   const core::PlatformOption& option,
                   const core::ResourceHandler& handler) const override {
    ++counters().est_real;
    return inner->estimate(task, option, handler);
  }
  SimTime available_at(const core::ResourceHandler& handler) const override {
    ++counters().est_real;
    return inner->available_at(handler);
  }
  void note_logical_estimates(std::size_t count) const override {
    counters().est_logical += count;
    inner->note_logical_estimates(count);
  }
  void note_external_latency_ns(std::uint64_t host_ns) const override {
    inner->note_external_latency_ns(host_ns);
  }
};

/// Delegating scheduler: same name, state and time invariance as the
/// wrapped policy, so the engine's decisions and charges are unchanged.
class TracedScheduler final : public core::Scheduler {
 public:
  explicit TracedScheduler(std::unique_ptr<core::Scheduler> inner)
      : inner_(std::move(inner)), span_(tracer().intern("core.sched")) {}

  const std::string& name() const override { return inner_->name(); }

  void schedule(core::ReadyList& ready,
                std::vector<core::ResourceHandler*>& handlers,
                core::SchedulerContext& ctx) override {
    Counters& c = counters();
    const std::size_t before = ready.size();
    ++c.sched_calls;
    c.ready_scanned += before;
    const core::ExecutionEstimator* real = ctx.estimator;
    if (real != nullptr) {
      proxy_.inner = real;
      ctx.estimator = &proxy_;
    }
    {
      ScopedSpan span(span_);
      inner_->schedule(ready, handlers, ctx);
    }
    ctx.estimator = real;
    const std::size_t assigned = before - ready.size();
    c.assigned += assigned;
    c.inert_calls += assigned == 0 ? 1 : 0;
  }

  void save_state(StateWriter& out) const override { inner_->save_state(out); }
  void load_state(StateReader& in) override { inner_->load_state(in); }
  bool time_invariant() const override { return inner_->time_invariant(); }

 private:
  std::unique_ptr<core::Scheduler> inner_;
  CountingEstimator proxy_;
  std::uint32_t span_;
};

/// Application names of apps::default_application_library().
const std::vector<std::string>& library_app_names() {
  static const std::vector<std::string> names = {
      "wifi_tx", "wifi_rx", "range_detection", "pulse_doppler"};
  return names;
}

}  // namespace

void register_traced_schedulers() {
  core::SchedulerRegistry& registry = core::SchedulerRegistry::instance();
  for (const std::string& prefix : registry.prefix_names()) {
    if (prefix == kPrefix) {
      return;
    }
  }
  registry.register_prefix(kPrefix, [](const std::string& spec) {
    const std::string policy = spec.substr(std::string(kPrefix).size() + 1);
    return std::make_unique<TracedScheduler>(
        core::SchedulerRegistry::instance().create(policy));
  });
}

std::string traced_scheduler(const std::string& policy) {
  return std::string(kPrefix) + ":" + policy;
}

core::SharedObjectRegistry bench_registry(
    const core::SharedObjectRegistry& real,
    const core::ApplicationLibrary& library, bool traced) {
  core::SharedObjectRegistry out;
  for (const std::string& app : library_app_names()) {
    const core::AppModel& model = library.get(app);
    for (const core::DagNode& node : model.nodes) {
      for (const core::PlatformOption& option : node.platforms) {
        const std::string& object = option.shared_object.empty()
                                        ? model.shared_object
                                        : option.shared_object;
        if (!out.has_object(object)) {
          out.create_object(object);
        }
        core::SharedObject& target = out.mutable_object(object);
        if (target.has_symbol(option.runfunc)) {
          continue;
        }
        const core::KernelFn& kernel = real.resolve(object, option.runfunc);
        const bool crc = option.runfunc == "wifi_rx_crc_check";
        if (!traced && !crc) {
          target.add_symbol(option.runfunc, kernel);
          continue;
        }
        const std::uint32_t span =
            tracer().intern("apps.kernel." + option.runfunc);
        target.add_symbol(option.runfunc, [&kernel, span, traced,
                                           crc](core::KernelContext& ctx) {
          if (traced) {
            ++counters().kernel_calls;
            ScopedSpan timed(span);
            kernel(ctx);
          } else {
            kernel(ctx);
          }
          if (crc) {
            // Argument 3 of the CRC node is the crc_ok flag it just wrote.
            ++counters().crc_checks;
            counters().crc_pass += ctx.scalar<std::uint32_t>(3) == 1 ? 1 : 0;
          }
        });
      }
    }
  }
  return out;
}

}  // namespace perfbench
