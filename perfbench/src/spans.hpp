// Benchmark-side span timer for the traced run.
//
// The traced run wraps each call into a HotC module's public function in a
// Span.  Every span's duration lands in memory (one sample per call); its
// self time is the duration minus the time of spans opened inside it, and
// the time of outermost spans is summed so the simulator loop's own time
// can be derived as "run time not inside any timed call".
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

enum class Layer : std::size_t {
  kGatewaySubmit,     // faas::Gateway::submit
  kBackendDispatch,   // faas::Backend::dispatch (HotCBackend)
  kAdaptiveTick,      // HotCController::adaptive_tick
  kPredictorStep,     // predict::Predictor::observe + predict
  kRecorderAdd,       // metrics::LatencyRecorder::add
  kRuntimeSubmit,     // runtime::RealHotC::submit
  kRuntimeWait,       // std::future<RealOutcome>::get
  kCount,
};

inline const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kGatewaySubmit: return "faas.submit";
    case Layer::kBackendDispatch: return "faas.dispatch";
    case Layer::kAdaptiveTick: return "hotc.tick";
    case Layer::kPredictorStep: return "predict.step";
    case Layer::kRecorderAdd: return "metrics.record";
    case Layer::kRuntimeSubmit: return "runtime.submit";
    case Layer::kRuntimeWait: return "runtime.wait";
    case Layer::kCount: break;
  }
  return "?";
}

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct LayerTimes {
    std::vector<std::uint32_t> samples_ns;  // one per call, saturating
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;

    [[nodiscard]] std::uint64_t calls() const { return samples_ns.size(); }
    [[nodiscard]] double mean_us() const {
      return samples_ns.empty()
                 ? 0.0
                 : static_cast<double>(total_ns) / 1e3 /
                       static_cast<double>(samples_ns.size());
    }
  };

  /// RAII span: times one call into `layer`.
  class Span {
   public:
    Span(SpanLog& log, Layer layer)
        : log_(log), layer_(layer), start_(Clock::now()) {
      log_.child_ns_.push_back(0);
    }
    ~Span() {
      const auto dur = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start_)
              .count());
      const std::uint64_t children = log_.child_ns_.back();
      log_.child_ns_.pop_back();
      LayerTimes& t = log_.layers_[static_cast<std::size_t>(layer_)];
      constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
      t.samples_ns.push_back(static_cast<std::uint32_t>(std::min(dur, kMax)));
      t.total_ns += dur;
      t.self_ns += dur - std::min(dur, children);
      if (log_.child_ns_.empty()) {
        log_.outermost_ns_ += dur;
      } else {
        log_.child_ns_.back() += dur;
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    SpanLog& log_;
    Layer layer_;
    Clock::time_point start_;
  };

  [[nodiscard]] const LayerTimes& layer(Layer l) const {
    return layers_[static_cast<std::size_t>(l)];
  }
  /// Summed duration of spans not nested in another span.
  [[nodiscard]] std::uint64_t outermost_ns() const { return outermost_ns_; }

  void reserve(Layer l, std::size_t n) {
    layers_[static_cast<std::size_t>(l)].samples_ns.reserve(n);
  }

 private:
  std::array<LayerTimes, static_cast<std::size_t>(Layer::kCount)> layers_{};
  std::vector<std::uint64_t> child_ns_;
  std::uint64_t outermost_ns_ = 0;
};

}  // namespace perfbench
