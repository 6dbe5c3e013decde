// End-to-end benchmark: application event -> runtime decision, replayed
// through each path a runtime system uses (in-process predict, the
// predict daemon, the online oracle). See bench/e2e/README.md.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "core/trace_io.hpp"
#include "ompsim/adaptive.hpp"
#include "ompsim/machine.hpp"

namespace pythia::e2e {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Linear-interpolated percentile, p in [0, 100]; 0 for no samples.
double percentile(std::vector<double> samples, double p);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// Percentile of durations read from a 1 ns clock. Each value v stands
/// for [v - 0.5, v + 0.5) and the rank is interpolated within its ties
/// (the interpolated median of discrete data), so a steady latency keeps
/// its sub-ns digits instead of snapping to one integer.
double ns_percentile(std::vector<double> samples, double p);

/// Element-wise minimum over the repetitions of one sequence of timings
/// that every round reproduces in the same order: a round's segments, or
/// its decisions. A shared host slows stretches of 0.1–1 s by up to 1.7x;
/// a round-level statistic moves with the share of slow stretches, while
/// the minimum of each short element over many rounds is its uncontended
/// time (README.md, "Noise").
class Floor {
 public:
  void add(const std::vector<double>& samples) {
    if (min_.empty()) {
      min_ = samples;
      return;
    }
    for (std::size_t i = 0; i < min_.size() && i < samples.size(); ++i) {
      min_[i] = std::min(min_[i], samples[i]);
    }
  }
  const std::vector<double>& values() const { return min_; }
  double sum() const {
    double total = 0.0;
    for (const double value : min_) total += value;
    return total;
  }

 private:
  std::vector<double> min_;
};

/// Element-wise median over the first `max_rounds` repetitions of one
/// sequence of timings. For daemon decisions, whose latency depends on how
/// three clients' requests interleave in the loop: their minimum is an
/// extreme value that deepens with every round, their median is each
/// request's typical latency, and a preemption moves it only when it hits
/// the same request in most rounds. The storage is written up front, so
/// peak memory does not depend on how many rounds a run makes.
class RoundMedian {
 public:
  RoundMedian(std::size_t elements, std::size_t max_rounds)
      : elements_(elements),
        max_rounds_(max_rounds),
        samples_(elements * max_rounds) {}

  void add(const std::vector<double>& samples) {
    if (rounds_ == max_rounds_ || samples.size() != elements_) return;
    for (std::size_t i = 0; i < elements_; ++i) {
      samples_[i * max_rounds_ + rounds_] = static_cast<float>(samples[i]);
    }
    ++rounds_;
  }

  std::vector<double> values() const {
    std::vector<double> out(elements_);
    std::vector<double> element(rounds_);
    for (std::size_t i = 0; i < elements_; ++i) {
      const auto first =
          samples_.begin() + static_cast<std::ptrdiff_t>(i * max_rounds_);
      std::copy_n(first, rounds_, element.begin());
      out[i] = median(element);
    }
    return out;
  }

 private:
  std::size_t elements_;
  std::size_t max_rounds_;
  std::size_t rounds_ = 0;
  std::vector<float> samples_;  ///< element-major
};

/// In-memory span log of a traced run, one per thread: spans are recorded
/// around calls into public functions and written out at exit. Keeps the
/// first kMaxSpans spans (~5 MiB); later ones are dropped, so a long
/// traced run stays small.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  static constexpr std::size_t kMaxSpans = 1u << 17;

  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t parent;
    std::uint64_t request;
  };

  std::uint32_t add(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint32_t parent = kNoParent,
                    std::uint64_t request = 0) {
    if (spans_.size() == kMaxSpans) return kNoParent;
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Durations (ns) of every span named `name` across `tracers`.
std::vector<double> span_durations(const std::vector<Tracer>& tracers,
                                   const std::string& name);

/// Writes one line per span (tracer, index, name, start, end, parent,
/// request, self time = duration minus the child spans), the first 2^14
/// spans of each tracer. False on I/O failure.
bool write_spans(const std::vector<Tracer>& tracers, const std::string& path);

/// One rank's event stream as the application produced it.
struct RankStream {
  std::vector<TerminalId> events;
  std::vector<std::uint64_t> times;   ///< virtual ns, as the runtime saw it
  std::vector<std::uint8_t> decision;  ///< 1 at GOMP_parallel_start events
  std::size_t decisions = 0;
};

enum class Path { kInProcess, kDaemon, kOnline };

struct Workload {
  const char* name;
  Path path;
  const apps::App* app;
  apps::WorkingSet set;
  ompsim::MachineModel machine;
  int max_threads;
  /// 0: the reference and the one live run are at seed S. n > 0: the
  /// reference is recorded once, at kDivergingReferenceSeed, and n live
  /// runs at seeds S+1..S+n, which all diverge from it, replay back to
  /// back.
  int diverging_runs;
};

inline constexpr std::uint64_t kDivergingReferenceSeed = 0;

/// The in-process CompiledPredictor answer at one decision position: what
/// a daemon session over the same trace must reply.
struct Expected {
  bool degraded = false;
  bool has = false;
  TerminalId event = 0;
  double probability = 0.0;
};

/// Everything a workload's timed rounds replay, built once, untimed.
struct Prepared {
  int ranks = 0;
  ompsim::AdaptivePolicy policy;

  /// thread_section_digest of each rank of the harness-recorded reference.
  std::vector<std::uint64_t> reference_digests;
  std::string trace_path;  ///< the reference, saved (with compiled sections)
  Trace served;            ///< trace_path loaded back: what predict serves

  /// Reference-run streams (reference ids and timing): record rounds.
  std::vector<RankStream> record_streams;
  /// Live-run streams: decision rounds (online: the record streams).
  std::vector<RankStream> live_streams;
  std::uint64_t record_events = 0;
  std::uint64_t live_events = 0;
  std::uint64_t live_decisions = 0;

  double virtual_speedup = 0.0;  ///< vanilla / guided makespan (virtual)
  std::vector<std::vector<Expected>> expected;  ///< per rank, per decision
};

/// Runs the workload's applications through harness::run_app (record,
/// guided and vanilla), captures every rank's stream with an event hook,
/// saves and reloads the reference under `dir`. Empty `error` on success.
Prepared prepare(const Workload& workload, std::uint64_t seed,
                 const std::string& dir, std::string& error);

}  // namespace pythia::e2e
