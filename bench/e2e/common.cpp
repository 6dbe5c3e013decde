#include <algorithm>
#include <cstdio>

#include "bench/e2e/e2e.hpp"

namespace pythia::e2e {
double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double ns_percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double target = p / 100.0 * static_cast<double>(samples.size());
  const auto index = std::min(static_cast<std::size_t>(target),
                              samples.size() - 1);
  const double value = samples[index];
  const auto first = std::lower_bound(samples.begin(), samples.end(), value);
  const auto last = std::upper_bound(samples.begin(), samples.end(), value);
  const auto below = static_cast<double>(first - samples.begin());
  const auto ties = static_cast<double>(last - first);
  return value - 0.5 + (target - below) / ties;
}

namespace {

/// Spans written per tracer: the metrics use every span kept in memory,
/// the file only needs a sample to read.
constexpr std::size_t kWrittenSpans = 1u << 14;

/// Per span: the summed durations of its direct children.
std::vector<std::uint64_t> child_durations(const Tracer& tracer) {
  const std::vector<Tracer::Span>& spans = tracer.spans();
  std::vector<std::uint64_t> children(spans.size(), 0);
  for (const Tracer::Span& span : spans) {
    if (span.parent != Tracer::kNoParent) {
      children[span.parent] += span.end_ns - span.start_ns;
    }
  }
  return children;
}

std::uint64_t self_ns(const Tracer::Span& span, std::uint64_t children) {
  const std::uint64_t duration = span.end_ns - span.start_ns;
  return duration > children ? duration - children : 0;
}

}  // namespace

std::vector<double> span_durations(const std::vector<Tracer>& tracers,
                                   const std::string& name) {
  std::vector<double> out;
  for (const Tracer& tracer : tracers) {
    for (const Tracer::Span& span : tracer.spans()) {
      if (name == span.name) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns));
      }
    }
  }
  return out;
}

bool write_spans(const std::vector<Tracer>& tracers, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "tracer\tspan\tname\tstart_ns\tend_ns\tparent\trequest\t"
                     "self_ns\n");
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Tracer::Span>& spans = tracers[t].spans();
    const std::vector<std::uint64_t> children = child_durations(tracers[t]);
    const std::size_t written = std::min(spans.size(), kWrittenSpans);
    for (std::size_t i = 0; i < written; ++i) {
      const Tracer::Span& span = spans[i];
      std::fprintf(file, "%zu\t%zu\t%s\t%llu\t%llu\t%lld\t%llu\t%llu\n", t, i,
                   span.name, static_cast<unsigned long long>(span.start_ns),
                   static_cast<unsigned long long>(span.end_ns),
                   span.parent == Tracer::kNoParent
                       ? -1LL
                       : static_cast<long long>(span.parent),
                   static_cast<unsigned long long>(span.request),
                   static_cast<unsigned long long>(self_ns(span, children[i])));
    }
  }
  return std::fclose(file) == 0;
}

}  // namespace pythia::e2e
