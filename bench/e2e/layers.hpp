// Per-layer probes: each layer's public calls timed in isolation over the
// workload's own trace and streams. Calls on the nanosecond scale use the
// batched protocol of bench/compiled (one sample = mean of 64 calls), so
// the clock read is amortized instead of dominating the sample.
#pragma once

#include <string>
#include <vector>

#include "bench/e2e/e2e.hpp"
#include "bench/e2e/paths.hpp"

namespace pythia::e2e {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Per-decision medians of the daemon request path measured off the
/// socket; main.cpp subtracts them from the round trips.
struct CodecCosts {
  double encode_ns = 0.0;  ///< observe + predict request, per decision
  double decode_ns = 0.0;  ///< observe + predict reply, per decision
  double on_bytes_observe_ns = 0.0;
  double on_bytes_predict_ns = 0.0;
};

/// Appends the probe-measured layer metrics (record append, load and
/// acquire, predict observe/query, policy, online observe, engine session,
/// admission, wire codec, server core) to `out`. `predict_pass` supplies
/// the counters and the predicted durations the policy probe replays.
CodecCosts probe_layers(const Prepared& prepared, const Pass& predict_pass,
                        Metrics& out);

}  // namespace pythia::e2e
