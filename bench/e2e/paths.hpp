// The decision paths a runtime system uses, as timed rounds over a
// Prepared workload.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/e2e/e2e.hpp"
#include "core/oracle.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"

namespace pythia::e2e {

/// Registry name of the prepared trace wherever it is served.
inline constexpr const char* kTraceName = "e2e";

/// Decision outcomes of one pass or round. Every field is a pure function
/// of the streams, so every round must reproduce them.
struct Tally {
  std::uint64_t decisions = 0;
  std::uint64_t served = 0;    ///< acted on a prediction
  std::uint64_t degraded = 0;  ///< oracle distrusted: vanilla policy
  /// Sum of decision outcomes: team sizes in-process, predicted event ids
  /// through the daemon (which has no duration query).
  std::uint64_t choice_sum = 0;
  std::uint64_t scored = 0;    ///< served decisions with a next event
  std::uint64_t hits = 0;      ///< ...whose predicted next event happened

  /// `with_accuracy` compares scored and hits too; in-process throughput
  /// rounds do not score, because scoring would add a query to the timing.
  bool same_decisions(const Tally& other, bool with_accuracy) const {
    return decisions == other.decisions && served == other.served &&
           degraded == other.degraded && choice_sum == other.choice_sum &&
           (!with_accuracy || (scored == other.scored && hits == other.hits));
  }
};

/// Events per segment of an in-process round: one clock read per segment,
/// ~50 µs to ~2 ms of work depending on the workload.
inline constexpr std::size_t kSegmentEvents = 1024;

struct Round {
  double events_per_s = 0.0;  ///< daemon: all clients' events / wall time
  /// In-process rounds: wall time of each kSegmentEvents-event piece of
  /// each rank's stream, in stream order.
  std::vector<double> segment_ns;
  std::vector<double> latencies_ns;  ///< per decision; latency rounds only
  Tally tally;  ///< scored and hits: latency and daemon rounds only
  std::vector<std::uint64_t> ramp_digests;  ///< online oracles, per rank
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< daemon: transport error or non-kOk
  std::uint64_t mismatches = 0;  ///< daemon: kOk reply != in-process answer
  double busy_share = 0.0;       ///< daemon: loop CPU / wall
};

/// Untimed pass with accuracy scoring and the layer counters.
struct Pass {
  Tally tally;
  std::uint64_t observed = 0;  ///< events the predictors saw
  std::uint64_t reanchored = 0;
  std::uint64_t anchors_suppressed = 0;
  std::vector<double> predicted_ns;  ///< served duration predictions
  std::uint64_t publishes = 0;       ///< online only
  std::uint64_t incremental_publishes = 0;
  std::uint64_t first_served_event = 0;  ///< max over ranks
  std::uint64_t ramp_trips = 0;
};

/// In-process (reference-guided predict) or online oracles, one per rank.
Pass oracle_pass(const Prepared& prepared, bool online);

/// One round over every rank's live stream on this thread. Throughput
/// rounds read no clock per call, only one per segment; latency rounds
/// time each decision and score its next-event prediction after the clock
/// stops. With a tracer every decision (and, online, every publishing
/// observe) gets a span.
Round oracle_round(const Prepared& prepared, bool online, bool latency,
                   Tracer* tracer);

/// Record-mode replay of the reference streams followed by set-up: finish
/// on all ranks, save (compiles), then load (or a cold registry acquire
/// of the mapped file when `mapped`).
struct RecordRep {
  double finish_ns = 0.0;
  double save_ns = 0.0;
  double load_ns = 0.0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t rules = 0;
  std::vector<std::uint64_t> digests;
  std::string error;

  double setup_s() const { return (finish_ns + save_ns + load_ns) * 1e-9; }
};
RecordRep record_rep(const Prepared& prepared, bool mapped,
                     const std::string& path, Tracer* tracer);

/// Online set-up: wall time from fresh Oracle::online() per rank to the
/// first event at which its ramp serves, summed over ranks. Empty when a
/// rank never serves.
std::optional<double> online_first_serve_s(const Prepared& prepared);

/// Daemon configuration of the benchmark: tenant limits so high nothing
/// sheds, and breaker jitter 0 so replies are deterministic.
serve::DaemonOptions daemon_options();

/// A predict daemon on a Unix socket serving the prepared trace, and
/// kClients client threads, each with its own PredictClient, connection
/// and tenant. Tenant limits are set so nothing sheds.
class DaemonBench {
 public:
  static constexpr int kClients = 3;

  DaemonBench(const Prepared& prepared, const std::string& socket_path);
  ~DaemonBench();
  DaemonBench(const DaemonBench&) = delete;
  DaemonBench& operator=(const DaemonBench&) = delete;

  const std::string& error() const { return error_; }

  /// Every client replays every rank's live stream, one session per rank:
  /// at each decision observe(events since the last one), then
  /// predict(1, 1). `tracers` (kClients of them) may be null.
  Round round(bool latency, std::vector<Tracer>* tracers);

  /// Round-trip times (ns) of `count` pings from every client at once:
  /// the transport (socket, poll loop, wake-ups, queueing) under the same
  /// concurrency as a round, with next to no server work.
  std::vector<double> pings(std::size_t count);

  serve::PredictClient::Stats client_stats() const;
  std::uint64_t server_shed();

 private:
  struct ClientRun {
    Round round;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t cpu_ns = 0;
    std::uint64_t events = 0;
  };
  void run_client(int client, bool latency, Tracer* tracer, ClientRun& out);

  const Prepared& prepared_;
  std::string error_;
  serve::Daemon daemon_;
  std::vector<std::unique_ptr<serve::PredictClient>> clients_;
};

}  // namespace pythia::e2e
