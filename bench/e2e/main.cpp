// pythia_e2e — application event -> runtime decision, end to end.
//
//   pythia_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--smoke] [--dir DIR]
//
// Prepares the workload once (untimed), then alternates set-up
// repetitions, throughput rounds and latency rounds for --seconds (default
// 25; --smoke: 1), checks the correctness gates, and prints
// `metric workload value unit` lines followed by one JSON object as the
// last line. --trace 1 reports the per-layer metrics instead of the
// end-to-end ones. Exit status 1 when a gate fails. bench/e2e/run.sh
// builds this and is the documented entry.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "bench/e2e/e2e.hpp"
#include "bench/e2e/layers.hpp"
#include "bench/e2e/paths.hpp"

namespace {

using namespace pythia;
using namespace pythia::e2e;

/// Lulesh Medium is -s 30 (fig. 10's headline point) on the app's 8 ranks.
/// Quicksilver's median decision falls where the candidate count jumps
/// from ~2 to ~12, so it moves with the input; a fixed reference and four
/// live runs keep it put from seed to seed (README.md, "Noise").
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"lulesh-inproc", Path::kInProcess, apps::lulesh_app(),
       apps::WorkingSet::kMedium, ompsim::MachineModel::pudding(), 24, 0},
      {"quicksilver-diverge", Path::kInProcess, apps::quicksilver_app(),
       apps::WorkingSet::kLarge, ompsim::MachineModel::paravance(), 8, 4},
      {"lulesh-daemon", Path::kDaemon, apps::lulesh_app(),
       apps::WorkingSet::kMedium, ompsim::MachineModel::pudding(), 24, 0},
      {"kripke-online", Path::kOnline, apps::kripke_app(),
       apps::WorkingSet::kLarge, ompsim::MachineModel::paravance(), 8, 0},
  };
  return all;
}

/// Length of the measured phase: BENCHMARK.json's run_seconds, and about
/// a second with --smoke.
constexpr double kSeconds = 25.0;
constexpr double kSmokeSeconds = 1.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kSeconds;
  bool trace = false;
  bool smoke = false;
  std::string dir = "build-e2e/run";
};

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--dir" && has_value) {
      options.dir = argv[++i];
    } else {
      return false;
    }
  }
  if (options.smoke) options.seconds = kSmokeSeconds;
  return !options.workload.empty() && options.seconds > 0.0;
}

/// Peak resident set of this program: VmHWM, in KiB in /proc/self/status.
/// getrusage's maximum is not used because Linux carries the launching
/// process's peak over exec, so it would depend on who started the run.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// Correctness gates: each distinct failure is reported once at exit.
class Gates {
 public:
  void check(bool ok, const std::string& what) {
    if (ok) return;
    ok_ = false;
    if (std::find(failures_.begin(), failures_.end(), what) ==
        failures_.end()) {
      failures_.push_back(what);
    }
  }
  bool ok() const { return ok_; }
  void report() const {
    for (const std::string& failure : failures_) {
      std::fprintf(stderr, "gate failed: %s\n", failure.c_str());
    }
  }

 private:
  bool ok_ = true;
  std::vector<std::string> failures_;
};

enum Phase { kSetup, kThroughput, kLatency, kPhases };
/// Share of the measured time each phase gets; phases interleave so they
/// see the same machine conditions.
constexpr double kShare[kPhases] = {0.1, 0.45, 0.45};

/// Daemon throughput is taken at this percentile of the rounds, counted
/// from the fast end: the quiet rounds repeat from run to run where the
/// median round does not (README.md, "Noise").
constexpr double kQuietPercentile = 10.0;

/// Daemon latency rounds kept for the per-decision median (6 MiB of
/// samples); a 25 s run makes about 20.
constexpr std::size_t kDaemonLatencyRounds = 32;

/// Traced record repetitions after the measured phase: the set-up layers
/// of every workload, kripke-online's included.
constexpr int kTracedSetups = 9;

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: pythia_e2e --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--smoke] [--dir DIR]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& candidate : workloads()) {
    if (options.workload == candidate.name) workload = &candidate;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "pythia_e2e: unknown workload %s\n",
                 options.workload.c_str());
    return 2;
  }
  namespace fs = std::filesystem;
  std::error_code dir_error;
  fs::create_directories(options.dir, dir_error);
  const std::string stem =
      (fs::path(options.dir) / options.workload).string();

  std::string error;
  const Prepared prepared =
      prepare(*workload, options.seed, options.dir, error);
  if (!error.empty()) {
    std::fprintf(stderr, "pythia_e2e: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "pythia_e2e: %s seed %llu: %d ranks, %llu reference events, "
               "%llu live events, %llu decisions\n",
               workload->name, static_cast<unsigned long long>(options.seed),
               prepared.ranks,
               static_cast<unsigned long long>(prepared.record_events),
               static_cast<unsigned long long>(prepared.live_events),
               static_cast<unsigned long long>(prepared.live_decisions));
  const bool online = workload->path == Path::kOnline;
  const bool daemon = workload->path == Path::kDaemon;
  std::unique_ptr<DaemonBench> bench;
  if (daemon || options.trace) {
    bench = std::make_unique<DaemonBench>(prepared, stem + ".sock");
    if (!bench->error().empty()) {
      std::fprintf(stderr, "pythia_e2e: %s\n", bench->error().c_str());
      return 1;
    }
  }

  Gates gates;
  // Set-up spans are few per repetition; their own tracer keeps the span
  // cap of the per-decision tracers from crowding them out.
  Tracer setup_tracer;
  Tracer main_tracer;
  std::vector<Tracer> client_tracers(DaemonBench::kClients);

  // Untimed pass: accuracy, served share, and the decisions every timed
  // round must reproduce.
  Tally untimed;
  if (daemon) {
    const Round warm = bench->round(/*latency=*/false, nullptr);
    gates.check(warm.mismatches == 0,
                "daemon reply differs from the in-process answer");
    untimed = warm.tally;
  } else {
    untimed = oracle_pass(prepared, online).tally;
  }

  std::vector<double> setup_s, eps, eps_traced, busy;
  Floor segments, traced_segments, decisions;
  RoundMedian daemon_decisions(
      daemon ? DaemonBench::kClients * prepared.live_decisions : 0,
      kDaemonLatencyRounds);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t rules = 0;
  std::vector<std::uint64_t> ramp_digests;

  const std::string rep_path = stem + "-setup.pythia";
  auto setup_rep = [&](Tracer* tracer) {
    const RecordRep rep = record_rep(prepared, daemon, rep_path, tracer);
    gates.check(rep.error.empty(), rep.error);
    gates.check(rep.digests == prepared.reference_digests,
                "recorded digests differ from the harness reference");
    gates.check(trace_bytes == 0 || rep.trace_bytes == trace_bytes,
                "saved trace size differs between repetitions");
    trace_bytes = rep.trace_bytes;
    rules = rep.rules;
    return rep;
  };

  auto run_round = [&](bool latency, bool traced) {
    Round round =
        daemon ? bench->round(latency, traced ? &client_tracers : nullptr)
               : oracle_round(prepared, online, latency,
                              traced ? &main_tracer : nullptr);
    gates.check(round.tally.same_decisions(untimed, latency || daemon),
                "a round's decisions differ from the untimed pass");
    gates.check(round.mismatches == 0,
                "daemon reply differs from the in-process answer");
    if (online) {
      if (ramp_digests.empty()) ramp_digests = round.ramp_digests;
      gates.check(round.ramp_digests == ramp_digests,
                  "online ramp_digest differs between rounds");
    }
    attempted += round.attempted;
    failed += round.failed;
    if (daemon) busy.push_back(round.busy_share);
    return round;
  };

  const std::size_t min_count[kPhases] = {options.smoke ? 3u : 20u,
                                          options.smoke ? 2u : 5u,
                                          options.smoke ? 2u : 5u};
  double spent[kPhases] = {};
  std::size_t count[kPhases] = {};
  const std::uint64_t start = now_ns();
  while (true) {
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    bool mins_met = true;
    for (int phase = 0; phase < kPhases; ++phase) {
      mins_met = mins_met && count[phase] >= min_count[phase];
    }
    if (elapsed >= options.seconds && mins_met) break;
    int phase = 0;
    for (int candidate = 1; candidate < kPhases; ++candidate) {
      if (spent[candidate] / kShare[candidate] < spent[phase] / kShare[phase]) {
        phase = candidate;
      }
    }

    const std::uint64_t phase_start = now_ns();
    if (phase == kSetup && online) {
      // The online path has no reference to set up: its set-up is learning
      // until the ramp first serves.
      const std::optional<double> seconds = online_first_serve_s(prepared);
      gates.check(seconds.has_value(), "an online oracle never served");
      if (seconds.has_value()) setup_s.push_back(*seconds);
    } else if (phase == kSetup) {
      setup_s.push_back(setup_rep(nullptr).setup_s());
    } else if (phase == kThroughput) {
      // Traced runs alternate plain and traced rounds: the ratio of their
      // throughputs is the tracing overhead.
      const bool traced = options.trace && count[phase] % 2 == 1;
      const Round round = run_round(/*latency=*/false, traced);
      if (daemon) {
        (traced ? eps_traced : eps).push_back(round.events_per_s);
      } else {
        (traced ? traced_segments : segments).add(round.segment_ns);
      }
    } else {
      const Round round = run_round(/*latency=*/true, options.trace);
      if (daemon) {
        daemon_decisions.add(round.latencies_ns);
      } else {
        decisions.add(round.latencies_ns);
      }
    }
    spent[phase] += static_cast<double>(now_ns() - phase_start);
    ++count[phase];
  }

  Metrics metrics;
  auto add = [&metrics](const char* name, double value, const char* unit) {
    metrics.push_back(Metric{name, value, unit});
  };
  // Throughput from the floor of each segment; daemon rounds have no
  // segments, since three clients interleave, so they use quiet rounds.
  auto events_per_s = [&](const std::vector<double>& rounds,
                          const Floor& floor) {
    return daemon ? percentile(rounds, 100.0 - kQuietPercentile)
                  : static_cast<double>(prepared.live_events) * 1e9 /
                        floor.sum();
  };
  const double plain_eps = events_per_s(eps, segments);
  if (!options.trace) {
    add("setup_s", median(setup_s), "s");
    add("events_per_s", plain_eps, "1/s");
    const std::vector<double> decision_ns =
        daemon ? daemon_decisions.values() : decisions.values();
    add("decision_p50_ns", ns_percentile(decision_ns, 50), "ns");
    add("decision_p99_ns", ns_percentile(decision_ns, 99), "ns");
    add("accuracy", ratio(untimed.hits, untimed.scored), "fraction");
    add("served_share", ratio(untimed.served, untimed.decisions),
        "fraction");
    add("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    for (int i = 0; i < kTracedSetups; ++i) setup_rep(&setup_tracer);
    // Passes of the layers this workload's path does not run, so every
    // layer is measured over every workload's data.
    const Pass predict_pass = oracle_pass(prepared, /*online=*/false);
    const Pass online_pass = oracle_pass(prepared, /*online=*/true);
    Tracer online_tracer;
    if (!online) oracle_round(prepared, true, false, &online_tracer);
    if (!daemon) {
      const Round pass = bench->round(/*latency=*/true, &client_tracers);
      gates.check(pass.mismatches == 0,
                  "daemon reply differs from the in-process answer");
      busy.push_back(pass.busy_share);
    }
    const std::vector<double> pings = bench->pings(2000);
    const CodecCosts costs = probe_layers(prepared, predict_pass, metrics);

    std::vector<Tracer> tracers = std::move(client_tracers);
    const double daemon_decision_ns =
        ns_percentile(span_durations(tracers, "e2e.decision"), 50);
    tracers.push_back(std::move(main_tracer));
    tracers.push_back(std::move(online_tracer));
    tracers.push_back(std::move(setup_tracer));
    auto spans_us = [&tracers](const char* name, double p) {
      return ns_percentile(span_durations(tracers, name), p) * 1e-3;
    };
    const Pass& path_pass = online ? online_pass : predict_pass;
    add("core.record.finish_us", spans_us("core.record.finish", 50), "us");
    add("core.record.rules", static_cast<double>(rules), "count");
    add("core.trace_io.save_us", spans_us("core.trace_io.save", 50), "us");
    add("core.trace_io.trace_bytes", static_cast<double>(trace_bytes),
        "bytes");
    add("ompsim.policy.mean_team",
        ratio(path_pass.tally.choice_sum, path_pass.tally.decisions),
        "threads");
    add("ompsim.policy.virtual_speedup", prepared.virtual_speedup, "ratio");
    add("core.online.publish_us_p50", spans_us("core.online.publish", 50),
        "us");
    add("core.online.publish_us_p99", spans_us("core.online.publish", 99),
        "us");
    add("core.online.publishes", static_cast<double>(online_pass.publishes),
        "count");
    add("core.online.incremental_share",
        ratio(online_pass.incremental_publishes, online_pass.publishes),
        "fraction");
    add("core.online.first_served_event",
        static_cast<double>(online_pass.first_served_event), "events");
    add("core.online.ramp_trips", static_cast<double>(online_pass.ramp_trips),
        "count");

    const double observe_rtt = spans_us("serve.client.observe", 50);
    const double predict_rtt = spans_us("serve.client.predict", 50);
    add("serve.client.observe_rtt_us_p50", observe_rtt, "us");
    add("serve.client.observe_rtt_us_p99", spans_us("serve.client.observe", 99),
        "us");
    add("serve.client.predict_rtt_us_p50", predict_rtt, "us");
    add("serve.client.predict_rtt_us_p99", spans_us("serve.client.predict", 99),
        "us");
    add("serve.client.open_us", spans_us("serve.client.open", 50), "us");
    const serve::PredictClient::Stats client = bench->client_stats();
    add("serve.client.retries", static_cast<double>(client.retries), "count");
    add("serve.client.timeouts", static_cast<double>(client.timeouts),
        "count");
    add("serve.admission.shed", static_cast<double>(bench->server_shed()),
        "count");

    // Daemon decision, layer by layer: client codec and ServerCore work
    // are probed in isolation; transport is the rest of the two RTTs.
    // Loaded pings measure transport independently, and what codec,
    // server and two pings leave of the decision p50 is unattributed.
    const double codec_ns = costs.encode_ns + costs.decode_ns;
    const double server_ns =
        costs.on_bytes_observe_ns + costs.on_bytes_predict_ns;
    const double ping_ns = ns_percentile(pings, 50);
    add("serve.daemon.transport_us_p50",
        observe_rtt + predict_rtt - (codec_ns + server_ns) * 1e-3, "us");
    add("serve.daemon.ping_us_p50", ping_ns * 1e-3, "us");
    add("serve.daemon.busy_share", median(busy), "share");
    add("serve.daemon.unattributed_pct",
        100.0 * (daemon_decision_ns - codec_ns - server_ns - 2.0 * ping_ns) /
            daemon_decision_ns,
        "%");
    add("bench.trace_overhead_pct",
        100.0 * (plain_eps / events_per_s(eps_traced, traced_segments) - 1.0),
        "%");

    if (!write_spans(tracers, stem + "-spans.tsv")) {
      std::fprintf(stderr, "pythia_e2e: cannot write spans\n");
    }
  }

  for (Metric& metric : metrics) {
    gates.check(std::isfinite(metric.value), metric.name + " is not finite");
    if (!std::isfinite(metric.value)) metric.value = 0.0;
  }
  gates.check(attempted > 0, "no decision was attempted");

  for (const Metric& metric : metrics) {
    std::printf("%s %s %.17g %s\n", metric.name.c_str(), workload->name,
                metric.value, metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              gates.ok() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  gates.report();
  return gates.ok() ? 0 : 1;
}
