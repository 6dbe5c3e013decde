#include <filesystem>
#include <memory>

#include "bench/e2e/e2e.hpp"
#include "core/compiled_predictor.hpp"
#include "harness/runner.hpp"

namespace pythia::e2e {
namespace {

/// Run config shared by every harness run of a workload.
harness::RunConfig base_config(const Workload& workload, std::uint64_t seed) {
  harness::RunConfig config;
  config.app.set = workload.set;
  config.app.seed = seed;
  config.ranks = workload.app->default_ranks();
  config.machine = workload.machine;
  config.omp_max_threads = workload.max_threads;
  return config;
}

/// Runs `app` with an event hook on every rank's oracle; the hook sees the
/// stream the application submits (before any oracle work).
harness::RunResult run_captured(const apps::App& app,
                                harness::RunConfig config,
                                std::vector<RankStream>& streams) {
  streams.assign(static_cast<std::size_t>(config.ranks), RankStream{});
  config.observer_factory = [&streams](int rank, Oracle& oracle)
      -> std::unique_ptr<mpisim::CommObserver> {
    RankStream* stream = &streams[static_cast<std::size_t>(rank)];
    oracle.set_event_hook([stream](TerminalId event, std::uint64_t now) {
      stream->events.push_back(event);
      stream->times.push_back(now);
    });
    return nullptr;
  };
  return harness::run_app(app, config);
}

/// Flags GOMP_parallel_start events (the team-size decision points).
/// False when there is none.
bool mark_decisions(const EventRegistry& registry,
                    std::vector<RankStream>& streams) {
  KindId parallel_start = 0;
  if (!registry.find_kind("GOMP_parallel_start", parallel_start)) return false;
  std::size_t decisions = 0;
  for (RankStream& stream : streams) {
    stream.decision.assign(stream.events.size(), 0);
    stream.decisions = 0;
    for (std::size_t i = 0; i < stream.events.size(); ++i) {
      if (registry.kind_of(stream.events[i]) == parallel_start) {
        stream.decision[i] = 1;
        ++stream.decisions;
      }
    }
    decisions += stream.decisions;
  }
  return decisions > 0;
}

void count_events(const std::vector<RankStream>& streams,
                  std::uint64_t& events, std::uint64_t& decisions) {
  events = 0;
  decisions = 0;
  for (const RankStream& stream : streams) {
    events += stream.events.size();
    decisions += stream.decisions;
  }
}

/// Appends each rank's stream of a later run, its virtual clock shifted to
/// continue where the rank's earlier runs ended.
void append_run(std::vector<RankStream>& into,
                const std::vector<RankStream>& run) {
  into.resize(run.size());
  for (std::size_t rank = 0; rank < run.size(); ++rank) {
    RankStream& stream = into[rank];
    const RankStream& next = run[rank];
    const std::uint64_t shift = stream.times.empty() ? 0 : stream.times.back();
    stream.events.insert(stream.events.end(), next.events.begin(),
                         next.events.end());
    for (const std::uint64_t time : next.times) {
      stream.times.push_back(shift + time);
    }
    stream.decision.insert(stream.decision.end(), next.decision.begin(),
                           next.decision.end());
    stream.decisions += next.decisions;
  }
}

}  // namespace

Prepared prepare(const Workload& workload, std::uint64_t seed,
                 const std::string& dir, std::string& error) {
  Prepared prepared;
  prepared.ranks = workload.app->default_ranks();
  prepared.policy = ompsim::AdaptivePolicy::from_model(workload.machine,
                                                       workload.max_threads);
  const bool diverging = workload.diverging_runs > 0;
  const std::uint64_t reference_seed =
      diverging ? kDivergingReferenceSeed : seed;

  harness::RunConfig record = base_config(workload, reference_seed);
  record.mode = harness::Mode::kRecord;
  const Trace reference = harness::run_app(*workload.app, record).trace;
  for (const ThreadTrace& thread : reference.threads) {
    prepared.reference_digests.push_back(thread_section_digest(thread));
  }

  prepared.trace_path =
      (std::filesystem::path(dir) / (std::string(workload.name) + ".pythia"))
          .string();
  const Status saved = reference.try_save(prepared.trace_path);
  if (!saved.ok()) {
    error = "save reference: " + saved.to_string();
    return prepared;
  }
  Result<Trace> loaded = Trace::try_load(prepared.trace_path);
  if (!loaded.ok()) {
    error = "load reference: " + loaded.status().to_string();
    return prepared;
  }
  prepared.served = loaded.take();
  for (const ThreadTrace& thread : prepared.served.threads) {
    if (!thread.compiled.valid()) {
      error = "reference has a thread without a compiled section";
      return prepared;
    }
  }

  // Non-adaptive predict over the reference at the reference seed: the
  // same decisions (and virtual timing) as the recording, in reference ids.
  harness::RunConfig replay = base_config(workload, reference_seed);
  replay.mode = harness::Mode::kPredict;
  replay.reference = &prepared.served;
  const harness::RunResult replayed =
      run_captured(*workload.app, replay, prepared.record_streams);
  if (!mark_decisions(replayed.trace.registry, prepared.record_streams)) {
    error = "reference stream has no GOMP_parallel_start event";
    return prepared;
  }
  std::uint64_t record_decisions = 0;
  count_events(prepared.record_streams, prepared.record_events,
               record_decisions);

  // Live runs: guided (adaptive predict, or online) and vanilla at each
  // live seed. The online workload's decision rounds replay the record
  // streams, which its online oracles learn from scratch.
  const bool online = workload.path == Path::kOnline;
  const int live_runs = diverging ? workload.diverging_runs : 1;
  const std::uint64_t first_live_seed = diverging ? seed + 1 : seed;
  std::uint64_t guided_ns = 0;
  std::uint64_t vanilla_ns = 0;
  for (int run = 0; run < live_runs; ++run) {
    const std::uint64_t live_seed = first_live_seed + run;
    harness::RunConfig guided = base_config(workload, live_seed);
    guided.omp_adaptive = true;
    if (online) {
      guided.mode = harness::Mode::kOnline;
      guided_ns += harness::run_app(*workload.app, guided).makespan_virtual_ns;
    } else {
      guided.mode = harness::Mode::kPredict;
      guided.reference = &prepared.served;
      std::vector<RankStream> streams;
      const harness::RunResult result =
          run_captured(*workload.app, guided, streams);
      guided_ns += result.makespan_virtual_ns;
      if (!mark_decisions(result.trace.registry, streams)) {
        error = "live stream has no GOMP_parallel_start event";
        return prepared;
      }
      append_run(prepared.live_streams, streams);
    }
    harness::RunConfig vanilla = base_config(workload, live_seed);
    vanilla.mode = harness::Mode::kVanilla;
    vanilla_ns += harness::run_app(*workload.app, vanilla).makespan_virtual_ns;
  }
  if (online) prepared.live_streams = prepared.record_streams;
  count_events(prepared.live_streams, prepared.live_events,
               prepared.live_decisions);
  prepared.virtual_speedup =
      static_cast<double>(vanilla_ns) / static_cast<double>(guided_ns);

  // What a daemon session answers at each decision: the server's session
  // options (runtime breaker, jitter 0 as the benchmark daemon runs it).
  prepared.expected.resize(prepared.live_streams.size());
  for (std::size_t rank = 0; rank < prepared.live_streams.size(); ++rank) {
    const RankStream& stream = prepared.live_streams[rank];
    CompiledPredictor predictor(prepared.served.threads[rank].compiled,
                                Predictor::Options::runtime_defaults());
    std::vector<Expected>& expected = prepared.expected[rank];
    expected.reserve(stream.decisions);
    for (std::size_t i = 0; i < stream.events.size(); ++i) {
      predictor.observe(stream.events[i]);
      if (!stream.decision[i]) continue;
      Expected answer;
      answer.degraded = predictor.health() == Health::kDegraded;
      if (!answer.degraded) {
        if (const auto prediction = predictor.predict(1)) {
          answer.has = true;
          answer.event = prediction->event;
          answer.probability = prediction->probability;
        }
      }
      expected.push_back(answer);
    }
  }
  return prepared;
}

}  // namespace pythia::e2e
