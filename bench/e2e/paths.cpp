#include "bench/e2e/paths.hpp"

#include <algorithm>
#include <filesystem>
#include <thread>
#include <time.h>

#include "serve/registry.hpp"

namespace pythia::e2e {
namespace {

constexpr std::size_t kMaxObserveBatch = 4096;  // ServerOptions default cap

std::uint64_t cpu_ns(clockid_t clock) {
  struct timespec ts {};
  ::clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::vector<Oracle> make_oracles(const Prepared& prepared, bool online) {
  std::vector<Oracle> oracles;
  oracles.reserve(static_cast<std::size_t>(prepared.ranks));
  for (int rank = 0; rank < prepared.ranks; ++rank) {
    oracles.push_back(
        online ? Oracle::online()
               : Oracle::predict(
                     prepared.served.threads[static_cast<std::size_t>(rank)],
                     Predictor::Options::runtime_defaults()));
  }
  return oracles;
}

/// The rest of a team-size decision once its GOMP_parallel_start event
/// went through Oracle::event — what ompsim::OmpRuntime::parallel does:
/// a degraded oracle is not asked, else the predicted region duration
/// picks the team. Returns the prediction the decision acted on.
std::optional<double> decide(const Oracle& oracle,
                             const ompsim::AdaptivePolicy& policy,
                             Tally& tally) {
  ++tally.decisions;
  if (oracle.degraded()) {
    ++tally.degraded;
    tally.choice_sum += static_cast<std::uint64_t>(policy.max_threads());
    return std::nullopt;
  }
  const std::optional<double> predicted = oracle.predict_time_ns(1);
  if (predicted.has_value()) ++tally.served;
  tally.choice_sum +=
      static_cast<std::uint64_t>(policy.choose_threads(predicted));
  return predicted;
}

/// Scores a served decision at stream position i: does the predicted next
/// event happen next (fig. 8)?
void score(const Oracle& oracle, const RankStream& stream, std::size_t i,
           Tally& tally) {
  if (i + 1 >= stream.events.size()) return;
  ++tally.scored;
  const std::optional<Prediction> next = oracle.predict_event(1);
  if (next.has_value() && next->event == stream.events[i + 1]) ++tally.hits;
}

}  // namespace

Pass oracle_pass(const Prepared& prepared, bool online) {
  Pass pass;
  std::vector<Oracle> oracles = make_oracles(prepared, online);
  for (std::size_t rank = 0; rank < oracles.size(); ++rank) {
    Oracle& oracle = oracles[rank];
    const RankStream& stream = prepared.live_streams[rank];
    for (std::size_t i = 0; i < stream.events.size(); ++i) {
      oracle.event(stream.events[i], stream.times[i]);
      if (!stream.decision[i]) continue;
      const std::optional<double> predicted =
          decide(oracle, prepared.policy, pass.tally);
      if (!predicted.has_value()) continue;
      pass.predicted_ns.push_back(*predicted);
      score(oracle, stream, i, pass.tally);
    }
    const Predictor::Stats& stats = oracle.predictor_stats();
    pass.observed += stats.observed;
    pass.reanchored += stats.reanchored;
    pass.anchors_suppressed += stats.anchors_suppressed;
    if (const OnlineOracle* learner = oracle.online_oracle()) {
      pass.publishes += learner->publish_telemetry().publishes;
      pass.incremental_publishes += learner->publish_telemetry().incremental;
      pass.first_served_event = std::max(pass.first_served_event,
                                         learner->stats().first_served_event);
      pass.ramp_trips += learner->stats().ramp_trips;
    }
  }
  return pass;
}

Round oracle_round(const Prepared& prepared, bool online, bool latency,
                   Tracer* tracer) {
  Round round;
  std::vector<Oracle> oracles = make_oracles(prepared, online);
  const bool timed = latency || tracer != nullptr;
  const bool watch_publish = online && tracer != nullptr;
  if (timed) round.latencies_ns.reserve(prepared.live_decisions);
  round.segment_ns.reserve(prepared.live_events / kSegmentEvents +
                           oracles.size());
  std::uint64_t request = 0;

  std::uint64_t segment_start = now_ns();
  for (std::size_t rank = 0; rank < oracles.size(); ++rank) {
    Oracle& oracle = oracles[rank];
    const RankStream& stream = prepared.live_streams[rank];
    std::uint64_t snapshots = 0;
    for (std::size_t i = 0; i < stream.events.size(); ++i) {
      if (i > 0 && i % kSegmentEvents == 0) {
        const std::uint64_t now = now_ns();
        round.segment_ns.push_back(static_cast<double>(now - segment_start));
        segment_start = now;
      }
      if (!timed || (!stream.decision[i] && !watch_publish)) {
        oracle.event(stream.events[i], stream.times[i]);
        if (stream.decision[i]) decide(oracle, prepared.policy, round.tally);
        continue;
      }
      const std::uint64_t begin = now_ns();
      oracle.event(stream.events[i], stream.times[i]);
      const std::uint64_t observed = watch_publish ? now_ns() : 0;
      std::uint32_t parent = Tracer::kNoParent;
      if (stream.decision[i]) {
        const std::optional<double> predicted =
            decide(oracle, prepared.policy, round.tally);
        const std::uint64_t end = now_ns();
        round.latencies_ns.push_back(static_cast<double>(end - begin));
        if (tracer != nullptr) {
          parent = tracer->add("e2e.decision", begin, end, Tracer::kNoParent,
                               request++);
        }
        if (latency && predicted.has_value()) {
          score(oracle, stream, i, round.tally);
        }
      }
      if (watch_publish) {
        const std::uint64_t now_snapshots =
            oracle.online_oracle()->stats().snapshots;
        if (now_snapshots != snapshots) {
          snapshots = now_snapshots;
          tracer->add("core.online.publish", begin, observed, parent);
        }
      }
    }
    const std::uint64_t now = now_ns();
    round.segment_ns.push_back(static_cast<double>(now - segment_start));
    segment_start = now;
  }
  round.attempted = round.tally.decisions;
  if (online) {
    for (const Oracle& oracle : oracles) {
      round.ramp_digests.push_back(oracle.online_oracle()->ramp_digest());
    }
  }
  return round;
}

RecordRep record_rep(const Prepared& prepared, bool mapped,
                     const std::string& path, Tracer* tracer) {
  RecordRep rep;
  std::vector<Oracle> oracles;
  for (int rank = 0; rank < prepared.ranks; ++rank) {
    oracles.push_back(Oracle::record(/*timestamps=*/true));
  }
  Trace trace;
  trace.registry = prepared.served.registry;

  const std::uint64_t t0 = now_ns();
  for (std::size_t rank = 0; rank < oracles.size(); ++rank) {
    const RankStream& stream = prepared.record_streams[rank];
    for (std::size_t i = 0; i < stream.events.size(); ++i) {
      oracles[rank].event(stream.events[i], stream.times[i]);
    }
  }
  const std::uint64_t t1 = now_ns();
  for (Oracle& oracle : oracles) trace.threads.push_back(oracle.finish());
  const std::uint64_t t2 = now_ns();
  const Status saved = trace.try_save(path);
  const std::uint64_t t3 = now_ns();
  Status loaded;
  if (mapped) {
    serve::TraceRegistry registry;
    loaded = registry.add(kTraceName, path);
    if (loaded.ok()) loaded = registry.acquire(kTraceName).status();
  } else {
    loaded = Trace::try_load(path).status();
  }
  const std::uint64_t t4 = now_ns();

  if (!saved.ok() || !loaded.ok()) {
    rep.error = "set-up: " + (saved.ok() ? loaded : saved).to_string();
    return rep;
  }
  rep.finish_ns = static_cast<double>(t2 - t1);
  rep.save_ns = static_cast<double>(t3 - t2);
  rep.load_ns = static_cast<double>(t4 - t3);
  std::error_code ignored;
  rep.trace_bytes = std::filesystem::file_size(path, ignored);
  for (const ThreadTrace& thread : trace.threads) {
    rep.digests.push_back(thread_section_digest(thread));
    rep.rules += thread.grammar.rule_count();
  }
  if (tracer != nullptr) {
    tracer->add("core.record.replay", t0, t1);
    const std::uint32_t setup = tracer->add("e2e.setup", t1, t4);
    tracer->add("core.record.finish", t1, t2, setup);
    tracer->add("core.trace_io.save", t2, t3, setup);
    tracer->add(mapped ? "serve.registry.acquire" : "core.trace_io.load", t3,
                t4, setup);
  }
  return rep;
}

std::optional<double> online_first_serve_s(const Prepared& prepared) {
  bool all_served = true;
  const std::uint64_t start = now_ns();
  for (const RankStream& stream : prepared.live_streams) {
    Oracle oracle = Oracle::online();
    for (std::size_t i = 0; i < stream.events.size() && !oracle.serving();
         ++i) {
      oracle.event(stream.events[i], stream.times[i]);
    }
    all_served = all_served && oracle.serving();
  }
  const std::uint64_t end = now_ns();
  if (!all_served) return std::nullopt;
  return static_cast<double>(end - start) * 1e-9;
}

// --- daemon --------------------------------------------------------------

serve::DaemonOptions daemon_options() {
  serve::DaemonOptions options;
  // Nothing may shed: the benchmark measures serving, not admission.
  options.server.tenant_defaults.rate_per_sec = 1e12;
  options.server.tenant_defaults.burst = 1e12;
  options.server.tenant_defaults.max_inflight = 1u << 20;
  // Deterministic breaker probing, so every kOk reply can be checked
  // against the in-process CompiledPredictor answer.
  options.server.breaker_jitter = 0.0;
  return options;
}

DaemonBench::DaemonBench(const Prepared& prepared,
                         const std::string& socket_path)
    : prepared_(prepared), daemon_(daemon_options()) {
  Status status = daemon_.core().registry().add(kTraceName,
                                                prepared.trace_path);
  if (status.ok()) status = daemon_.listen_unix(socket_path);
  if (status.ok()) status = daemon_.start();
  for (int c = 0; status.ok() && c < kClients; ++c) {
    serve::ClientOptions options;
    options.tenant = "e2e-" + std::to_string(c);
    clients_.push_back(std::make_unique<serve::PredictClient>(options));
    status = clients_.back()->connect_unix(socket_path);
    if (status.ok()) status = clients_.back()->hello();
  }
  if (!status.ok()) error_ = "daemon: " + status.to_string();
}

DaemonBench::~DaemonBench() {
  clients_.clear();
  daemon_.stop();
}

void DaemonBench::run_client(int client_index, bool latency, Tracer* tracer,
                             ClientRun& out) {
  serve::PredictClient& client =
      *clients_[static_cast<std::size_t>(client_index)];
  const bool timed = latency || tracer != nullptr;
  Round& round = out.round;
  std::uint64_t request = 0;
  const std::uint64_t cpu_start = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
  out.start_ns = now_ns();

  // Sends events[from, to) as observe batches; false on any failure.
  auto observe = [&](serve::ClientSession& session, const RankStream& stream,
                     std::size_t from, std::size_t to) {
    bool ok = true;
    while (from < to) {
      const std::size_t count = std::min(to - from, kMaxObserveBatch);
      const auto observed =
          client.observe(session, stream.events.data() + from, count);
      ok = ok && observed.ok() &&
           observed.value().code == serve::ReplyCode::kOk;
      out.events += count;
      from += count;
    }
    return ok;
  };

  for (int rank = 0; rank < prepared_.ranks; ++rank) {
    const auto section = static_cast<std::size_t>(rank);
    const RankStream& stream = prepared_.live_streams[section];
    const std::vector<Expected>& expected = prepared_.expected[section];
    const std::uint64_t open_begin = now_ns();
    auto opened = client.open(kTraceName, static_cast<std::uint32_t>(rank));
    if (tracer != nullptr) {
      tracer->add("serve.client.open", open_begin, now_ns());
    }
    if (!opened.ok() || !opened.value().open) {
      round.attempted += stream.decisions;
      round.failed += stream.decisions;
      continue;
    }
    serve::ClientSession session = opened.take();

    std::size_t sent = 0;
    std::size_t decision = 0;
    for (std::size_t i = 0; i < stream.events.size(); ++i) {
      if (!stream.decision[i]) continue;
      const std::uint64_t begin = timed ? now_ns() : 0;
      bool ok = observe(session, stream, sent, i + 1);
      sent = i + 1;
      const std::uint64_t observed_at = timed ? now_ns() : 0;
      const auto predicted = client.predict(session, 1, 1);
      if (timed) {
        const std::uint64_t end = now_ns();
        round.latencies_ns.push_back(static_cast<double>(end - begin));
        if (tracer != nullptr) {
          const std::uint32_t parent = tracer->add(
              "e2e.decision", begin, end, Tracer::kNoParent, request);
          tracer->add("serve.client.observe", begin, observed_at, parent,
                      request);
          tracer->add("serve.client.predict", observed_at, end, parent,
                      request);
          ++request;
        }
      }

      ++round.attempted;
      ++round.tally.decisions;
      const Expected& want = expected[decision++];
      if (!predicted.ok() ||
          predicted.value().code != serve::ReplyCode::kOk) {
        ok = false;
        if (predicted.ok() &&
            predicted.value().code == serve::ReplyCode::kDegraded) {
          ++round.tally.degraded;
        }
      } else {
        const serve::PredictResult& got = predicted.value();
        const bool has = !got.events.empty();
        if (want.degraded || has != want.has ||
            (has && (got.events[0] != want.event ||
                     got.probability != want.probability))) {
          ++round.mismatches;
        }
        if (has) {
          ++round.tally.served;
          round.tally.choice_sum += got.events[0];
          if (i + 1 < stream.events.size()) {
            ++round.tally.scored;
            if (got.events[0] == stream.events[i + 1]) ++round.tally.hits;
          }
        }
      }
      if (!ok) ++round.failed;
    }
    // Trailing events after the last decision: delivered, not a decision.
    if (!observe(session, stream, sent, stream.events.size())) ++round.failed;
    (void)client.close(session);
  }
  out.end_ns = now_ns();
  out.cpu_ns = cpu_ns(CLOCK_THREAD_CPUTIME_ID) - cpu_start;
}

Round DaemonBench::round(bool latency, std::vector<Tracer>* tracers) {
  std::vector<ClientRun> runs(kClients);
  const std::uint64_t process_cpu = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      Tracer* tracer =
          tracers != nullptr ? &(*tracers)[static_cast<std::size_t>(c)]
                             : nullptr;
      threads.emplace_back([this, c, latency, tracer, &runs] {
        run_client(c, latency, tracer, runs[static_cast<std::size_t>(c)]);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const std::uint64_t process_cpu_used =
      cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - process_cpu;

  Round round;
  std::uint64_t start = runs[0].start_ns;
  std::uint64_t end = runs[0].end_ns;
  std::uint64_t events = 0;
  std::uint64_t client_cpu = 0;
  for (ClientRun& run : runs) {
    start = std::min(start, run.start_ns);
    end = std::max(end, run.end_ns);
    events += run.events;
    client_cpu += run.cpu_ns;
    round.latencies_ns.insert(round.latencies_ns.end(),
                              run.round.latencies_ns.begin(),
                              run.round.latencies_ns.end());
    round.attempted += run.round.attempted;
    round.failed += run.round.failed;
    round.mismatches += run.round.mismatches;
    round.tally.decisions += run.round.tally.decisions;
    round.tally.served += run.round.tally.served;
    round.tally.degraded += run.round.tally.degraded;
    round.tally.choice_sum += run.round.tally.choice_sum;
    round.tally.scored += run.round.tally.scored;
    round.tally.hits += run.round.tally.hits;
  }
  const double wall = static_cast<double>(end - start);
  round.events_per_s = static_cast<double>(events) * 1e9 / wall;
  round.busy_share = (static_cast<double>(process_cpu_used) -
                      static_cast<double>(client_cpu)) /
                     wall;
  return round;
}

std::vector<double> DaemonBench::pings(std::size_t count) {
  std::vector<std::vector<double>> per_client(kClients);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([this, c, count, &per_client] {
        std::vector<double>& samples = per_client[static_cast<std::size_t>(c)];
        serve::PredictClient& client = *clients_[static_cast<std::size_t>(c)];
        for (std::size_t i = 0; i < count; ++i) {
          const std::uint64_t begin = now_ns();
          if (client.ping().ok()) {
            samples.push_back(static_cast<double>(now_ns() - begin));
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  std::vector<double> samples;
  for (const std::vector<double>& client : per_client) {
    samples.insert(samples.end(), client.begin(), client.end());
  }
  return samples;
}

serve::PredictClient::Stats DaemonBench::client_stats() const {
  serve::PredictClient::Stats total;
  for (const auto& client : clients_) {
    total.requests += client->stats().requests;
    total.retries += client->stats().retries;
    total.timeouts += client->stats().timeouts;
  }
  return total;
}

std::uint64_t DaemonBench::server_shed() {
  const auto stats = clients_[0]->server_stats();
  return stats.ok() ? stats.value().shed : 0;
}

}  // namespace pythia::e2e
