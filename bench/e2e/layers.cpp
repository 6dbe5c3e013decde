#include "bench/e2e/layers.hpp"

#include <algorithm>

#include "engine/snapshot.hpp"
#include "serve/admission.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace pythia::e2e {
namespace {

constexpr std::size_t kBatch = 64;
constexpr int kColdLoads = 9;

/// One sample per kBatch consecutive calls fn(i), i in [0, calls): the
/// batch mean in ns. Trailing calls that do not fill a batch are run
/// untimed so the callee's state still advances through them.
template <typename Fn>
void batched(std::size_t calls, std::vector<double>& samples, Fn&& fn) {
  volatile std::uint64_t sink = 0;
  std::size_t i = 0;
  for (; i + kBatch <= calls; i += kBatch) {
    std::uint64_t local = 0;
    const std::uint64_t begin = now_ns();
    for (std::size_t j = i; j < i + kBatch; ++j) local += fn(j);
    samples.push_back(static_cast<double>(now_ns() - begin) /
                      static_cast<double>(kBatch));
    sink = sink + local;
  }
  for (; i < calls; ++i) sink = sink + fn(i);
}

/// kBatch repeated queries at one position: one sample.
template <typename Fn>
double repeated(Fn&& fn) {
  volatile std::uint64_t sink = 0;
  std::uint64_t local = 0;
  const std::uint64_t begin = now_ns();
  for (std::size_t j = 0; j < kBatch; ++j) local += fn();
  const double ns =
      static_cast<double>(now_ns() - begin) / static_cast<double>(kBatch);
  sink = sink + local;
  return ns;
}

std::uint64_t sink(const std::optional<double>& value) {
  return value.has_value() ? static_cast<std::uint64_t>(*value) : 1;
}
std::uint64_t sink(const std::optional<Prediction>& value) {
  return value.has_value() ? value->event : 1;
}

void add(Metrics& out, const char* name, double value, const char* unit) {
  out.push_back(Metric{name, value, unit});
}

/// The observe batch that precedes each decision: events since the last
/// decision, the decision event included.
struct Request {
  const TerminalId* events;
  std::size_t count;
  const Expected* answer;
};

std::vector<Request> decision_requests(const Prepared& prepared) {
  std::vector<Request> requests;
  for (std::size_t rank = 0; rank < prepared.live_streams.size(); ++rank) {
    const RankStream& stream = prepared.live_streams[rank];
    std::size_t sent = 0;
    std::size_t decision = 0;
    for (std::size_t i = 0; i < stream.events.size(); ++i) {
      if (!stream.decision[i]) continue;
      requests.push_back(Request{stream.events.data() + sent, i + 1 - sent,
                                 &prepared.expected[rank][decision++]});
      sent = i + 1;
    }
  }
  return requests;
}

void probe_record(const Prepared& prepared, Metrics& out) {
  std::vector<double> samples;
  for (const RankStream& stream : prepared.record_streams) {
    Oracle oracle = Oracle::record(/*timestamps=*/true);
    batched(stream.events.size(), samples, [&](std::size_t i) {
      oracle.event(stream.events[i], stream.times[i]);
      return std::uint64_t{0};
    });
  }
  add(out, "core.record.event_ns", median(samples), "ns");
}

void probe_predict(const Prepared& prepared, const Pass& pass, Metrics& out) {
  std::vector<double> observe;
  std::vector<double> query;
  for (std::size_t rank = 0; rank < prepared.live_streams.size(); ++rank) {
    const RankStream& stream = prepared.live_streams[rank];
    Oracle tracked = Oracle::predict(prepared.served.threads[rank],
                                     Predictor::Options::runtime_defaults());
    batched(stream.events.size(), observe, [&](std::size_t i) {
      tracked.event(stream.events[i], stream.times[i]);
      return std::uint64_t{0};
    });
    Oracle queried = Oracle::predict(prepared.served.threads[rank],
                                     Predictor::Options::runtime_defaults());
    for (std::size_t i = 0; i < stream.events.size(); ++i) {
      queried.event(stream.events[i], stream.times[i]);
      if (stream.decision[i] && !queried.degraded()) {
        query.push_back(
            repeated([&] { return sink(queried.predict_time_ns(1)); }));
      }
    }
  }
  add(out, "core.predict.observe_ns_p50", percentile(observe, 50), "ns");
  add(out, "core.predict.observe_ns_p99", percentile(observe, 99), "ns");
  add(out, "core.predict.query_ns_p50", percentile(query, 50), "ns");
  add(out, "core.predict.query_ns_p99", percentile(query, 99), "ns");
  const double observed =
      static_cast<double>(std::max<std::uint64_t>(1, pass.observed));
  add(out, "core.predict.reanchors_per_kevent",
      static_cast<double>(pass.reanchored) * 1000.0 / observed, "1/kevent");
  add(out, "core.predict.anchors_suppressed",
      static_cast<double>(pass.anchors_suppressed), "count");
  add(out, "core.predict.degraded_decisions",
      static_cast<double>(pass.tally.degraded), "count");

  std::vector<double> choose;
  const ompsim::AdaptivePolicy& policy = prepared.policy;
  batched(pass.predicted_ns.size(), choose, [&](std::size_t i) {
    return static_cast<std::uint64_t>(
        policy.choose_threads(pass.predicted_ns[i]));
  });
  add(out, "ompsim.policy.choose_ns", median(choose), "ns");
}

void probe_online(const Prepared& prepared, Metrics& out) {
  std::vector<double> samples;
  for (const RankStream& stream : prepared.live_streams) {
    Oracle oracle = Oracle::online();
    batched(stream.events.size(), samples, [&](std::size_t i) {
      oracle.event(stream.events[i], stream.times[i]);
      return std::uint64_t{0};
    });
  }
  // Batches holding a publish are the tail; the median is the plain
  // observe (score + track + learn).
  add(out, "core.online.observe_ns_p50", median(samples), "ns");
}

void probe_load(const Prepared& prepared, Metrics& out) {
  std::vector<double> load;
  std::vector<double> cold;
  for (int i = 0; i < kColdLoads; ++i) {
    std::uint64_t begin = now_ns();
    const bool loaded = Trace::try_load(prepared.trace_path).ok();
    if (loaded) load.push_back(static_cast<double>(now_ns() - begin));
    serve::TraceRegistry registry;
    if (!registry.add(kTraceName, prepared.trace_path).ok()) continue;
    begin = now_ns();
    if (registry.acquire(kTraceName).ok()) {
      cold.push_back(static_cast<double>(now_ns() - begin));
    }
  }
  add(out, "core.trace_io.load_us", ns_percentile(load, 50) * 1e-3, "us");
  add(out, "serve.registry.acquire_cold_us", ns_percentile(cold, 50) * 1e-3,
      "us");

  serve::TraceRegistry warm;
  std::vector<double> acquire;
  if (warm.add(kTraceName, prepared.trace_path).ok() &&
      warm.acquire(kTraceName).ok()) {
    batched(kBatch * 256, acquire, [&](std::size_t) {
      return static_cast<std::uint64_t>(warm.acquire(kTraceName).ok());
    });
  }
  add(out, "serve.registry.acquire_warm_ns", median(acquire), "ns");

  std::uint64_t blob_bytes = 0;
  for (const ThreadTrace& thread : prepared.served.threads) {
    blob_bytes += thread.compiled_blob.size();
  }
  add(out, "core.compile.blob_bytes", static_cast<double>(blob_bytes),
      "bytes");
}

void probe_snapshot(const Prepared& prepared, Metrics& out) {
  std::vector<double> observe;
  std::vector<double> query;
  auto snapshot = engine::TraceSnapshot::load_mapped(prepared.trace_path);
  if (snapshot.ok()) {
    const engine::PredictServer server(snapshot.take());
    for (std::size_t rank = 0; rank < prepared.live_streams.size(); ++rank) {
      const RankStream& stream = prepared.live_streams[rank];
      auto tracked = server.open(rank);
      auto queried = server.open(rank);
      if (!tracked.ok() || !queried.ok()) continue;
      engine::PredictSession& session = tracked.value();
      batched(stream.events.size(), observe, [&](std::size_t i) {
        session.observe(stream.events[i]);
        return std::uint64_t{0};
      });
      engine::PredictSession& asked = queried.value();
      for (std::size_t i = 0; i < stream.events.size(); ++i) {
        asked.observe(stream.events[i]);
        if (stream.decision[i] && asked.health() == Health::kHealthy) {
          query.push_back(repeated([&] { return sink(asked.predict(1)); }));
        }
      }
    }
  }
  add(out, "engine.snapshot.session_observe_ns", median(observe), "ns");
  add(out, "engine.snapshot.session_predict_ns", median(query), "ns");
}

void probe_admission(Metrics& out) {
  serve::AdmissionController admission(
      daemon_options().server.tenant_defaults);
  const std::uint32_t tenant = admission.register_tenant("e2e-probe");
  std::vector<double> samples;
  std::uint64_t clock = 1;
  batched(kBatch * 1024, samples, [&](std::size_t) {
    const serve::Admit verdict = admission.admit(tenant, clock += 1000, false);
    admission.begin(tenant);
    admission.end(tenant);
    return static_cast<std::uint64_t>(verdict);
  });
  add(out, "serve.admission.admit_ns", median(samples), "ns");
}

/// Client-side codec per decision: what PredictClient does around the
/// socket for one observe and one predict round trip.
void probe_wire(const std::vector<Request>& requests, CodecCosts& costs,
                Metrics& out) {
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> frame;
  std::vector<double> encode;
  batched(requests.size(), encode, [&](std::size_t i) {
    payload.clear();
    serve::encode_observe(1, requests[i].events, requests[i].count, payload);
    frame.clear();
    serve::encode_frame(serve::MsgType::kObserve, 2 * i, payload, frame);
    serve::PredictMsg predict;
    predict.session_id = 1;
    payload.clear();
    serve::encode_predict(predict, payload);
    frame.clear();
    serve::encode_frame(serve::MsgType::kPredict, 2 * i + 1, payload, frame);
    return static_cast<std::uint64_t>(frame.size());
  });

  // The replies the daemon sends back for each decision.
  std::vector<std::vector<std::uint8_t>> replies(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    payload.clear();
    serve::encode_observe_ack(serve::ObserveAckMsg{}, payload);
    serve::encode_frame(serve::MsgType::kObserveAck, 2 * i, payload,
                        replies[i]);
    const Expected& answer = *requests[i].answer;
    payload.clear();
    serve::encode_predict_ack(serve::ReplyCode::kOk, 0, answer.probability,
                              1.0, answer.has ? &answer.event : nullptr,
                              answer.has ? 1 : 0, payload);
    serve::encode_frame(serve::MsgType::kPredictAck, 2 * i + 1, payload,
                        replies[i]);
  }
  serve::FrameDecoder decoder;
  std::vector<std::uint8_t> copy;
  std::vector<std::uint32_t> events;
  std::vector<double> decode;
  batched(requests.size(), decode, [&](std::size_t i) {
    decoder.feed(replies[i].data(), replies[i].size());
    std::uint64_t parsed = 0;
    if (auto ack = decoder.next()) {
      copy.assign(ack->payload, ack->payload + ack->size);
      serve::ObserveAckMsg msg;
      parsed += serve::parse_observe_ack(
          serve::WireReader(copy.data(), copy.size()), msg);
    }
    if (auto ack = decoder.next()) {
      copy.assign(ack->payload, ack->payload + ack->size);
      serve::PredictAckMsg msg;
      parsed += serve::parse_predict_ack(
          serve::WireReader(copy.data(), copy.size()), msg, events, 4096);
    }
    return parsed;
  });
  costs.encode_ns = median(encode);
  costs.decode_ns = median(decode);
  add(out, "serve.wire.encode_ns", costs.encode_ns, "ns");
  add(out, "serve.wire.decode_ns", costs.decode_ns, "ns");
}

/// ServerCore::on_bytes on a private core, fed the frames a client sends
/// for every decision (one session per rank), each call timed.
void probe_server(const Prepared& prepared,
                  const std::vector<Request>& requests, CodecCosts& costs,
                  Metrics& out) {
  serve::ServerCore core(daemon_options().server);
  std::vector<double> observe;
  std::vector<double> predict;
  if (core.registry().add(kTraceName, prepared.trace_path).ok()) {
    const std::uint64_t connection = core.connection_open();
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> frame;
    std::vector<std::uint8_t> reply;
    std::uint64_t request_id = 0;
    auto send = [&](serve::MsgType type) {
      frame.clear();
      serve::encode_frame(type, ++request_id, payload, frame);
      reply.clear();
      const std::uint64_t begin = now_ns();
      core.on_bytes(connection, frame.data(), frame.size(), reply, begin);
      return static_cast<double>(now_ns() - begin);
    };
    payload.clear();
    serve::encode_hello(serve::HelloMsg{"e2e-probe"}, payload);
    send(serve::MsgType::kHello);

    std::size_t next = 0;
    for (std::size_t rank = 0; rank < prepared.live_streams.size(); ++rank) {
      payload.clear();
      serve::encode_open(
          serve::OpenMsg{kTraceName, static_cast<std::uint32_t>(rank)},
          payload);
      send(serve::MsgType::kOpen);
      serve::FrameDecoder decoder;
      decoder.feed(reply.data(), reply.size());
      serve::OpenAckMsg ack;
      const auto opened = decoder.next();
      if (!opened || !serve::parse_open_ack(opened->reader(), ack)) break;
      const std::size_t decisions = prepared.live_streams[rank].decisions;
      for (std::size_t d = 0; d < decisions; ++d, ++next) {
        payload.clear();
        serve::encode_observe(ack.session_id, requests[next].events,
                              requests[next].count, payload);
        observe.push_back(send(serve::MsgType::kObserve));
        serve::PredictMsg msg;
        msg.session_id = ack.session_id;
        payload.clear();
        serve::encode_predict(msg, payload);
        predict.push_back(send(serve::MsgType::kPredict));
      }
      payload.clear();
      serve::encode_close(serve::CloseMsg{ack.session_id}, payload);
      send(serve::MsgType::kClose);
    }
    core.connection_close(connection);
  }
  costs.on_bytes_observe_ns = ns_percentile(observe, 50);
  costs.on_bytes_predict_ns = ns_percentile(predict, 50);
  std::vector<double> all = observe;
  all.insert(all.end(), predict.begin(), predict.end());
  add(out, "serve.server.on_bytes_ns_p50", ns_percentile(all, 50), "ns");
  add(out, "serve.server.on_bytes_ns_p99", ns_percentile(all, 99), "ns");
}

}  // namespace

CodecCosts probe_layers(const Prepared& prepared, const Pass& predict_pass,
                        Metrics& out) {
  CodecCosts costs;
  const std::vector<Request> requests = decision_requests(prepared);
  probe_record(prepared, out);
  probe_load(prepared, out);
  probe_predict(prepared, predict_pass, out);
  probe_online(prepared, out);
  probe_snapshot(prepared, out);
  probe_admission(out);
  probe_wire(requests, costs, out);
  probe_server(prepared, requests, costs, out);
  return costs;
}

}  // namespace pythia::e2e
