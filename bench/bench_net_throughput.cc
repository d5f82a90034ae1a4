// E12: networked GED event bus — frame codec cost, loopback notify→push
// round-trip latency, and streamed throughput through the full
// admission/dispatch/push pipeline. No baseline entry: socket numbers are
// machine- and kernel-dependent, so run_benches.sh records them in
// BENCH_net.json without gating on them.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "bench_util.h"
#include "ged/global_detector.h"
#include "net/event_bus_server.h"
#include "net/protocol.h"
#include "net/remote_client.h"
#include "obs/span.h"

namespace sentinel::bench {
namespace {

detector::PrimitiveOccurrence BenchOccurrence(int v) {
  detector::PrimitiveOccurrence occ;
  occ.class_name = "Order";
  occ.oid = 1;
  occ.modifier = EventModifier::kEnd;
  occ.method_signature = "void f(int v)";
  occ.txn = 1;
  auto params = std::make_shared<ParamList>();
  params->Insert("v", oodb::Value::Int(v));
  occ.params = params;
  return occ;
}

/// Frame codec alone: encode one Notify occurrence, reassemble, decode.
void BM_NetFrameCodec(benchmark::State& state) {
  const detector::PrimitiveOccurrence occ = BenchOccurrence(7);
  net::FrameAssembler assembler;
  for (auto _ : state) {
    BytesWriter body;
    net::EncodeOccurrence(occ, &body);
    const std::string wire =
        net::EncodeFrame(net::MessageType::kNotify, body);
    assembler.Feed(wire.data(), wire.size());
    net::FrameAssembler::Frame frame;
    auto ready = assembler.Next(&frame);
    if (!ready.ok() || !*ready) {
      state.SkipWithError("framing failed");
      break;
    }
    BytesReader reader(frame.body);
    auto decoded = net::DecodeOccurrence(&reader);
    if (!decoded.ok()) {
      state.SkipWithError("decode failed");
      break;
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetFrameCodec);

/// Server + client on loopback, one subscription back to the sender.
/// `traced` turns on full causal span recording in both roles — the
/// distributed-tracing worst case (every frame pays encode/decode/wait
/// spans plus the wire trailer).
struct NetHarness {
  ged::GlobalEventDetector ged;
  net::EventBusServer server{&ged};
  obs::SpanTracer tracer;
  std::unique_ptr<net::RemoteGedClient> client;
  std::atomic<std::uint64_t> received{0};
  bool ok = false;

  explicit NetHarness(bool traced = false) {
    tracer.set_mode(traced ? obs::TraceMode::kFull : obs::TraceMode::kOff);
    if (traced) {
      server.set_span_tracer(&tracer);
      ged.set_instruments({.spans = &tracer});
    }
    net::EventBusServer::Options options;
    if (!server.Start(options).ok()) return;
    net::RemoteGedClient::Options copts;
    copts.port = server.port();
    copts.app_name = "bench";
    copts.notify_queue_limit = 8192;
    client = std::make_unique<net::RemoteGedClient>(copts);
    if (traced) client->set_span_tracer(&tracer);
    if (!client->Start().ok()) return;
    if (!client->WaitConnected(std::chrono::milliseconds(5000))) return;
    if (!client
             ->DefineGlobalPrimitive("g_bench", "Order", EventModifier::kEnd,
                                     "void f(int v)")
             .ok()) {
      return;
    }
    ok = client
             ->Subscribe("g_bench", ParamContext::kRecent,
                         [this](const std::string&,
                                const detector::Occurrence&) {
                           received.fetch_add(1, std::memory_order_relaxed);
                         })
             .ok();
  }

  ~NetHarness() {
    if (client != nullptr) client->Stop();
    server.Stop();
  }
};

/// Full loop latency: one Notify through TCP → admission → GED → push.
/// The always-on e2e histograms (origin stamp → dispatch / detect / push
/// handler) are exported as counters so BENCH_net.json records the
/// distribution, not just the mean loop time.
void NotifyRoundTrip(benchmark::State& state, bool traced) {
  NetHarness harness(traced);
  if (!harness.ok) {
    state.SkipWithError("net harness failed to start");
    return;
  }
  const detector::PrimitiveOccurrence occ = BenchOccurrence(1);
  for (auto _ : state) {
    const std::uint64_t target = harness.received.load() + 1;
    (void)harness.client->Notify(occ);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (harness.received.load() < target) {
      if (std::chrono::steady_clock::now() > deadline) {
        state.SkipWithError("push did not arrive");
        return;
      }
      std::this_thread::yield();
    }
  }
  state.SetItemsProcessed(state.iterations());
  const auto sstats = harness.server.stats();
  state.counters["e2e_delivery_p50_ns"] =
      static_cast<double>(sstats.e2e_delivery_ns.QuantileNs(0.50));
  state.counters["e2e_delivery_p99_ns"] =
      static_cast<double>(sstats.e2e_delivery_ns.QuantileNs(0.99));
  state.counters["e2e_detect_p99_ns"] =
      static_cast<double>(sstats.e2e_detect_ns.QuantileNs(0.99));
  state.counters["e2e_action_p99_ns"] = static_cast<double>(
      harness.client->stats().e2e_action_ns.QuantileNs(0.99));
  if (traced) {
    state.counters["spans"] = static_cast<double>(harness.tracer.recorded());
  }
  state.SetLabel(traced ? "traced" : "untraced");
}

void BM_NetNotifyRoundTrip(benchmark::State& state) {
  NotifyRoundTrip(state, /*traced=*/false);
}
void BM_NetNotifyRoundTripTraced(benchmark::State& state) {
  NotifyRoundTrip(state, /*traced=*/true);
}
BENCHMARK(BM_NetNotifyRoundTrip);
BENCHMARK(BM_NetNotifyRoundTripTraced);

/// Streamed throughput: a batch in flight per iteration, acknowledged by
/// the detections coming back. At-most-once semantics make lost events
/// possible under pressure; the harness counts what actually returned.
void BM_NetNotifyStream(benchmark::State& state) {
  NetHarness harness;
  if (!harness.ok) {
    state.SkipWithError("net harness failed to start");
    return;
  }
  const int batch = static_cast<int>(state.range(0));
  const detector::PrimitiveOccurrence occ = BenchOccurrence(1);
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    const std::uint64_t before = harness.received.load();
    for (int i = 0; i < batch; ++i) (void)harness.client->Notify(occ);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (harness.received.load() <
           before + static_cast<std::uint64_t>(batch)) {
      if (std::chrono::steady_clock::now() > deadline) break;  // shed/dropped
      std::this_thread::yield();
    }
    delivered += harness.received.load() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
  const auto stats = harness.client->stats();
  state.counters["dropped"] = static_cast<double>(stats.notifies_dropped);
  state.counters["sheds"] = static_cast<double>(stats.sheds_received);
  state.counters["server_sheds"] =
      static_cast<double>(harness.server.stats().sheds);
}
BENCHMARK(BM_NetNotifyStream)->Arg(16)->Arg(128);

}  // namespace
}  // namespace sentinel::bench
