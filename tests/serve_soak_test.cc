// Fault-injected soak of the serving stack: an in-process Server under
// concurrent good clients, deliberately misbehaving clients (garbage and
// oversized frames, slow writes, mid-request disconnects), and registry
// reloads that hit injected transient I/O faults — all at once. The
// assertions are the daemon's robustness contract (server.h): no crash, a
// structured answer or counted drop for every frame, the no-leaked-
// requests accounting invariant at drain, and clean thread/fd teardown.
//
// Sized to stay well inside the tier-1 TIMEOUT under asan/ubsan and tsan:
// small models, tens of requests per client, one soak pass.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "classify/density_classifier.h"
#include "common/parallel.h"
#include "dataset/csv.h"
#include "dataset/uci_like.h"
#include "error/error_model.h"
#include "error/perturbation.h"
#include "gtest/gtest.h"
#include "microcluster/clusterer.h"
#include "microcluster/serialize.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/tracez.h"
#include "robustness/fault_injector.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace udm::serve {
namespace {

std::string WriteTempTree() {
  char tmpl[] = "/tmp/udm_soak_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  // Two labeled blobs, 3 dims, header + trailing label column (the CSV
  // reader's defaults).
  std::string csv = "a,b,c,label\n";
  for (int i = 0; i < 120; ++i) {
    const int label = i % 2;
    const double center = label == 0 ? -2.0 : 2.0;
    for (int j = 0; j < 3; ++j) {
      // Deterministic spread; no RNG needed for a fixture.
      const double x = center + 0.01 * static_cast<double>((i * 7 + j * 13) %
                                                           100) - 0.5;
      csv += std::to_string(x) + ",";
    }
    csv += std::to_string(label) + "\n";
  }
  const std::string base = dir;
  {
    FILE* f = std::fopen((base + "/data.csv").c_str(), "wb");
    EXPECT_NE(f, nullptr);
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
  }
  const std::string manifest = "udm-models 1\n"
                               "kde base " + base + "/data.csv\n"
                               "classifier clf " + base + "/data.csv 0.2 8\n";
  {
    FILE* f = std::fopen((base + "/manifest.txt").c_str(), "wb");
    EXPECT_NE(f, nullptr);
    std::fwrite(manifest.data(), 1, manifest.size(), f);
    std::fclose(f);
  }
  return base;
}

void RemoveTempTree(const std::string& base) {
  unlink((base + "/data.csv").c_str());
  unlink((base + "/manifest.txt").c_str());
  unlink((base + "/s.sock").c_str());
  rmdir(base.c_str());
}

class ServeSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = WriteTempTree();
    ModelRegistry::Options registry_options;
    registry_options.retry.max_attempts = 4;
    registry_options.retry.initial_backoff_ms = 0.5;
    registry_options.retry.max_backoff_ms = 2.0;
    registry_options.io_faults = &injector_;
    registry_ = std::make_unique<ModelRegistry>(registry_options);
    ASSERT_TRUE(registry_->LoadManifest(base_ + "/manifest.txt").ok());
  }

  void TearDown() override { RemoveTempTree(base_); }

  ServerOptions SmallServer() {
    ServerOptions options;
    options.socket_path = base_ + "/s.sock";
    options.workers = 2;
    options.max_queue = 8;
    options.default_deadline_ms = 100.0;
    options.drain_deadline_ms = 500.0;
    options.read_timeout_ms = 250.0;   // slow-writer defense kicks in fast
    options.write_timeout_ms = 250.0;
    options.limits.max_frame_bytes = 8192;  // oversized attack stays cheap
    return options;
  }

  /// The accounting invariant from server.h: every admitted request ends
  /// in exactly one terminal counter, so nothing is leaked or dropped
  /// silently.
  static void ExpectNoLeakedRequests(const ServerCounters& c) {
    EXPECT_EQ(c.admitted, c.served_ok + c.served_partial + c.served_error +
                              c.cancelled_by_drain)
        << "admitted=" << c.admitted << " ok=" << c.served_ok
        << " partial=" << c.served_partial << " error=" << c.served_error
        << " cancelled=" << c.cancelled_by_drain;
  }

  std::string base_;
  FaultInjector injector_{FaultInjector::Options{}};
  std::unique_ptr<ModelRegistry> registry_;
};

ServeRequest EvalRequestFor(const std::string& model, size_t points,
                            double deadline_ms) {
  ServeRequest request;
  request.op = ServeOp::kEval;
  request.model = model;
  request.dims = 3;
  request.num_points = points;
  request.points.assign(points * 3, 0.25);
  request.deadline_ms = deadline_ms;
  return request;
}

/// A well-behaved client: mixed eval/classify, occasional starvation-level
/// deadlines and budgets so partial responses are exercised too. Counts
/// only outcomes that indicate a *broken* server (transport errors before
/// drain, malformed responses).
void GoodClient(const std::string& socket_path, size_t id, size_t requests,
                std::atomic<uint64_t>* answered,
                std::atomic<uint64_t>* transport_errors) {
  Result<ServeClient> client = ServeClient::Connect(socket_path);
  if (!client.ok()) {
    transport_errors->fetch_add(requests);
    return;
  }
  for (size_t i = 0; i < requests; ++i) {
    ServeRequest request;
    if (i % 3 == 1) {
      request.op = ServeOp::kClassify;
      request.model = "clf";
      request.dims = 3;
      request.num_points = 2;
      request.points.assign(6, id % 2 == 0 ? -2.0 : 2.0);
      request.deadline_ms = 50.0;
    } else {
      request = EvalRequestFor("base", 4, 50.0);
      if (i % 5 == 4) {
        request.eval_budget = 1;  // starve → partial or resource_exhausted
      }
    }
    request.id_json = "\"c" + std::to_string(id) + "-" + std::to_string(i) +
                      "\"";
    Result<ServeResponse> response = client.value().Call(request, 5000.0);
    if (!response.ok()) {
      transport_errors->fetch_add(1);
      client = ServeClient::Connect(socket_path);
      if (!client.ok()) {
        transport_errors->fetch_add(requests - i - 1);
        return;
      }
      continue;
    }
    answered->fetch_add(1);
    EXPECT_EQ(response.value().id_json, request.id_json);
  }
}

/// One pass of every misbehaving-client mode. Each attack uses a fresh
/// connection so a defensive disconnect by the server never cascades.
void MisbehavingClient(const std::string& socket_path, size_t rounds) {
  for (size_t round = 0; round < rounds; ++round) {
    // Garbage frame (non-UTF8 bytes included): expect a structured error
    // on the same connection, not a hangup.
    {
      Result<ServeClient> client = ServeClient::Connect(socket_path);
      if (client.ok()) {
        (void)client.value().SendRaw("}{ not json \xff\xfe\x01\n");
        Result<std::string> frame = client.value().ReadFrame(2000.0);
        if (frame.ok()) {
          EXPECT_NE(frame.value().find("invalid_argument"), std::string::npos);
        }
      }
    }
    // Oversized frame without a newline: the server must cap its buffer
    // and drop us, never balloon.
    {
      Result<ServeClient> client = ServeClient::Connect(socket_path);
      if (client.ok()) {
        (void)client.value().SendRaw(std::string(16384, 'a'));
        (void)client.value().ReadFrame(500.0);  // error frame or hangup
      }
    }
    // Slow writer finishing inside the read timeout: still served.
    {
      Result<ServeClient> client = ServeClient::Connect(socket_path);
      if (client.ok()) {
        const std::string frame = SerializeRequest(
            EvalRequestFor("base", 1, 50.0)) + "\n";
        (void)client.value().SendRaw(frame.substr(0, frame.size() / 2));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        (void)client.value().SendRaw(frame.substr(frame.size() / 2));
        (void)client.value().ReadFrame(2000.0);
      }
    }
    // Stalled writer: half a frame, then silence. The read-timeout
    // defense must reclaim the connection without our cooperation.
    {
      Result<ServeClient> client = ServeClient::Connect(socket_path);
      if (client.ok()) {
        (void)client.value().SendRaw("{\"op\":\"eval\",");
        // Deliberately no completion; connection abandoned below.
      }
    }
    // Mid-request disconnect: send a valid request, vanish before the
    // response. Exercises the write-failure / client-abort path.
    {
      Result<ServeClient> client = ServeClient::Connect(socket_path);
      if (client.ok()) {
        (void)client.value().SendRaw(
            SerializeRequest(EvalRequestFor("base", 8, 100.0)) + "\n");
        client.value().Close();
      }
    }
  }
}

TEST_F(ServeSoakTest, SurvivesHostileTrafficAndFaultyReloads) {
  Server server(registry_.get(), SmallServer());
  ASSERT_TRUE(server.Start().ok());

  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> transport_errors{0};
  std::atomic<bool> stop_reloads{false};

  std::vector<std::thread> threads;
  for (size_t id = 0; id < 4; ++id) {
    threads.emplace_back(GoodClient, SmallServer().socket_path, id, 24,
                         &answered, &transport_errors);
  }
  for (size_t id = 0; id < 2; ++id) {
    threads.emplace_back(MisbehavingClient, SmallServer().socket_path, 3);
  }
  // Concurrent reloads with transient I/O faults armed: the retry policy
  // (4 attempts) absorbs 2 consecutive faults, so every reload succeeds
  // and serving never observes a missing model.
  threads.emplace_back([this, &stop_reloads] {
    while (!stop_reloads.load(std::memory_order_acquire)) {
      injector_.ArmIoFaults(2);
      EXPECT_TRUE(registry_->LoadManifest(base_ + "/manifest.txt").ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  for (size_t i = 0; i < threads.size() - 1; ++i) threads[i].join();
  stop_reloads.store(true, std::memory_order_release);
  threads.back().join();

  server.Drain();
  const ServerCounters counters = server.Counters();
  ExpectNoLeakedRequests(counters);
  EXPECT_EQ(transport_errors.load(), 0u);
  EXPECT_EQ(answered.load(), 4u * 24u);
  EXPECT_GT(counters.served_ok, 0u);
  EXPECT_GT(counters.protocol_errors, 0u);  // the garbage frames were seen
  // Second drain is an idempotent no-op.
  server.Drain();
}

TEST_F(ServeSoakTest, DrainUnderLoadAnswersEverythingAdmitted) {
  ServerOptions options = SmallServer();
  options.drain_deadline_ms = 100.0;  // force the cancellation path too
  Server server(registry_.get(), options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> transport_errors{0};
  std::vector<std::thread> threads;
  for (size_t id = 0; id < 4; ++id) {
    // Drain mid-run hangs up on these clients; transport errors are
    // expected here, so route them to a sink we don't assert on.
    threads.emplace_back(GoodClient, options.socket_path, id, 50, &answered,
                         &transport_errors);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.Drain();
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(server.draining());
  ExpectNoLeakedRequests(server.Counters());
  // The socket is gone: new connections must fail, not hang.
  EXPECT_FALSE(ServeClient::Connect(options.socket_path).ok());
}

TEST_F(ServeSoakTest, ReloadFailurePastRetryBudgetKeepsOldSnapshot) {
  Server server(registry_.get(), SmallServer());
  ASSERT_TRUE(server.Start().ok());

  // More faults than the retry budget: the reload fails...
  injector_.ArmIoFaults(16);
  EXPECT_FALSE(registry_->LoadManifest(base_ + "/manifest.txt").ok());
  injector_.ArmIoFaults(0);

  // ...but the previous snapshot keeps serving.
  Result<ServeClient> client =
      ServeClient::Connect(SmallServer().socket_path);
  ASSERT_TRUE(client.ok());
  Result<ServeResponse> response =
      client.value().Call(EvalRequestFor("base", 2, 100.0), 5000.0);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, ServeStatus::kOk);
  EXPECT_EQ(response.value().densities.size(), 2u);

  server.Drain();
  ExpectNoLeakedRequests(server.Counters());
}

/// Sends one admin verb and returns the response (5s client timeout).
Result<ServeResponse> Scrape(ServeClient& client, ServeOp op,
                             double window_seconds = 0.0) {
  ServeRequest request;
  request.op = op;
  request.window_seconds = window_seconds;
  return client.Call(request, 5000.0);
}

/// Parses an admin verb's stats_json payload.
obs::JsonValue ParseAdminJson(const ServeResponse& response) {
  const Result<obs::JsonValue> parsed =
      obs::JsonValue::Parse(response.stats_json);
  EXPECT_TRUE(parsed.ok()) << response.stats_json;
  return parsed.ok() ? parsed.value() : obs::JsonValue();
}

// The telemetry plane's core promise: admin verbs ride the reader
// threads, not the worker queue, so introspection stays responsive while
// the queue is saturated and shedding.
TEST_F(ServeSoakTest, AdminStaysResponsiveWhileShedding) {
  ServerOptions options = SmallServer();
  options.workers = 1;
  options.max_queue = 2;
  Server server(registry_.get(), options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> flood;
  for (int id = 0; id < 6; ++id) {
    flood.emplace_back([&options, &stop] {
      Result<ServeClient> client = ServeClient::Connect(options.socket_path);
      while (!stop.load(std::memory_order_acquire)) {
        if (!client.ok()) {
          client = ServeClient::Connect(options.socket_path);
          continue;
        }
        if (!client.value().Call(EvalRequestFor("base", 64, 150.0), 2000.0)
                 .ok()) {
          client = ServeClient::Connect(options.socket_path);
        }
      }
    });
  }

  Result<ServeClient> admin = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(admin.ok());
  double worst_ms = 0.0;
  for (int i = 0; i < 20; ++i) {
    const auto start = std::chrono::steady_clock::now();
    Result<ServeResponse> response = Scrape(admin.value(), ServeOp::kStats);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    ASSERT_TRUE(response.ok()) << "scrape " << i << " failed: "
                               << response.status().ToString();
    EXPECT_FALSE(response.value().stats_json.empty());
    worst_ms = std::max(worst_ms, ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : flood) t.join();
  server.Drain();

  const ServerCounters counters = server.Counters();
  // Saturation really happened (six closed-loop clients vs a queue of 2)
  // and every scrape still answered inside its own deadline.
  EXPECT_GT(counters.shed_overload, 0u);
  EXPECT_LT(worst_ms, 1000.0);
  ExpectNoLeakedRequests(counters);
}

// tracez returns the slowest recent requests, stitched: a request's
// capture is retained under the client-supplied trace id it rode in on,
// with its spans attached, and the list is ranked slowest-first. Which
// request is slowest is timing, not contract, so the test asserts only
// what holds on every run: Tracez keeps kRetained captures, more than the
// five requests sent here, so the tagged one is always among them.
TEST_F(ServeSoakTest, TracezReturnsSlowestRequestWithItsSpans) {
  obs::Tracez::Global().ResetForTest();
  ServerOptions options = SmallServer();
  options.limits = ProtocolLimits{};  // room for the 1024-point frame
  Server server(registry_.get(), options);
  ASSERT_TRUE(server.Start().ok());

  Result<ServeClient> client = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  constexpr int kRequests = 5;
  static_assert(kRequests < static_cast<int>(obs::Tracez::kRetained));
  for (int i = 0; i < kRequests - 1; ++i) {
    ASSERT_TRUE(
        client.value().Call(EvalRequestFor("base", 1, 1000.0), 5000.0).ok());
  }
  ServeRequest big = EvalRequestFor("base", 1024, 5000.0);
  big.trace_id = "soak-slowest";
  Result<ServeResponse> big_response = client.value().Call(big, 10000.0);
  ASSERT_TRUE(big_response.ok());
  EXPECT_EQ(big_response.value().trace_id, "soak-slowest");

  // A capture is retired after its response is written; poll briefly.
  bool found = false;
  for (int attempt = 0; attempt < 100 && !found; ++attempt) {
    Result<ServeResponse> tracez = Scrape(client.value(), ServeOp::kTracez);
    ASSERT_TRUE(tracez.ok());
    const obs::JsonValue root = ParseAdminJson(tracez.value());
    const obs::JsonValue* slowest = root.Find("slowest");
    ASSERT_NE(slowest, nullptr);
    ASSERT_TRUE(slowest->is_array());
    const obs::JsonValue* tagged = nullptr;
    double previous_us = std::numeric_limits<double>::infinity();
    for (const obs::JsonValue& capture : slowest->items()) {
      const obs::JsonValue* duration = capture.Find("duration_us");
      ASSERT_NE(duration, nullptr);
      EXPECT_LE(duration->number(), previous_us) << "not sorted slowest-first";
      previous_us = duration->number();
      const obs::JsonValue* trace_id = capture.Find("trace_id");
      ASSERT_NE(trace_id, nullptr);
      if (trace_id->string() == "soak-slowest") tagged = &capture;
    }
    if (tagged == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;  // the tagged capture is not retired yet
    }
    found = true;
    // Every span in the capture belongs to this one request by
    // construction. The request-level serve.execute span ends last, so if
    // the 1024-point eval emitted more chunk spans than the per-capture
    // cap, it is the one dropped — in which case the capture must say so.
    const obs::JsonValue* spans = tagged->Find("spans");
    ASSERT_NE(spans, nullptr);
    ASSERT_TRUE(spans->is_array());
    EXPECT_FALSE(spans->items().empty());
    bool has_execute = false;
    for (const obs::JsonValue& span : spans->items()) {
      const obs::JsonValue* name = span.Find("name");
      ASSERT_NE(name, nullptr);
      if (name->string() == "serve.execute") has_execute = true;
    }
    const obs::JsonValue* spans_dropped = tagged->Find("spans_dropped");
    ASSERT_NE(spans_dropped, nullptr);
    EXPECT_TRUE(has_execute || spans_dropped->number() > 0.0)
        << "request-level span missing without a counted drop";
  }
  EXPECT_TRUE(found) << "tagged capture never surfaced in tracez";

  server.Drain();
  ExpectNoLeakedRequests(server.Counters());
}

// The `kde` manifest kind is the ψ ≡ 0 error KDE, so a far-tail query in
// log space stays finite (log-sum-exp, no linear underflow) and equals the
// `error_kde <name> <csv> -` entry bit for bit.
TEST_F(ServeSoakTest, KdeEntryLogSpaceIsFiniteInTheFarTail) {
  const std::string manifest = "udm-models 1\n"
                               "kde plain " + base_ + "/data.csv\n"
                               "error_kde zero " + base_ + "/data.csv -\n";
  {
    FILE* f = std::fopen((base_ + "/manifest.txt").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(manifest.data(), 1, manifest.size(), f);
    std::fclose(f);
  }
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadManifest(base_ + "/manifest.txt").ok());
  const std::shared_ptr<const ModelEntry> plain = registry.Find("plain");
  const std::shared_ptr<const ModelEntry> zero = registry.Find("zero");
  ASSERT_NE(plain, nullptr);
  ASSERT_NE(zero, nullptr);
  EXPECT_EQ(plain->kind, ModelKind::kKde);
  EXPECT_EQ(zero->kind, ModelKind::kErrorKde);

  // The fixture data sits in [-2.5, 2.5]; go ~40 bandwidths past it.
  const std::vector<double>& h = zero->error_kde->bandwidths();
  std::vector<double> far(3);
  for (size_t j = 0; j < far.size(); ++j) far[j] = 2.5 + 40.0 * h[j];
  EvalRequest request;
  request.points = far;
  request.log_space = true;
  const Result<EvalResult> from_kde = plain->Evaluate(request);
  const Result<EvalResult> from_error_kde = zero->Evaluate(request);
  ASSERT_TRUE(from_kde.ok());
  ASSERT_TRUE(from_error_kde.ok());
  ASSERT_EQ(from_kde.value().densities.size(), 1u);
  EXPECT_TRUE(std::isfinite(from_kde.value().densities[0]))
      << from_kde.value().densities[0];
  EXPECT_EQ(from_kde.value().densities[0],
            from_error_kde.value().densities[0]);
  // The linear density really underflows out there.
  request.log_space = false;
  EXPECT_EQ(plain->Evaluate(request).value().densities[0], 0.0);
}

// The served classifier is the paper's roll-up: every label, tier and rule
// a classify response carries is bit-identical to an in-process Explain on
// a DensityBasedClassifier trained from the same CSV, ψ and q — also under
// a one-eval budget shared by a batch, which walks it from a truncated
// roll-up (Bayes rule) down to the prior rung. Several clients classify at
// once: entries are immutable, so no lock serializes them (the tsan preset
// runs this case).
TEST_F(ServeSoakTest, ServedClassifyMatchesInProcessExplain) {
  const Dataset data = ReadCsv(base_ + "/data.csv").value();
  DensityBasedClassifier::Options options;
  options.num_clusters = 8;  // the fixture manifest's `clf` entry
  const DensityBasedClassifier local =
      DensityBasedClassifier::Train(
          data,
          ErrorModel::PerDimension(data.NumRows(), std::vector<double>(3, 0.2))
              .value(),
          options)
          .value();

  // Points deep in either blob, between them, and off to the sides.
  std::vector<double> points;
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 3; ++j) {
      points.push_back(-3.0 + 0.4 * static_cast<double>(i) +
                       0.15 * static_cast<double>(j));
    }
  }
  const size_t num_points = points.size() / 3;

  /// Checks one response against in-process Explain of every point under
  /// one context of `budget` (0 = unlimited) shared by the batch.
  const auto expect_matches = [&](const ServeResponse& served,
                                  uint64_t budget) -> size_t {
    EXPECT_EQ(served.status, ServeStatus::kOk) << served.message;
    EXPECT_EQ(served.labels.size(), num_points);
    EXPECT_EQ(served.tiers.size(), num_points);
    EXPECT_EQ(served.rules.size(), num_points);
    if (served.labels.size() != num_points ||
        served.tiers.size() != num_points ||
        served.rules.size() != num_points) {
      return 0;
    }
    ExecContext ctx(Deadline::Infinite(), {}, ExecBudget{budget, 0});
    size_t with_rules = 0;
    for (size_t i = 0; i < num_points; ++i) {
      const DensityBasedClassifier::Explanation e =
          local.Explain(std::span<const double>(points).subspan(i * 3, 3), ctx)
              .value();
      EXPECT_EQ(served.labels[i], e.predicted) << "point " << i;
      EXPECT_EQ(served.tiers[i], DeciderToString(e.used_fallback))
          << "point " << i;
      std::vector<ServeRule> expected;
      for (const DensityBasedClassifier::Rule& rule : e.selected) {
        expected.push_back(ServeRule{rule.dims, rule.label, rule.log_accuracy});
      }
      EXPECT_EQ(served.rules[i], expected) << "point " << i;
      with_rules += e.selected.empty() ? 0 : 1;
    }
    return with_rules;
  };

  ServerOptions server_options = SmallServer();
  server_options.workers = 4;
  server_options.max_queue = 64;  // stay below the degrade watermark
  Server server(registry_.get(), server_options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<Result<ServeResponse>> responses(4, Status::Internal("unset"));
  std::vector<std::thread> clients;
  for (size_t c = 0; c < responses.size(); ++c) {
    clients.emplace_back([&, c] {
      Result<ServeClient> client =
          ServeClient::Connect(server_options.socket_path);
      if (!client.ok()) {
        responses[c] = client.status();
        return;
      }
      ServeRequest request;
      request.op = ServeOp::kClassify;
      request.model = "clf";
      request.dims = 3;
      request.num_points = num_points;
      request.points = points;
      // Far past any roll-up's cost, so only the budget case truncates.
      request.deadline_ms = 10000.0;
      request.eval_budget = c == 0 ? 1 : 0;
      responses[c] = client.value().Call(request, 20000.0);
    });
  }
  for (std::thread& t : clients) t.join();
  server.Drain();

  for (size_t c = 0; c < responses.size(); ++c) {
    ASSERT_TRUE(responses[c].ok()) << responses[c].status().ToString();
    const ServeResponse& served = responses[c].value();
    if (c == 0) {
      // The first point's roll-up stops at its first charge and the Bayes
      // rule decides; the spent budget sends every later point to the prior.
      expect_matches(served, 1);
      EXPECT_TRUE(served.degraded);
      EXPECT_EQ(served.tiers.front(), "bayes");
      EXPECT_EQ(served.tiers.back(), "prior");
    } else {
      EXPECT_GT(expect_matches(served, 0), 0u) << "no point selected rules";
      EXPECT_FALSE(served.degraded);
    }
  }
}

// healthz reports healthy while serving, and readiness and health flip
// off at drain.
TEST_F(ServeSoakTest, HealthzFlipsOnDrain) {
  const ServerOptions options = SmallServer();
  Server server(registry_.get(), options);
  ASSERT_TRUE(server.Start().ok());

  Result<ServeClient> client = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());

  {
    Result<ServeResponse> healthz = Scrape(client.value(), ServeOp::kHealthz);
    ASSERT_TRUE(healthz.ok());
    const obs::JsonValue root = ParseAdminJson(healthz.value());
    EXPECT_TRUE(root.Find("healthy")->boolean());
    EXPECT_TRUE(root.Find("ready")->boolean());
    EXPECT_FALSE(root.Find("draining")->boolean());
  }

  Result<ServeResponse> still_served =
      client.value().Call(EvalRequestFor("base", 2, 1000.0), 5000.0);
  ASSERT_TRUE(still_served.ok());
  EXPECT_EQ(still_served.value().status, ServeStatus::kOk);

  // Drain (the SIGTERM path): readiness flips off. The socket is gone, so
  // assert on the in-process view the admin verbs are built from.
  server.Drain();
  {
    const Result<obs::JsonValue> root =
        obs::JsonValue::Parse(server.HealthzJson());
    ASSERT_TRUE(root.ok());
    EXPECT_TRUE(root->Find("draining")->boolean());
    EXPECT_FALSE(root->Find("ready")->boolean());
    EXPECT_FALSE(root->Find("healthy")->boolean());
  }
  {
    const Result<obs::JsonValue> root =
        obs::JsonValue::Parse(server.ReadyzJson());
    ASSERT_TRUE(root.ok());
    EXPECT_FALSE(root->Find("ready")->boolean());
  }
  ExpectNoLeakedRequests(server.Counters());
}

// The windowed p99 reported by stats must agree with what a client
// actually observed. The histogram's exponential buckets (growth 2.0)
// bound the reported quantile to at most 2x the true value; the client's
// measurement adds transport on top, so the comparison is banded, not
// exact.
TEST_F(ServeSoakTest, StatsWindowP99TracksClientObservedLatency) {
  obs::MetricsRegistry::Global().ResetForTest();
  ServerOptions options = SmallServer();
  options.limits = ProtocolLimits{};  // frames carry 256-point batches
  Server server(registry_.get(), options);
  ASSERT_TRUE(server.Start().ok());

  Result<ServeClient> client = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  std::vector<double> latencies_ms;
  for (int i = 0; i < 40; ++i) {
    const auto start = std::chrono::steady_clock::now();
    Result<ServeResponse> response =
        client.value().Call(EvalRequestFor("base", 256, 5000.0), 10000.0);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response.value().status, ServeStatus::kOk);
    latencies_ms.push_back(ms);
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double client_p99 = latencies_ms[latencies_ms.size() - 1];

  Result<ServeResponse> stats =
      Scrape(client.value(), ServeOp::kStats, /*window_seconds=*/60.0);
  ASSERT_TRUE(stats.ok());
  const obs::JsonValue root = ParseAdminJson(stats.value());
  const obs::JsonValue* window = root.Find("window");
  ASSERT_NE(window, nullptr);
  const obs::JsonValue* p99 = window->Find("request_p99_ms");
  ASSERT_NE(p99, nullptr);
  ASSERT_TRUE(p99->is_number()) << "window empty after 40 requests";
  const double server_p99 = p99->number();
  EXPECT_GT(server_p99, 0.0);
  // Upper band: bucket upper bound (2x) over the true service time, which
  // the client-observed time dominates. Slack absorbs timer granularity.
  EXPECT_LE(server_p99, 2.0 * client_p99 + 1.0)
      << "server p99 " << server_p99 << "ms vs client p99 " << client_p99;
  // Lower band: service time is the bulk of the client's observation for
  // 256-point batches; a grossly smaller reading means the histogram is
  // recording the wrong quantity (e.g. wrong unit or wrong phase).
  EXPECT_GE(server_p99, client_p99 / 8.0 - 1.0)
      << "server p99 " << server_p99 << "ms vs client p99 " << client_p99;

  server.Drain();
  ExpectNoLeakedRequests(server.Counters());
}

/// Bit patterns of `values`, so a comparison also tells -0.0 from 0.0.
std::vector<uint64_t> Bits(std::span<const double> values) {
  std::vector<uint64_t> bits;
  bits.reserve(values.size());
  for (double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

// Served eval runs each batch at the daemon's eval width (server.h), and
// the engine's chunking depends only on the model and the batch, so every
// served density equals a serial in-process Evaluate bit for bit: for an
// error_kde entry over 4000 rows (its index would sweep most terms, so
// kAuto runs the dense path in 4-query tiles, one tile per chunk: a
// 64-point batch fans out over 16 chunks) and for an mc entry, in linear
// and log space, with several clients in flight (the tsan preset runs
// this case). Under an eval budget of a quarter of the batch's cost the
// answer stops early; which chunks ran before the budget ran out depends
// on timing, so only the prefix property is asserted, never its length.
TEST_F(ServeSoakTest, ServedParallelEvalMatchesSerialEvaluate) {
  constexpr size_t kRows = 4000;
  constexpr size_t kPoints = 64;
  const Dataset clean = MakeAdultLike(kRows + kPoints, 1).value();
  PerturbationOptions perturb;
  perturb.f = 1.0;
  perturb.seed = 5;
  const UncertainDataset noisy = Perturb(clean, perturb).value();
  std::vector<size_t> train_rows(kRows);
  std::iota(train_rows.begin(), train_rows.end(), size_t{0});
  std::vector<size_t> query_rows(kPoints);
  std::iota(query_rows.begin(), query_rows.end(), kRows);
  const Dataset train = noisy.data.Select(train_rows);
  const size_t dims = train.NumDims();
  const Dataset queries = noisy.data.Select(query_rows);
  const std::vector<double> points(queries.values().begin(),
                                   queries.values().end());

  const std::string csv_path = base_ + "/adult.csv";
  const std::string mc_path = base_ + "/mc.txt";
  ASSERT_TRUE(WriteCsv(train, csv_path).ok());
  MicroClusterer::Options mc_options;
  mc_options.num_clusters = 140;
  ASSERT_TRUE(SaveMicroClusters(
                  BuildMicroClusters(train, noisy.errors.Select(train_rows),
                                     mc_options)
                      .value(),
                  mc_path)
                  .ok());
  {
    const std::string manifest = "udm-models 1\n"
                                 "error_kde ekde " + csv_path + " 0.25\n"
                                 "mc mc " + mc_path + "\n";
    FILE* f = std::fopen((base_ + "/manifest.txt").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(manifest.data(), 1, manifest.size(), f);
    std::fclose(f);
  }
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadManifest(base_ + "/manifest.txt").ok());
  unlink(csv_path.c_str());
  unlink(mc_path.c_str());
  ASSERT_GT(registry.Find("ekde")->index_cells, 0u);

  // The serial reference, and each batch's full kernel-eval cost.
  struct Variant {
    std::string model;
    bool log_space = false;
    std::vector<double> serial;
    uint64_t cost = 0;
  };
  std::vector<Variant> variants;
  for (const char* model : {"ekde", "mc"}) {
    for (bool log_space : {false, true}) {
      EvalRequest request;
      request.points = points;
      request.threads = 1;
      request.log_space = log_space;
      const EvalResult serial =
          registry.Find(model)->Evaluate(request).value();
      ASSERT_EQ(serial.densities.size(), kPoints);
      if (std::string(model) == "ekde") {
        // The batch bypassed the spatial index for the dense tiled path.
        EXPECT_EQ(serial.stats.cells_visited, 0u);
      }
      variants.push_back(
          {model, log_space, serial.densities, serial.stats.kernel_evals});
    }
  }

  ServerOptions server_options = SmallServer();
  server_options.max_queue = 64;  // stay below the degrade watermark
  server_options.limits = ProtocolLimits{};  // frames carry 64 full rows
  Server server(&registry, server_options);
  EXPECT_EQ(server.eval_width(), ThreadPool::HardwareThreads());
  ASSERT_TRUE(server.Start().ok());

  // Every client sends every (variant, budgeted) pair, each from a
  // different starting offset, so all of them overlap in the workers.
  constexpr size_t kClients = 4;
  const size_t requests_per_client = 2 * variants.size();
  struct Sent {
    size_t variant = 0;
    bool budgeted = false;
    Result<ServeResponse> response = Status::Internal("unset");
  };
  std::vector<std::vector<Sent>> sent(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Result<ServeClient> client =
          ServeClient::Connect(server_options.socket_path);
      for (size_t r = 0; r < requests_per_client; ++r) {
        const size_t k = (r + c * 3) % requests_per_client;
        Sent& out = sent[c].emplace_back();
        out.variant = k / 2;
        out.budgeted = k % 2 == 1;
        if (!client.ok()) {
          out.response = client.status();
          continue;
        }
        const Variant& v = variants[out.variant];
        ServeRequest request;
        request.op = ServeOp::kEval;
        request.model = v.model;
        request.id_json = std::to_string(c * 100 + r);
        request.dims = dims;
        request.num_points = kPoints;
        request.points = points;
        request.log_space = v.log_space;
        request.deadline_ms = 10000.0;
        request.eval_budget = out.budgeted ? std::max<uint64_t>(v.cost / 4, 1)
                                           : 0;
        out.response = client.value().Call(request, 20000.0);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Drain();
  ExpectNoLeakedRequests(server.Counters());

  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(sent[c].size(), requests_per_client);
    for (const Sent& s : sent[c]) {
      const Variant& v = variants[s.variant];
      const std::string what = v.model + (v.log_space ? " log" : " linear") +
                               (s.budgeted ? " budgeted" : "");
      ASSERT_TRUE(s.response.ok()) << what << ": "
                                   << s.response.status().ToString();
      const ServeResponse& served = s.response.value();
      if (!s.budgeted) {
        EXPECT_EQ(served.status, ServeStatus::kOk) << what << served.message;
        EXPECT_EQ(Bits(served.densities), Bits(v.serial)) << what;
        continue;
      }
      // A quarter of the cost cannot finish the batch: either a prefix
      // came back, or the budget ran out before any chunk completed.
      if (served.status == ServeStatus::kResourceExhausted) continue;
      ASSERT_EQ(served.status, ServeStatus::kPartial)
          << what << served.message;
      EXPECT_EQ(served.stop_cause, "budget") << what;
      ASSERT_LT(served.densities.size(), kPoints) << what;
      EXPECT_EQ(Bits(served.densities),
                Bits(std::span<const double>(v.serial).first(
                    served.densities.size())))
          << what;
    }
  }
}

}  // namespace
}  // namespace udm::serve
