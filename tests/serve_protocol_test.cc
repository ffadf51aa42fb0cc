// Deterministic fuzz of the serve wire-protocol parsers — the daemon's
// robustness boundary. The contract under test (protocol.h): every byte
// sequence fed to ParseRequestFrame / ParseResponseFrame yields either a
// parsed message or a structured Status — never a crash, hang, or abort.
// The tier-1 suite runs this file under the asan-ubsan preset, so any
// out-of-bounds read, overflow, or UB in the parsing path fails loudly.
//
// Fuzzing is seeded-deterministic (no wall-clock entropy): failures
// reproduce exactly, and the corpus is identical on every run.
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "serve/protocol.h"

namespace udm::serve {
namespace {

std::string ValidRequestFrame() {
  ServeRequest request;
  request.op = ServeOp::kEval;
  request.id_json = "\"req-1\"";
  request.model = "base";
  request.dims = 3;
  request.num_points = 2;
  request.points = {0.1, 0.2, 0.3, -1.0, -2.0, -3.0};
  request.subspace = {0, 2};
  request.deadline_ms = 50.0;
  request.eval_budget = 1000;
  request.log_space = true;
  return SerializeRequest(request);
}

std::string ValidResponseFrame() {
  ServeResponse response;
  response.id_json = "42";
  response.status = ServeStatus::kPartial;
  response.degraded = true;
  response.densities = {1e-3, 2e-3};
  response.requested = 4;
  response.evaluated = 2;
  response.stop_cause = "deadline";
  return SerializeResponse(response);
}

/// Feeds `frame` to both parsers; the only acceptable outcomes are a
/// parsed value or an error Status. Reaching the return proves no
/// crash/abort; the sanitizers police everything subtler.
void ExpectStructuredOutcome(const std::string& frame,
                             const ProtocolLimits& limits) {
  const Result<ServeRequest> request = ParseRequestFrame(frame, limits);
  if (!request.ok()) {
    EXPECT_FALSE(request.status().message().empty());
  }
  const Result<ServeResponse> response = ParseResponseFrame(frame, limits);
  if (!response.ok()) {
    EXPECT_FALSE(response.status().message().empty());
  }
}

TEST(ServeProtocolRoundTrip, RequestSurvivesSerializeParse) {
  const ProtocolLimits limits;
  Result<ServeRequest> parsed = ParseRequestFrame(ValidRequestFrame(), limits);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().op, ServeOp::kEval);
  EXPECT_EQ(parsed.value().id_json, "\"req-1\"");
  EXPECT_EQ(parsed.value().model, "base");
  EXPECT_EQ(parsed.value().num_points, 2u);
  EXPECT_EQ(parsed.value().dims, 3u);
  EXPECT_EQ(parsed.value().points.size(), 6u);
  EXPECT_EQ(parsed.value().subspace, (std::vector<size_t>{0, 2}));
  EXPECT_DOUBLE_EQ(parsed.value().deadline_ms, 50.0);
  EXPECT_EQ(parsed.value().eval_budget, 1000u);
  EXPECT_TRUE(parsed.value().log_space);
}

TEST(ServeProtocolRoundTrip, ResponseSurvivesSerializeParse) {
  const ProtocolLimits limits;
  Result<ServeResponse> parsed =
      ParseResponseFrame(ValidResponseFrame(), limits);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().id_json, "42");
  EXPECT_EQ(parsed.value().status, ServeStatus::kPartial);
  EXPECT_TRUE(parsed.value().degraded);
  EXPECT_EQ(parsed.value().densities.size(), 2u);
  EXPECT_EQ(parsed.value().requested, 4u);
  EXPECT_EQ(parsed.value().evaluated, 2u);
  EXPECT_EQ(parsed.value().stop_cause, "deadline");
}

/// A classify answer for three points: two decided by rules (one with two
/// rules), one by the Bayes fallback with no rules.
ServeResponse ClassifyResponse() {
  ServeResponse response;
  response.id_json = "\"clf-7\"";
  response.requested = 3;
  response.evaluated = 3;
  response.labels = {1, 0, 1};
  response.tiers = {"rules", "bayes", "rules"};
  response.rules = {
      {ServeRule{{0, 3}, 1, -0.10536051565782628},
       ServeRule{{5}, 1, -0.2876820724517809}},
      {},
      // Doubles that only round-trip at 17 significant digits.
      {ServeRule{{1, 2, 4}, 1, -0.1 - 0.2}}};
  return response;
}

TEST(ServeProtocolRoundTrip, ClassifyRulesSurviveSerializeParse) {
  const ServeResponse response = ClassifyResponse();
  const std::string frame = SerializeResponse(response);
  EXPECT_NE(frame.find("\"rules\":[["), std::string::npos) << frame;
  const Result<ServeResponse> parsed =
      ParseResponseFrame(frame, ProtocolLimits());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->labels, response.labels);
  EXPECT_EQ(parsed->tiers, response.tiers);
  // Bit-identical: ServeRule's == compares log_accuracy with ==.
  EXPECT_EQ(parsed->rules, response.rules);
  // Re-serializing the parsed response reproduces the frame byte for byte.
  EXPECT_EQ(SerializeResponse(*parsed), frame);
}

TEST(ServeProtocolRoundTrip, ClassifyFrameWithoutRulesStillParses) {
  // "rules" is optional: a server that sends none still parses.
  const Result<ServeResponse> parsed = ParseResponseFrame(
      R"({"id":3,"status":"ok","requested":2,"evaluated":2,)"
      R"("labels":[0,1],"tiers":["exact","prior"]})",
      ProtocolLimits());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->labels, (std::vector<int>{0, 1}));
  EXPECT_EQ(parsed->tiers, (std::vector<std::string>{"exact", "prior"}));
  EXPECT_TRUE(parsed->rules.empty());
}

TEST(ServeProtocolFuzz, MalformedLabelsAndRulesAreStructuredErrors) {
  const ProtocolLimits limits;
  for (const char* field :
       {R"("rules":{})", R"("rules":[{}])", R"("rules":[[1]])",
        R"("rules":[[{"dims":[0],"label":1}]])",
        R"("rules":[[{"dims":[-1],"label":1,"log_accuracy":0}]])",
        R"("rules":[[{"dims":"0","label":1,"log_accuracy":0}]])",
        R"("rules":[[{"dims":[0],"label":1.5,"log_accuracy":0}]])",
        R"("rules":[[{"dims":[0],"label":-1,"log_accuracy":0}]])",
        R"("rules":[[{"dims":[0],"label":1e300,"log_accuracy":0}]])",
        R"("labels":[1e300])", R"("labels":[-7])", R"("labels":[2.5])"}) {
    const std::string frame = std::string(R"({"status":"ok",)") + field + "}";
    const Result<ServeResponse> parsed = ParseResponseFrame(frame, limits);
    EXPECT_FALSE(parsed.ok()) << frame;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << frame;
  }
}

TEST(ServeProtocolFuzz, EveryTruncationIsStructured) {
  const ProtocolLimits limits;
  for (const std::string& frame :
       {ValidRequestFrame(), ValidResponseFrame(),
        SerializeResponse(ClassifyResponse())}) {
    for (size_t len = 0; len <= frame.size(); ++len) {
      ExpectStructuredOutcome(frame.substr(0, len), limits);
    }
  }
}

TEST(ServeProtocolFuzz, SingleByteMutationsAreStructured) {
  const ProtocolLimits limits;
  std::mt19937_64 rng(0x5EED);
  for (const std::string& frame :
       {ValidRequestFrame(), SerializeResponse(ClassifyResponse())}) {
    for (size_t i = 0; i < frame.size(); ++i) {
      for (int round = 0; round < 4; ++round) {
        std::string mutated = frame;
        mutated[i] = static_cast<char>(rng());
        ExpectStructuredOutcome(mutated, limits);
      }
    }
  }
}

TEST(ServeProtocolFuzz, RandomGarbageIsStructured) {
  const ProtocolLimits limits;
  std::mt19937_64 rng(0xF00D);
  for (int i = 0; i < 2000; ++i) {
    const size_t len = rng() % 256;
    std::string garbage(len, '\0');
    for (char& c : garbage) c = static_cast<char>(rng());
    ExpectStructuredOutcome(garbage, limits);
  }
}

TEST(ServeProtocolFuzz, NonUtf8AndControlBytesAreStructured) {
  const ProtocolLimits limits;
  const std::string cases[] = {
      std::string("\xff\xfe\xfd"),
      std::string("{\"op\":\"eval\",\"model\":\"\xc3\x28\"}"),  // bad UTF-8
      std::string("{\"op\":\"ev\x01l\"}"),
      std::string("\"\\udc00\""),             // lone low surrogate
      std::string("{\"op\":\"eval\0x\"}", 15),  // embedded NUL
      std::string(64, '\x80'),
  };
  for (const std::string& frame : cases) {
    ExpectStructuredOutcome(frame, limits);
  }
}

TEST(ServeProtocolFuzz, StructuralAbuseIsStructured) {
  const ProtocolLimits limits;
  // Deep nesting probes the parser's recursion guard; the rest are the
  // classic JSON edge shapes.
  const std::string cases[] = {
      std::string(10000, '['),
      std::string(10000, '{'),
      "[" + std::string(5000, '"') + "]",
      "{\"op\":",
      "{\"op\":\"eval\",\"points\":[[1,2],[3]]}",          // ragged rows
      "{\"op\":\"eval\",\"points\":[[1e999]]}",             // overflow → inf
      "{\"op\":\"eval\",\"points\":[[null]]}",
      "{\"op\":\"eval\",\"deadline_ms\":\"soon\"}",
      "{\"op\":\"eval\",\"subspace\":[-1]}",
      "{\"op\":\"eval\",\"subspace\":[1e99]}",
      "{\"op\":17}",
      "{\"op\":\"eval\",\"model\":{}}",
      "[]",
      "null",
      "true",
      "3.14",
      "\"just a string\"",
      "{}",
  };
  for (const std::string& frame : cases) {
    ExpectStructuredOutcome(frame, limits);
  }
}

TEST(ServeProtocolFuzz, OversizedFramesAreRejectedBeforeParsing) {
  ProtocolLimits limits;
  limits.max_frame_bytes = 1024;
  const std::string oversized(limits.max_frame_bytes + 1, 'a');
  const Result<ServeRequest> request = ParseRequestFrame(oversized, limits);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);

  // At the limit it is parsed (and rejected as garbage, not as oversized).
  const std::string at_limit(limits.max_frame_bytes, 'a');
  EXPECT_FALSE(ParseRequestFrame(at_limit, limits).ok());
}

TEST(ServeProtocolFuzz, PointAndDimLimitsAreEnforced) {
  ProtocolLimits limits;
  limits.max_points = 4;
  limits.max_dims = 3;
  limits.max_frame_bytes = 1 << 20;

  std::string too_many_points = "{\"op\":\"eval\",\"model\":\"m\",\"points\":[";
  for (int i = 0; i < 5; ++i) {
    too_many_points += i == 0 ? "[1,2,3]" : ",[1,2,3]";
  }
  too_many_points += "]}";
  EXPECT_FALSE(ParseRequestFrame(too_many_points, limits).ok());

  const std::string too_many_dims =
      "{\"op\":\"eval\",\"model\":\"m\",\"points\":[[1,2,3,4]]}";
  EXPECT_FALSE(ParseRequestFrame(too_many_dims, limits).ok());

  const std::string at_limits =
      "{\"op\":\"eval\",\"model\":\"m\",\"points\":[[1,2,3],[4,5,6],[7,8,9],"
      "[1,1,1]]}";
  EXPECT_TRUE(ParseRequestFrame(at_limits, limits).ok());
}

TEST(ServeProtocolFuzz, NonFiniteCoordinatesAreRejected) {
  const ProtocolLimits limits;
  // JSON has no literal NaN/Infinity; overflowing literals produce inf
  // inside the number parser, and the point reader must refuse them.
  const std::string inf_point =
      "{\"op\":\"eval\",\"model\":\"m\",\"points\":[[1e999,0]]}";
  EXPECT_FALSE(ParseRequestFrame(inf_point, limits).ok());
}

TEST(ServeProtocolFuzz, CrossParsingValidFramesIsStructured) {
  // A request parsed as a response and vice versa: both are valid JSON, so
  // the outcome is parser-defined — but it must be structured either way.
  const ProtocolLimits limits;
  ExpectStructuredOutcome(ValidRequestFrame(), limits);
  ExpectStructuredOutcome(ValidResponseFrame(), limits);
}

}  // namespace
}  // namespace udm::serve
