// Byte identity of every text format that carries doubles, and the
// accept/reject table of every reader that parses them. The golden digests
// and the acceptance table were recorded from the ostream / snprintf /
// strtod formatters and parsers that the number codec replaced; the codec
// must reproduce each of them bit for bit.

#include "common/number_text.h"

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "dataset/csv.h"
#include "golden_digest.h"
#include "microcluster/serialize.h"
#include "obs/json.h"
#include "robustness/checkpoint.h"
#include "serve/protocol.h"
#include "stream/stream_summarizer.h"

namespace udm {
namespace {

/// Literal doubles at the edges of `%.17g`: a signed zero, the smallest and
/// the largest subnormal, a non-representable decimal, integers around
/// where 17 significant digits stop being exact, and the largest finite
/// value. Literals, not generated data, so builds that contract FMA agree.
const std::vector<double> kEdges = {
    -0.0,  5e-324, 2.2250738585072009e-308, 0.1, 1e16, 1e17,
    123456789012345678.0, DBL_MAX};

std::string DigestOf(const std::string& text) {
  golden::Digest digest;
  digest.U64(text.size());
  digest.Bytes(text.data(), text.size());
  return golden::Hex(digest.value());
}

/// Two clusters over d=8. The edge values ride in CF1/EF2 (CF2 holds them
/// where the variance check allows it); the second cluster carries
/// ordinary fractions.
std::vector<MicroCluster> FixtureClusters() {
  std::vector<MicroCluster> clusters;
  clusters.push_back(
      MicroCluster::FromTuple(
          {-0.0, 5e-324, 2.2250738585072009e-308, 0.1, 1e16, 1e17,
           123456789012345678.0, -1.5},
          {-0.0, 5e-324, 2.2250738585072009e-308, 0.1, DBL_MAX, DBL_MAX,
           DBL_MAX, DBL_MAX},
          kEdges, 1)
          .value());
  clusters.push_back(
      MicroCluster::FromTuple(
          {0.33333333333333331, 0.66666666666666663, -7.25, 1e-5,
           3.1415926535897931, 100.0, 2.5, 1e150},
          {1.0, 1.0, 60.0, 1.0, 10.0, 1e4, 10.0, 1e300},
          {0.25, 0.5, 0.125, 1e-300, 2.0, 3.0, 4.0, 5.0}, 3)
          .value());
  return clusters;
}

StreamSummarizer FixtureSummarizer() {
  StreamSummarizer::State state;
  state.num_dims = 8;
  state.options.num_clusters = 4;
  state.options.policy = FaultPolicy::kRepair;
  state.clusters = FixtureClusters();
  state.time_stats = {{1, 7}, {3, 9}};
  state.last_timestamp = 9;
  state.stats.records_ok = 4;
  state.repair_sums = kEdges;
  state.repair_counts = {1, 2, 3, 4, 5, 6, 7, 8};
  return StreamSummarizer::FromState(std::move(state)).value();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// What a reader made of one token: whether it accepted it, and the bits
/// it read when it did.
struct Parsed {
  bool ok = false;
  uint64_t bits = 0;
};

std::string Describe(const Parsed& p) {
  return p.ok ? golden::Hex(p.bits) : std::string("reject");
}

TEST(NumberTextGoldenTest, SummaryV1) {
  EXPECT_EQ(DigestOf(SerializeMicroClusters(FixtureClusters(), 1)),
            "0xf7ae55e8b8eeaed4");
}

TEST(NumberTextGoldenTest, SummaryV2) {
  EXPECT_EQ(DigestOf(SerializeMicroClusters(FixtureClusters(), 2)),
            "0x87b17dc97c6843ef");
}

TEST(NumberTextGoldenTest, Checkpoint) {
  EXPECT_EQ(DigestOf(SerializeCheckpoint(FixtureSummarizer(), 42)),
            "0xe18741bf334bf8ef");
}

TEST(NumberTextGoldenTest, Csv) {
  Dataset data = Dataset::Create(8).value();
  ASSERT_TRUE(data.AppendRow(kEdges, 0).ok());
  ASSERT_TRUE(data.AppendRow(std::vector<double>{0.33333333333333331, -2.5,
                                                 1e-300, 7.0, 0.0, 1e21,
                                                 -123.456, 9007199254740993.0},
                             1)
                  .ok());
  const std::string path = ::testing::TempDir() + "/udm_number_text.csv";
  ASSERT_TRUE(WriteCsv(data, path).ok());
  EXPECT_EQ(DigestOf(ReadFile(path)), "0xf322efd11fff7edc");
  std::remove(path.c_str());
}

TEST(NumberTextGoldenTest, ServeRequest) {
  serve::ServeRequest request;
  request.op = serve::ServeOp::kEval;
  request.id_json = "17";
  request.model = "m";
  request.points = kEdges;
  request.num_points = 2;
  request.dims = 4;
  request.subspace = {0, 3};
  request.deadline_ms = 0.1;
  request.window_seconds = 2.2250738585072009e-308;
  EXPECT_EQ(DigestOf(serve::SerializeRequest(request)),
            "0x57508118d9a68ffd");
}

TEST(NumberTextGoldenTest, ServeResponse) {
  serve::ServeResponse response;
  response.id_json = "0.1";
  response.status = serve::ServeStatus::kOverloaded;
  response.retry_after_ms = 1e17;
  response.densities = kEdges;
  response.requested = 8;
  response.evaluated = 8;
  EXPECT_EQ(DigestOf(serve::SerializeResponse(response)),
            "0x81f8bc98d2a7bb6c");
}

TEST(AppendDoubleTest, MatchesPrintfOnRandomBitPatterns) {
  std::mt19937_64 rng(2024);
  std::vector<double> values = kEdges;
  values.insert(values.end(),
                {std::numeric_limits<double>::infinity(),
                 -std::numeric_limits<double>::infinity(),
                 std::numeric_limits<double>::quiet_NaN(),
                 -std::numeric_limits<double>::quiet_NaN(), 0.0, -DBL_MAX,
                 DBL_MIN, -5e-324, 9007199254740993.0, 1e21, 1e-5});
  for (int i = 0; i < 100000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
  }
  for (double v : values) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "%.17g", v);
    std::string actual = "x";  // appends after existing text
    AppendDouble(actual, v);
    ASSERT_EQ(actual, std::string("x") + expected)
        << "bits " << golden::Hex(std::bit_cast<uint64_t>(v));
  }
}

/// strtod over the whole token, the reference ParseDouble must equal.
Parsed Strtod(const std::string& token) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || end != token.c_str() + token.size()) return {};
  return {true, std::bit_cast<uint64_t>(v)};
}

Parsed FromParseDouble(const std::string& token) {
  const std::optional<double> v = ParseDouble(token);
  if (!v) return {};
  return {true, std::bit_cast<uint64_t>(*v)};
}

TEST(ParseDoubleTest, RoundTripsAppendDouble) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double v = std::bit_cast<double>(rng());
    if (!std::isfinite(v)) continue;
    std::string text;
    AppendDouble(text, v);
    const std::optional<double> parsed = ParseDouble(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    ASSERT_EQ(std::bit_cast<uint64_t>(*parsed), std::bit_cast<uint64_t>(v))
        << text;
  }
}

TEST(ParseDoubleTest, MatchesStrtodOnRandomTokens) {
  const std::vector<std::string> fixed = {
      "", " 1", "1 ", "+1", "-0", ".5", "1.", "1e", "1.5e-", "1e400",
      "-1e400", "1e-400", "4.9e-324", "2.4703282292062327e-324", "0x1p3",
      "0X1P-2", "inf", "-Infinity", "nan", "NAN(123)", "--1", "+-1", "1e+",
      "e5", ".", "-", "1.7976931348623157e308", "1.7976931348623159e308"};
  for (const std::string& token : fixed) {
    EXPECT_EQ(Describe(FromParseDouble(token)), Describe(Strtod(token)))
        << "'" << token << "'";
  }
  std::mt19937_64 rng(11);
  const std::string alphabet = "0123456789+-.eE x";
  for (int i = 0; i < 100000; ++i) {
    std::string token(rng() % 9, ' ');
    for (char& c : token) c = alphabet[rng() % alphabet.size()];
    ASSERT_EQ(Describe(FromParseDouble(token)), Describe(Strtod(token)))
        << "'" << token << "'";
  }
}

/// Reads doubles until the first failure, recording each result and where
/// the stream stood after it.
template <typename Reader>
std::string ReadAll(const std::string& text, Reader read) {
  std::istringstream in(text);
  std::string trace;
  for (int i = 0; i < 16; ++i) {
    double v = 0.0;
    const bool ok = read(in, &v);
    trace += ok ? golden::Hex(std::bit_cast<uint64_t>(v)) : "fail";
    if (!ok) break;
    trace += "@" + std::to_string(static_cast<long long>(in.tellg())) + " ";
  }
  std::string rest;
  in.clear();
  std::getline(in, rest, '\0');
  return trace + " rest='" + rest + "'";
}

TEST(ReadDoubleTest, MatchesStreamExtraction) {
  const auto extract = [](std::istream& in, double* v) {
    return static_cast<bool>(in >> *v);
  };
  const std::vector<std::string> fixed = {
      "0-0 1", "0.5.5", "1e5e5", "+-1", "1e+1+1", "  \n-.5e-3x", "000.250",
      "1e400 2", "1e-400 2", "4.9e-324", "0x1p3", "inf", "nan", "1e", "."};
  for (const std::string& text : fixed) {
    EXPECT_EQ(ReadAll(text, ReadDouble), ReadAll(text, extract))
        << "'" << text << "'";
  }
  std::mt19937_64 rng(5);
  const std::string alphabet = "0123456789+-.eE xi\n";
  for (int i = 0; i < 20000; ++i) {
    std::string text(rng() % 14, ' ');
    for (char& c : text) c = alphabet[rng() % alphabet.size()];
    ASSERT_EQ(ReadAll(text, ReadDouble), ReadAll(text, extract))
        << "'" << text << "'";
  }
}

Parsed FromJson(const std::string& token) {
  const Result<obs::JsonValue> value = obs::JsonValue::Parse("[" + token + "]");
  if (!value.ok()) return {};
  return {true, std::bit_cast<uint64_t>(value->items()[0].number())};
}

/// The token as a v1 summary's only CF1 entry (count 1, a CF2 large enough
/// for any finite token up to 1e150).
Parsed FromSummary(const std::string& token) {
  const Result<std::vector<MicroCluster>> clusters = DeserializeMicroClusters(
      "udm-microclusters 1\ndims 1 clusters 1\n1 " + token + " 1e300 0\n");
  if (!clusters.ok()) return {};
  return {true, std::bit_cast<uint64_t>((*clusters)[0].cf1()[0])};
}

/// The token as a checkpoint's only repair-sums entry, with a fresh CRC.
Parsed FromCheckpoint(const std::string& token) {
  StreamSummarizer::State state;
  state.num_dims = 1;
  state.clusters.push_back(
      MicroCluster::FromTuple({1.0}, {1.0}, {0.0}, 1).value());
  state.time_stats = {{1, 1}};
  state.stats.records_ok = 1;
  state.repair_sums = {0.5};
  state.repair_counts = {1};
  const std::string text =
      SerializeCheckpoint(StreamSummarizer::FromState(state).value(), 0);
  std::string body = text.substr(0, text.rfind("crc32 "));
  const std::string needle = "repair-sums 0.5\n";
  const size_t at = body.find(needle);
  EXPECT_NE(at, std::string::npos);
  body.replace(at, needle.size(), "repair-sums " + token + "\n");
  const Result<DecodedCheckpoint> decoded =
      DeserializeCheckpoint(body + "crc32 " + Crc32Hex(Crc32(body)) + "\n");
  if (!decoded.ok()) return {};
  return {true, std::bit_cast<uint64_t>(decoded->state.repair_sums[0])};
}

struct AcceptanceRow {
  const char* token;
  const char* json;
  const char* summary;
  const char* checkpoint;
};

// `from_chars` alone rejects "+1" and returns no value on "1e400" and
// "1e-400", where strtod gives inf and 0; the summary and checkpoint
// readers reject the overflow as non-finite.
constexpr AcceptanceRow kAcceptance[] = {
    {"+1", "0x3ff0000000000000", "0x3ff0000000000000", "0x3ff0000000000000"},
    {"-0", "0x8000000000000000", "0x8000000000000000", "0x8000000000000000"},
    {"0.5", "0x3fe0000000000000", "0x3fe0000000000000", "0x3fe0000000000000"},
    {".5", "0x3fe0000000000000", "0x3fe0000000000000", "0x3fe0000000000000"},
    {"1.", "0x3ff0000000000000", "0x3ff0000000000000", "0x3ff0000000000000"},
    {"1e", "reject", "reject", "reject"},
    {"1.5e-", "reject", "reject", "reject"},
    {"1e400", "0x7ff0000000000000", "reject", "reject"},
    {"1e-400", "0x0000000000000000", "0x0000000000000000",
     "0x0000000000000000"},
    {"4.9e-324", "0x0000000000000001", "0x0000000000000001",
     "0x0000000000000001"},
    {"0x1p3", "reject", "reject", "reject"},
    {"inf", "reject", "reject", "reject"},
    {"nan", "reject", "reject", "reject"},
    {"--1", "reject", "reject", "reject"},
    {"1-2", "reject", "reject", "reject"},
    {"1.5.5", "reject", "reject", "reject"},
    {"00.25", "0x3fd0000000000000", "0x3fd0000000000000",
     "0x3fd0000000000000"},
    {"1E+2", "0x4059000000000000", "0x4059000000000000",
     "0x4059000000000000"},
};

TEST(NumberTextAcceptanceTest, ReadersMatchRecordedTable) {
  for (const AcceptanceRow& row : kAcceptance) {
    SCOPED_TRACE(row.token);
    EXPECT_EQ(Describe(FromJson(row.token)), row.json);
    EXPECT_EQ(Describe(FromSummary(row.token)), row.summary);
    EXPECT_EQ(Describe(FromCheckpoint(row.token)), row.checkpoint);
  }
}

// The summary reader scans numbers the way `istream >> double` does: a
// number ends where the grammar ends, not at whitespace, so "0-0" reads as
// the two numbers 0 and -0 and "0.5.5" as 0.5 and .5.
TEST(NumberTextAcceptanceTest, SummaryNumbersEndWhereTheGrammarEnds) {
  const Result<std::vector<MicroCluster>> split_sign =
      DeserializeMicroClusters(
          "udm-microclusters 1\ndims 1 clusters 1\n1 0-0 0\n");
  ASSERT_TRUE(split_sign.ok()) << split_sign.status().ToString();
  EXPECT_EQ(std::bit_cast<uint64_t>((*split_sign)[0].cf1()[0]), 0u);
  EXPECT_EQ(std::bit_cast<uint64_t>((*split_sign)[0].cf2()[0]),
            0x8000000000000000u);
  const Result<std::vector<MicroCluster>> split_point =
      DeserializeMicroClusters(
          "udm-microclusters 1\ndims 1 clusters 1\n1 0.5.5 0\n");
  ASSERT_TRUE(split_point.ok()) << split_point.status().ToString();
  EXPECT_EQ((*split_point)[0].cf1()[0], 0.5);
  EXPECT_EQ((*split_point)[0].cf2()[0], 0.5);
}

}  // namespace
}  // namespace udm
