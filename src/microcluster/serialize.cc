#include "microcluster/serialize.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/crc32.h"
#include "common/number_text.h"

namespace udm {

namespace {

constexpr char kMagic[] = "udm-microclusters";
constexpr char kCrcKey[] = "crc32";

/// Sanity caps on the declared shape. Real summaries are a few hundred
/// clusters over tens of dimensions; anything near these bounds is a
/// corrupt or adversarial header, and honoring it would mean multi-GB
/// allocations before the first parse error fires.
constexpr size_t kMaxDims = 1u << 20;       // ~1M dimensions
constexpr size_t kMaxClusters = 1u << 22;   // ~4M clusters

/// Reads a strictly non-negative decimal integer. `in >> uint64_t` accepts
/// a leading '-' and wraps modulo 2^64, which would turn "-5" into a huge
/// cluster count — so parse via a validated token instead.
bool ReadCount(std::istream& in, uint64_t* out) {
  std::string token;
  if (!(in >> token) || token.empty()) return false;
  for (char c : token) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (errno == ERANGE || end != token.c_str() + token.size()) return false;
  *out = value;
  return true;
}

/// Reads one double and rejects NaN/Inf: non-finite statistics would pass
/// FromTuple's sign checks (NaN compares false) and poison every density
/// computed from the summary.
bool ReadFinite(std::istream& in, double* out) {
  double v;
  if (!ReadDouble(in, &v) || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// Splits a v2 payload into (body, footer) and verifies the CRC. Returns
/// the byte length of the body on success.
Result<size_t> VerifyCrcFooter(const std::string& text) {
  const size_t pos = text.rfind(kCrcKey);
  if (pos == std::string::npos || (pos != 0 && text[pos - 1] != '\n')) {
    return Status::InvalidArgument(
        "DeserializeMicroClusters: v2 payload is missing its crc32 footer "
        "(truncated file?)");
  }
  std::istringstream footer(text.substr(pos));
  std::string key;
  std::string hex;
  std::string extra;
  if (!(footer >> key >> hex) || key != kCrcKey || (footer >> extra)) {
    return Status::InvalidArgument(
        "DeserializeMicroClusters: malformed crc32 footer");
  }
  uint32_t expected = 0;
  if (!ParseCrc32Hex(hex, &expected)) {
    return Status::InvalidArgument(
        "DeserializeMicroClusters: malformed crc32 footer value '" + hex +
        "'");
  }
  const uint32_t actual = Crc32(std::string_view(text.data(), pos));
  if (actual != expected) {
    return Status::InvalidArgument(
        "DeserializeMicroClusters: CRC mismatch (stored " + hex +
        ", computed " + Crc32Hex(actual) + ") — file is corrupt");
  }
  return pos;
}

}  // namespace

std::string SerializeMicroClusters(std::span<const MicroCluster> clusters,
                                   int version) {
  UDM_CHECK(version == 1 || version == 2)
      << "SerializeMicroClusters: unsupported version " << version;
  const size_t d = clusters.empty() ? 0 : clusters[0].NumDims();
  std::string text = std::string(kMagic) + " " + std::to_string(version) +
                     "\ndims " + std::to_string(d) + " clusters " +
                     std::to_string(clusters.size()) + "\n";
  // "%.17g" is at most 24 bytes; most values print near that width.
  text.reserve(text.size() + clusters.size() * (3 * d * 25 + 24) + 16);
  for (const MicroCluster& c : clusters) {
    UDM_CHECK(c.NumDims() == d) << "SerializeMicroClusters: mixed dims";
    text += std::to_string(c.Count());
    for (std::span<const double> column : {c.cf1(), c.cf2(), c.ef2()}) {
      for (double v : column) {
        text += ' ';
        AppendDouble(text, v);
      }
    }
    text += '\n';
  }
  if (version >= 2) {
    text += std::string(kCrcKey) + " " + Crc32Hex(Crc32(text)) + "\n";
  }
  return text;
}

Result<std::vector<MicroCluster>> DeserializeMicroClusters(
    const std::string& text) {
  // Check the header, and for v2 verify the CRC before trusting any field.
  std::string body = text;
  {
    std::istringstream probe(text);
    std::string magic;
    int version = 0;
    if (!(probe >> magic >> version) || magic != kMagic) {
      return Status::InvalidArgument(
          "DeserializeMicroClusters: bad header magic");
    }
    if (version < 1 || version > kSerializeVersionLatest) {
      return Status::InvalidArgument(
          "DeserializeMicroClusters: unsupported version " +
          std::to_string(version));
    }
    if (version >= 2) {
      UDM_ASSIGN_OR_RETURN(const size_t body_len, VerifyCrcFooter(text));
      body.resize(body_len);
    }
  }
  std::istringstream in(body);
  std::string magic;
  int version = 0;
  in >> magic >> version;
  std::string dims_key;
  std::string clusters_key;
  uint64_t d = 0;
  uint64_t m = 0;
  if (!(in >> dims_key) || dims_key != "dims" || !ReadCount(in, &d) ||
      !(in >> clusters_key) || clusters_key != "clusters" ||
      !ReadCount(in, &m)) {
    return Status::InvalidArgument(
        "DeserializeMicroClusters: bad shape line");
  }
  if (d == 0) {
    return Status::InvalidArgument("DeserializeMicroClusters: zero dims");
  }
  if (d > kMaxDims || m > kMaxClusters) {
    return Status::InvalidArgument(
        "DeserializeMicroClusters: implausible shape (dims " +
        std::to_string(d) + ", clusters " + std::to_string(m) + ")");
  }
  // Each cluster line carries 3d+1 tokens of at least two bytes ("0 ").
  // A header whose declared shape needs more bytes than the payload holds
  // is corrupt; checking now keeps the reserve below honest.
  const size_t remaining = body.size() - static_cast<size_t>(in.tellg());
  if (m > 0 && (3 * d + 1) > remaining / (2 * m) + 1) {
    return Status::InvalidArgument(
        "DeserializeMicroClusters: declared shape exceeds payload size");
  }
  std::vector<MicroCluster> clusters;
  clusters.reserve(m);
  for (size_t c = 0; c < m; ++c) {
    uint64_t count = 0;
    if (!ReadCount(in, &count)) {
      return Status::InvalidArgument(
          "DeserializeMicroClusters: bad or truncated count at cluster " +
          std::to_string(c));
    }
    std::vector<double> cf1(d);
    std::vector<double> cf2(d);
    std::vector<double> ef2(d);
    for (double& v : cf1) {
      if (!ReadFinite(in, &v)) {
        return Status::InvalidArgument(
            "DeserializeMicroClusters: bad CF1 entry at cluster " +
            std::to_string(c));
      }
    }
    for (double& v : cf2) {
      if (!ReadFinite(in, &v)) {
        return Status::InvalidArgument(
            "DeserializeMicroClusters: bad CF2 entry at cluster " +
            std::to_string(c));
      }
    }
    for (double& v : ef2) {
      if (!ReadFinite(in, &v)) {
        return Status::InvalidArgument(
            "DeserializeMicroClusters: bad EF2 entry at cluster " +
            std::to_string(c));
      }
    }
    Result<MicroCluster> cluster = MicroCluster::FromTuple(
        std::move(cf1), std::move(cf2), std::move(ef2), count);
    if (!cluster.ok()) {
      return cluster.status().WithContext("cluster " + std::to_string(c));
    }
    clusters.push_back(std::move(cluster).value());
  }
  std::string trailing;
  if (in >> trailing) {
    return Status::InvalidArgument(
        "DeserializeMicroClusters: trailing data after " + std::to_string(m) +
        " clusters (starts with '" + trailing + "')");
  }
  return clusters;
}

Status SaveMicroClusters(std::span<const MicroCluster> clusters,
                         const std::string& path, int version) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << SerializeMicroClusters(clusters, version);
  if (!out) return Status::IoError("write failed for '" + path + "'");
  return Status::OK();
}

Result<std::vector<MicroCluster>> LoadMicroClusters(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<std::vector<MicroCluster>> result =
      DeserializeMicroClusters(buffer.str());
  if (!result.ok()) return result.status().WithContext(path);
  return result;
}

}  // namespace udm
