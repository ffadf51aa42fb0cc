#ifndef UDM_MICROCLUSTER_SERIALIZE_H_
#define UDM_MICROCLUSTER_SERIALIZE_H_

#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "microcluster/microcluster.h"

namespace udm {

/// Persistence for micro-cluster summaries.
///
/// A summary is the paper's whole point: once the one-pass compression is
/// done, the (3d+1)-per-cluster statistics *are* the dataset for all
/// downstream density work. Saving them means "train once on the stream,
/// classify anywhere later" without revisiting the raw data.
///
/// Format (version-tagged, line-oriented text; doubles are `%.17g` text
/// from common/number_text.h, which round-trips every finite value):
///
///   udm-microclusters <version>
///   dims <d> clusters <m>
///   <n(C)> <CF1x[0..d)> <CF2x[0..d)> <EF2x[0..d)>     (m lines)
///   crc32 <8-hex>                                     (version >= 2 only)
///
/// Version 2 appends a CRC-32 footer over every byte before the footer
/// line, so truncation and bit rot are detected at load time. Version 1
/// files (no footer) are still read for backward compatibility.

/// Newest version written by default.
inline constexpr int kSerializeVersionLatest = 2;

/// Serializes the summary to a string in the given format version (1 or 2).
std::string SerializeMicroClusters(std::span<const MicroCluster> clusters,
                                   int version = kSerializeVersionLatest);

/// Parses a summary previously produced by SerializeMicroClusters (any
/// supported version; v2 inputs must carry a valid CRC footer). Never
/// throws or aborts on malformed input — every defect maps to a Status.
Result<std::vector<MicroCluster>> DeserializeMicroClusters(
    const std::string& text);

/// Writes the summary to a file.
Status SaveMicroClusters(std::span<const MicroCluster> clusters,
                         const std::string& path,
                         int version = kSerializeVersionLatest);

/// Reads a summary from a file.
Result<std::vector<MicroCluster>> LoadMicroClusters(const std::string& path);

}  // namespace udm

#endif  // UDM_MICROCLUSTER_SERIALIZE_H_
