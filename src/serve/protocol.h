#ifndef UDM_SERVE_PROTOCOL_H_
#define UDM_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"

namespace udm::serve {

/// Wire format: JSON-lines over a local stream socket. One request object
/// per line in, one response object per line out, in request order per
/// connection. The framing is a single '\n' (a frame never contains a raw
/// newline — JSON string escapes cover the payload), so a client can
/// resynchronize after any malformed frame at the next line boundary.
///
/// The parser is the robustness boundary of the daemon: every byte
/// sequence up to the frame size limit must map to either a request or a
/// structured error — never a crash, hang, or silent drop
/// (serve_protocol_test fuzzes exactly this contract).

/// Operations a client can request. The admin verbs (stats, healthz,
/// readyz, tracez, metrics) are answered inline on the reader thread —
/// never queued behind eval work — so introspection stays responsive
/// while the worker pool is saturated.
enum class ServeOp {
  kPing = 0,   ///< liveness probe, echoes ok
  kEval,       ///< batch density evaluation against a named model
  kClassify,   ///< batch classification against a named classifier
  kStats,      ///< server counters + windowed metrics snapshot
  kHealthz,    ///< liveness + dependency health rollup (shards, queue)
  kReadyz,     ///< readiness: loaded registry, not draining
  kTracez,     ///< slowest recent requests with their spans
  kMetrics,    ///< Prometheus-style text exposition (in `text`)
};

const char* ServeOpToString(ServeOp op);

/// Response status vocabulary. Everything except kOk/kPartial is an
/// explicit refusal with a machine-readable reason; `overloaded` carries a
/// retry-after hint so clients back off instead of hammering.
enum class ServeStatus {
  kOk = 0,
  /// Deadline/budget expired mid-batch: the response carries the completed
  /// prefix (see `evaluated` vs `requested`).
  kPartial,
  kInvalidArgument,
  kNotFound,
  /// Shed by admission control (queue full). Carries retry_after_ms.
  kOverloaded,
  /// Shed because the server is draining (SIGTERM received).
  kDraining,
  /// Deadline expired before any work completed.
  kDeadlineExceeded,
  /// Evaluation budget exhausted before any work completed.
  kResourceExhausted,
  /// Aborted by drain-deadline cancellation.
  kCancelled,
  kInternal,
};

const char* ServeStatusToString(ServeStatus status);

/// Hard limits the frame parser enforces before any allocation-heavy work.
struct ProtocolLimits {
  /// Longest accepted frame. Longer frames (or a partial frame that grows
  /// past this without a newline) are a protocol error.
  size_t max_frame_bytes = 1 << 20;
  /// Most query points in one eval/classify request.
  size_t max_points = 4096;
  /// Most coordinates per point.
  size_t max_dims = 512;
};

/// One parsed client request.
struct ServeRequest {
  ServeOp op = ServeOp::kPing;
  /// Client-chosen correlation id, echoed verbatim in the response. The
  /// raw JSON text is kept so string and numeric ids round-trip exactly
  /// (empty = absent).
  std::string id_json;
  /// Target model name (eval/classify).
  std::string model;
  /// Query points, row-major; num_points * dims coordinates.
  std::vector<double> points;
  size_t num_points = 0;
  size_t dims = 0;
  /// Optional subspace projection (indices into the model's dimensions).
  std::vector<size_t> subspace;
  /// Client deadline for the whole request, measured from frame receipt;
  /// 0 = use the server default.
  double deadline_ms = 0.0;
  /// Optional kernel-evaluation budget; 0 = unlimited.
  uint64_t eval_budget = 0;
  /// Return log-densities (eval only).
  bool log_space = false;
  /// Client-supplied trace id for cross-system stitching; the server
  /// mints one when absent. Length- and charset-validated by the parser.
  std::string trace_id;
  /// Trailing window for stats/metrics (0 = server default).
  double window_seconds = 0.0;
};

/// One selected rule of a classify answer: a subspace, the class it votes
/// for, and its log local accuracy (Eq. 11).
struct ServeRule {
  std::vector<size_t> dims;
  int label = 0;
  double log_accuracy = 0.0;

  bool operator==(const ServeRule& other) const = default;
};

/// One server response.
struct ServeResponse {
  std::string id_json;  ///< echoed ServeRequest::id_json
  ServeStatus status = ServeStatus::kOk;
  /// True when admission degraded this request (tightened deadline) under
  /// queue pressure.
  bool degraded = false;
  std::string message;       ///< human-readable detail for error statuses
  double retry_after_ms = 0.0;  ///< back-off hint on kOverloaded
  /// Eval payload: densities (or log-densities) for the completed prefix.
  std::vector<double> densities;
  /// Classify payload, one entry per answered point: the label, the tier
  /// that decided it ("rules", "bayes" or "prior"), and its selected rules
  /// (disjoint subspaces, so at most `dims` of them; empty unless the tier
  /// is "rules"). A frame without "rules" parses with `rules` empty.
  std::vector<int> labels;
  std::vector<std::string> tiers;
  std::vector<std::vector<ServeRule>> rules;
  size_t requested = 0;  ///< points in the request
  size_t evaluated = 0;  ///< points actually answered (prefix length)
  /// Why a kPartial response stopped ("deadline" or "budget").
  std::string stop_cause;
  /// Raw JSON object payload for stats/healthz/readyz/tracez responses
  /// (empty otherwise).
  std::string stats_json;
  /// The trace id this request was served under (minted or echoed).
  std::string trace_id;
  /// Plain-text payload for kMetrics (the Prometheus exposition).
  std::string text;
};

/// Parses one frame (no trailing newline) into a request. Any defect —
/// oversized frame, non-JSON bytes, wrong types, non-finite coordinates,
/// ragged point rows, limit violations — maps to a Status; this function
/// never crashes or aborts on arbitrary bytes.
Result<ServeRequest> ParseRequestFrame(std::string_view frame,
                                       const ProtocolLimits& limits);

/// Serializes a request to its wire form (one line, no trailing newline).
std::string SerializeRequest(const ServeRequest& request);

/// Serializes a response to its wire form (one line, no trailing newline).
std::string SerializeResponse(const ServeResponse& response);

/// Parses a response frame (client side). Same never-crash contract as
/// ParseRequestFrame.
Result<ServeResponse> ParseResponseFrame(std::string_view frame,
                                         const ProtocolLimits& limits);

/// Convenience: an error response carrying `status` and `message` for the
/// request identified by `id_json` (may be empty).
ServeResponse MakeErrorResponse(std::string id_json, ServeStatus status,
                                std::string message);

/// Maps an evaluation Status code to the wire status vocabulary.
ServeStatus ServeStatusFromCode(StatusCode code);

}  // namespace udm::serve

#endif  // UDM_SERVE_PROTOCOL_H_
