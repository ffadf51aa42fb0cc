#include "serve/protocol.h"

#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include "common/number_text.h"
#include "obs/json.h"

namespace udm::serve {

namespace {

/// Longest accepted client-supplied trace id (printable ASCII only).
constexpr size_t kMaxTraceIdBytes = 64;

using obs::JsonValue;
using obs::JsonWriter;

/// Serializes the raw id text back into a document. The parser stored the
/// id as its JSON source form (quoted string or number literal), so
/// re-emitting it verbatim preserves the client's type.
void WriteId(JsonWriter& writer, const std::string& id_json) {
  if (id_json.empty()) return;
  writer.Key("id");
  if (id_json.front() == '"') {
    // Stored as raw JSON string literal: re-parse to get the unescaped
    // value, then let the writer re-escape. Falls back to the raw bytes
    // sans quotes if the literal is somehow unparseable.
    const Result<JsonValue> parsed = JsonValue::Parse(id_json);
    if (parsed.ok() && parsed->is_string()) {
      writer.String(parsed->string());
    } else {
      writer.String(id_json.substr(1, id_json.size() - 2));
    }
  } else {
    const std::optional<double> value = ParseDouble(id_json);
    if (value && std::isfinite(*value)) {
      writer.Number(*value);
    } else {
      writer.String(id_json);
    }
  }
}

/// Extracts the request id in its round-trippable source form.
std::string IdJsonFrom(const JsonValue& root) {
  const JsonValue* id = root.Find("id");
  if (id == nullptr) return "";
  if (id->is_string()) {
    JsonWriter writer;
    writer.String(id->string());
    return writer.TakeString();
  }
  if (id->is_number()) {
    JsonWriter writer;
    writer.Number(id->number());
    return writer.TakeString();
  }
  // Non-scalar ids are legal-but-odd; echo a canonical string.
  return "\"?\"";
}

Status FrameError(const std::string& what) {
  return Status::InvalidArgument("protocol: " + what);
}

/// Re-emits a parsed JSON value through the writer (used to embed the
/// pre-built stats object into a response without string splicing).
void WriteJsonValue(JsonWriter& writer, const JsonValue& value) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      writer.Null();
      break;
    case JsonValue::Type::kBool:
      writer.Bool(value.boolean());
      break;
    case JsonValue::Type::kNumber:
      writer.Number(value.number());
      break;
    case JsonValue::Type::kString:
      writer.String(value.string());
      break;
    case JsonValue::Type::kArray:
      writer.BeginArray();
      for (const JsonValue& item : value.items()) {
        WriteJsonValue(writer, item);
      }
      writer.EndArray();
      break;
    case JsonValue::Type::kObject:
      writer.BeginObject();
      for (const auto& [key, member] : value.members()) {
        writer.Key(key);
        WriteJsonValue(writer, member);
      }
      writer.EndObject();
      break;
  }
}

/// Reads "points" (array of equal-length coordinate arrays) or "point"
/// (one flat coordinate array) into row-major storage.
Status ReadPoints(const JsonValue& root, const ProtocolLimits& limits,
                  ServeRequest* out) {
  const JsonValue* points = root.Find("points");
  const JsonValue* point = root.Find("point");
  if (points == nullptr && point == nullptr) {
    return FrameError("eval/classify needs 'points' or 'point'");
  }
  if (points != nullptr && point != nullptr) {
    return FrameError("'points' and 'point' are mutually exclusive");
  }

  const auto read_row = [&](const JsonValue& row) -> Status {
    if (!row.is_array()) return FrameError("each point must be an array");
    if (row.items().empty()) return FrameError("empty point");
    if (row.items().size() > limits.max_dims) {
      return FrameError("point has " + std::to_string(row.items().size()) +
                        " coordinates (limit " +
                        std::to_string(limits.max_dims) + ")");
    }
    if (out->dims == 0) {
      out->dims = row.items().size();
    } else if (row.items().size() != out->dims) {
      return FrameError("ragged points: row has " +
                        std::to_string(row.items().size()) +
                        " coordinates, expected " + std::to_string(out->dims));
    }
    for (const JsonValue& coord : row.items()) {
      if (!coord.is_number() || !std::isfinite(coord.number())) {
        return FrameError("coordinates must be finite numbers");
      }
      out->points.push_back(coord.number());
    }
    ++out->num_points;
    return Status::OK();
  };

  if (point != nullptr) {
    return read_row(*point);
  }
  if (!points->is_array()) return FrameError("'points' must be an array");
  if (points->items().empty()) return FrameError("'points' is empty");
  if (points->items().size() > limits.max_points) {
    return FrameError("request has " +
                      std::to_string(points->items().size()) +
                      " points (limit " + std::to_string(limits.max_points) +
                      ")");
  }
  out->points.reserve(points->items().size() *
                      (points->items().front().is_array()
                           ? points->items().front().items().size()
                           : 0));
  for (const JsonValue& row : points->items()) {
    UDM_RETURN_IF_ERROR(read_row(row));
  }
  return Status::OK();
}

/// Reads an array of at most max_dims dimension indices, each an integer
/// in [0, max_dims]; `what` names the field in errors.
Status ReadDims(const JsonValue& dims, const ProtocolLimits& limits,
                const std::string& what, std::vector<size_t>* out) {
  if (!dims.is_array()) return FrameError("'" + what + "' must be an array");
  if (dims.items().size() > limits.max_dims) {
    return FrameError(what + " too large");
  }
  for (const JsonValue& dim : dims.items()) {
    if (!dim.is_number()) return FrameError(what + " indices must be numbers");
    const double value = dim.number();
    if (!std::isfinite(value) || value < 0.0 ||
        value != std::floor(value) ||
        value > static_cast<double>(limits.max_dims)) {
      return FrameError(what + " index out of range");
    }
    out->push_back(static_cast<size_t>(value));
  }
  return Status::OK();
}

Status ReadSubspace(const JsonValue& root, const ProtocolLimits& limits,
                    ServeRequest* out) {
  const JsonValue* subspace = root.Find("subspace");
  if (subspace == nullptr) return Status::OK();
  return ReadDims(*subspace, limits, "subspace", &out->subspace);
}

/// Reads a class label: a non-negative integer that fits an int (a bare
/// cast of an out-of-range double is undefined).
Status ReadLabel(const JsonValue& label, int* out) {
  if (!label.is_number() || !(label.number() >= 0.0) ||
      label.number() > std::numeric_limits<int>::max() ||
      label.number() != std::floor(label.number())) {
    return FrameError("labels must be non-negative integers");
  }
  *out = static_cast<int>(label.number());
  return Status::OK();
}

/// Reads a classify response's "rules": one array per answered point, each
/// holding that point's rules as {"dims", "label", "log_accuracy"} objects.
Status ReadRules(const JsonValue& root, const ProtocolLimits& limits,
                 ServeResponse* out) {
  const JsonValue* rules = root.Find("rules");
  if (rules == nullptr) return Status::OK();
  if (!rules->is_array()) return FrameError("'rules' must be an array");
  if (rules->items().size() > limits.max_points) {
    return FrameError("response carries too many rule lists");
  }
  for (const JsonValue& point_rules : rules->items()) {
    if (!point_rules.is_array() ||
        point_rules.items().size() > limits.max_dims) {
      return FrameError("each point's rules must be an array of at most " +
                        std::to_string(limits.max_dims));
    }
    std::vector<ServeRule>& list = out->rules.emplace_back();
    for (const JsonValue& item : point_rules.items()) {
      const JsonValue* dims = item.Find("dims");
      const JsonValue* label = item.Find("label");
      const JsonValue* log_accuracy = item.Find("log_accuracy");
      if (dims == nullptr || label == nullptr || log_accuracy == nullptr) {
        return FrameError("a rule needs 'dims', 'label' and 'log_accuracy'");
      }
      ServeRule& rule = list.emplace_back();
      UDM_RETURN_IF_ERROR(ReadDims(*dims, limits, "dims", &rule.dims));
      UDM_RETURN_IF_ERROR(ReadLabel(*label, &rule.label));
      // Non-finite doubles are serialized as null; read them back as NaN,
      // as densities are.
      rule.log_accuracy =
          log_accuracy->is_number() ? log_accuracy->number() : std::nan("");
    }
  }
  return Status::OK();
}

}  // namespace

const char* ServeOpToString(ServeOp op) {
  switch (op) {
    case ServeOp::kPing:
      return "ping";
    case ServeOp::kEval:
      return "eval";
    case ServeOp::kClassify:
      return "classify";
    case ServeOp::kStats:
      return "stats";
    case ServeOp::kHealthz:
      return "healthz";
    case ServeOp::kReadyz:
      return "readyz";
    case ServeOp::kTracez:
      return "tracez";
    case ServeOp::kMetrics:
      return "metrics";
  }
  return "unknown";
}

const char* ServeStatusToString(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kPartial:
      return "partial";
    case ServeStatus::kInvalidArgument:
      return "invalid_argument";
    case ServeStatus::kNotFound:
      return "not_found";
    case ServeStatus::kOverloaded:
      return "overloaded";
    case ServeStatus::kDraining:
      return "draining";
    case ServeStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case ServeStatus::kResourceExhausted:
      return "resource_exhausted";
    case ServeStatus::kCancelled:
      return "cancelled";
    case ServeStatus::kInternal:
      return "internal";
  }
  return "unknown";
}

ServeStatus ServeStatusFromCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return ServeStatus::kOk;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kFailedPrecondition:
      return ServeStatus::kInvalidArgument;
    case StatusCode::kNotFound:
      return ServeStatus::kNotFound;
    case StatusCode::kDeadlineExceeded:
      return ServeStatus::kDeadlineExceeded;
    case StatusCode::kResourceExhausted:
      return ServeStatus::kResourceExhausted;
    case StatusCode::kCancelled:
      return ServeStatus::kCancelled;
    default:
      return ServeStatus::kInternal;
  }
}

Result<ServeRequest> ParseRequestFrame(std::string_view frame,
                                       const ProtocolLimits& limits) {
  if (frame.size() > limits.max_frame_bytes) {
    return FrameError("frame of " + std::to_string(frame.size()) +
                      " bytes exceeds the " +
                      std::to_string(limits.max_frame_bytes) + "-byte limit");
  }
  if (frame.empty()) return FrameError("empty frame");
  const Result<JsonValue> parsed = JsonValue::Parse(frame);
  if (!parsed.ok()) {
    return FrameError("bad JSON: " + parsed.status().message());
  }
  const JsonValue& root = *parsed;
  if (!root.is_object()) return FrameError("frame is not a JSON object");

  ServeRequest request;
  request.id_json = IdJsonFrom(root);

  const JsonValue* op = root.Find("op");
  if (op == nullptr || !op->is_string()) {
    return FrameError("missing string field 'op'");
  }
  if (op->string() == "ping") {
    request.op = ServeOp::kPing;
  } else if (op->string() == "eval") {
    request.op = ServeOp::kEval;
  } else if (op->string() == "classify") {
    request.op = ServeOp::kClassify;
  } else if (op->string() == "stats") {
    request.op = ServeOp::kStats;
  } else if (op->string() == "healthz") {
    request.op = ServeOp::kHealthz;
  } else if (op->string() == "readyz") {
    request.op = ServeOp::kReadyz;
  } else if (op->string() == "tracez") {
    request.op = ServeOp::kTracez;
  } else if (op->string() == "metrics") {
    request.op = ServeOp::kMetrics;
  } else {
    return FrameError("unknown op '" + op->string() + "'");
  }

  if (const JsonValue* trace_id = root.Find("trace_id");
      trace_id != nullptr) {
    if (!trace_id->is_string()) {
      return FrameError("'trace_id' must be a string");
    }
    const std::string& id = trace_id->string();
    if (id.empty() || id.size() > kMaxTraceIdBytes) {
      return FrameError("'trace_id' length must be in [1, " +
                        std::to_string(kMaxTraceIdBytes) + "]");
    }
    for (char c : id) {
      // Printable ASCII only: trace ids land in logs, trace exports, and
      // the text exposition — no control bytes, no quoting surprises.
      if (c < 0x21 || c > 0x7e || c == '"' || c == '\\') {
        return FrameError("'trace_id' must be printable ASCII");
      }
    }
    request.trace_id = id;
  }
  if (const JsonValue* window = root.Find("window_seconds");
      window != nullptr) {
    if (!window->is_number() || !std::isfinite(window->number()) ||
        window->number() < 0.0 || window->number() > 3600.0) {
      return FrameError("'window_seconds' must be a number in [0, 3600]");
    }
    request.window_seconds = window->number();
  }

  if (const JsonValue* deadline = root.Find("deadline_ms");
      deadline != nullptr) {
    if (!deadline->is_number() || !std::isfinite(deadline->number()) ||
        deadline->number() < 0.0) {
      return FrameError("'deadline_ms' must be a finite non-negative number");
    }
    request.deadline_ms = deadline->number();
  }
  if (const JsonValue* budget = root.Find("eval_budget"); budget != nullptr) {
    if (!budget->is_number() || !std::isfinite(budget->number()) ||
        budget->number() < 0.0) {
      return FrameError("'eval_budget' must be a finite non-negative number");
    }
    request.eval_budget = static_cast<uint64_t>(budget->number());
  }
  if (const JsonValue* log_space = root.Find("log_space");
      log_space != nullptr) {
    if (!log_space->is_bool()) return FrameError("'log_space' must be a bool");
    request.log_space = log_space->boolean();
  }

  if (request.op == ServeOp::kEval || request.op == ServeOp::kClassify) {
    const JsonValue* model = root.Find("model");
    if (model == nullptr || !model->is_string() || model->string().empty()) {
      return FrameError("eval/classify needs a non-empty string 'model'");
    }
    request.model = model->string();
    UDM_RETURN_IF_ERROR(ReadPoints(root, limits, &request));
    UDM_RETURN_IF_ERROR(ReadSubspace(root, limits, &request));
    for (size_t dim : request.subspace) {
      if (dim >= request.dims) {
        return FrameError("subspace index " + std::to_string(dim) +
                          " out of range for " +
                          std::to_string(request.dims) + "-dim points");
      }
    }
  }
  return request;
}

std::string SerializeRequest(const ServeRequest& request) {
  JsonWriter writer;
  writer.BeginObject();
  WriteId(writer, request.id_json);
  writer.Key("op").String(ServeOpToString(request.op));
  if (!request.model.empty()) writer.Key("model").String(request.model);
  if (request.num_points > 0) {
    writer.Key("points").BeginArray();
    for (size_t i = 0; i < request.num_points; ++i) {
      writer.BeginArray();
      for (size_t j = 0; j < request.dims; ++j) {
        writer.Number(request.points[i * request.dims + j]);
      }
      writer.EndArray();
    }
    writer.EndArray();
  }
  if (!request.subspace.empty()) {
    writer.Key("subspace").BeginArray();
    for (size_t dim : request.subspace) {
      writer.Number(static_cast<uint64_t>(dim));
    }
    writer.EndArray();
  }
  if (request.deadline_ms > 0.0) {
    writer.Key("deadline_ms").Number(request.deadline_ms);
  }
  if (request.eval_budget > 0) {
    writer.Key("eval_budget").Number(request.eval_budget);
  }
  if (request.log_space) writer.Key("log_space").Bool(true);
  if (!request.trace_id.empty()) {
    writer.Key("trace_id").String(request.trace_id);
  }
  if (request.window_seconds > 0.0) {
    writer.Key("window_seconds").Number(request.window_seconds);
  }
  writer.EndObject();
  return writer.TakeString();
}

std::string SerializeResponse(const ServeResponse& response) {
  JsonWriter writer;
  writer.BeginObject();
  WriteId(writer, response.id_json);
  writer.Key("status").String(ServeStatusToString(response.status));
  if (response.degraded) writer.Key("degraded").Bool(true);
  if (!response.message.empty()) {
    writer.Key("message").String(response.message);
  }
  if (response.retry_after_ms > 0.0) {
    writer.Key("retry_after_ms").Number(response.retry_after_ms);
  }
  if (response.requested > 0) {
    writer.Key("requested").Number(static_cast<uint64_t>(response.requested));
    writer.Key("evaluated").Number(static_cast<uint64_t>(response.evaluated));
  }
  if (!response.stop_cause.empty()) {
    writer.Key("stop_cause").String(response.stop_cause);
  }
  if (!response.densities.empty()) {
    writer.Key("densities").BeginArray();
    for (double d : response.densities) writer.Number(d);
    writer.EndArray();
  }
  if (!response.labels.empty()) {
    writer.Key("labels").BeginArray();
    for (int label : response.labels) {
      writer.Number(static_cast<int64_t>(label));
    }
    writer.EndArray();
    writer.Key("tiers").BeginArray();
    for (const std::string& tier : response.tiers) writer.String(tier);
    writer.EndArray();
  }
  if (!response.rules.empty()) {
    writer.Key("rules").BeginArray();
    for (const std::vector<ServeRule>& point_rules : response.rules) {
      writer.BeginArray();
      for (const ServeRule& rule : point_rules) {
        writer.BeginObject();
        writer.Key("dims").BeginArray();
        for (size_t dim : rule.dims) writer.Number(static_cast<uint64_t>(dim));
        writer.EndArray();
        writer.Key("label").Number(static_cast<int64_t>(rule.label));
        writer.Key("log_accuracy").Number(rule.log_accuracy);
        writer.EndObject();
      }
      writer.EndArray();
    }
    writer.EndArray();
  }
  if (!response.stats_json.empty()) {
    // stats_json is a pre-serialized object; route it through the parser
    // and writer so the response stays structurally valid even if a
    // caller hands us garbage.
    const Result<JsonValue> parsed = JsonValue::Parse(response.stats_json);
    if (parsed.ok() && parsed->is_object()) {
      writer.Key("stats");
      WriteJsonValue(writer, *parsed);
    }
  }
  if (!response.trace_id.empty()) {
    writer.Key("trace_id").String(response.trace_id);
  }
  if (!response.text.empty()) {
    // JSON string escaping turns embedded newlines into \n, so a
    // multi-line exposition still fits the one-line framing.
    writer.Key("text").String(response.text);
  }
  writer.EndObject();
  return writer.TakeString();
}

Result<ServeResponse> ParseResponseFrame(std::string_view frame,
                                         const ProtocolLimits& limits) {
  if (frame.size() > limits.max_frame_bytes) {
    return FrameError("response frame too large");
  }
  const Result<JsonValue> parsed = JsonValue::Parse(frame);
  if (!parsed.ok()) {
    return FrameError("bad response JSON: " + parsed.status().message());
  }
  const JsonValue& root = *parsed;
  if (!root.is_object()) return FrameError("response is not a JSON object");

  ServeResponse response;
  response.id_json = IdJsonFrom(root);
  const JsonValue* status = root.Find("status");
  if (status == nullptr || !status->is_string()) {
    return FrameError("response missing string 'status'");
  }
  bool known = false;
  for (int s = 0; s <= static_cast<int>(ServeStatus::kInternal); ++s) {
    if (status->string() == ServeStatusToString(static_cast<ServeStatus>(s))) {
      response.status = static_cast<ServeStatus>(s);
      known = true;
      break;
    }
  }
  if (!known) {
    return FrameError("unknown response status '" + status->string() + "'");
  }
  if (const JsonValue* degraded = root.Find("degraded");
      degraded != nullptr && degraded->is_bool()) {
    response.degraded = degraded->boolean();
  }
  if (const JsonValue* message = root.Find("message");
      message != nullptr && message->is_string()) {
    response.message = message->string();
  }
  if (const JsonValue* retry = root.Find("retry_after_ms");
      retry != nullptr && retry->is_number() &&
      std::isfinite(retry->number()) && retry->number() >= 0.0) {
    response.retry_after_ms = retry->number();
  }
  if (const JsonValue* requested = root.Find("requested");
      requested != nullptr && requested->is_number() &&
      requested->number() >= 0.0) {
    response.requested = static_cast<size_t>(requested->number());
  }
  if (const JsonValue* evaluated = root.Find("evaluated");
      evaluated != nullptr && evaluated->is_number() &&
      evaluated->number() >= 0.0) {
    response.evaluated = static_cast<size_t>(evaluated->number());
  }
  if (const JsonValue* stop = root.Find("stop_cause");
      stop != nullptr && stop->is_string()) {
    response.stop_cause = stop->string();
  }
  if (const JsonValue* densities = root.Find("densities");
      densities != nullptr && densities->is_array()) {
    if (densities->items().size() > limits.max_points) {
      return FrameError("response carries too many densities");
    }
    for (const JsonValue& d : densities->items()) {
      // Non-finite densities are serialized as null by JsonWriter; map
      // them back to NaN rather than rejecting the frame.
      response.densities.push_back(d.is_number()
                                       ? d.number()
                                       : std::nan(""));
    }
  }
  if (const JsonValue* labels = root.Find("labels");
      labels != nullptr && labels->is_array()) {
    if (labels->items().size() > limits.max_points) {
      return FrameError("response carries too many labels");
    }
    for (const JsonValue& label : labels->items()) {
      UDM_RETURN_IF_ERROR(ReadLabel(label, &response.labels.emplace_back()));
    }
  }
  if (const JsonValue* tiers = root.Find("tiers");
      tiers != nullptr && tiers->is_array()) {
    for (const JsonValue& tier : tiers->items()) {
      if (tier.is_string()) response.tiers.push_back(tier.string());
    }
  }
  UDM_RETURN_IF_ERROR(ReadRules(root, limits, &response));
  if (const JsonValue* stats = root.Find("stats");
      stats != nullptr && stats->is_object()) {
    JsonWriter stats_writer;
    WriteJsonValue(stats_writer, *stats);
    response.stats_json = stats_writer.TakeString();
  }
  if (const JsonValue* trace_id = root.Find("trace_id");
      trace_id != nullptr && trace_id->is_string()) {
    response.trace_id = trace_id->string();
  }
  if (const JsonValue* text = root.Find("text");
      text != nullptr && text->is_string()) {
    response.text = text->string();
  }
  return response;
}

ServeResponse MakeErrorResponse(std::string id_json, ServeStatus status,
                                std::string message) {
  ServeResponse response;
  response.id_json = std::move(id_json);
  response.status = status;
  response.message = std::move(message);
  return response;
}

}  // namespace udm::serve
