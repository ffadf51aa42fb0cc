#include "serve/registry.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "dataset/csv.h"
#include "error/error_model.h"
#include "microcluster/serialize.h"
#include "obs/metrics.h"

namespace udm::serve {

namespace {

Status ManifestError(const std::string& path, size_t line_no,
                     const std::string& what) {
  return Status::InvalidArgument("manifest " + path + ":" +
                                 std::to_string(line_no) + ": " + what);
}

/// Uniform per-entry error model: '-' means zero error, otherwise a
/// non-negative std-dev applied to every entry.
Result<ErrorModel> MakeErrors(const std::string& psi_spec, size_t num_rows,
                              size_t num_dims) {
  if (psi_spec == "-") return ErrorModel::Zero(num_rows, num_dims);
  char* end = nullptr;
  const double psi = std::strtod(psi_spec.c_str(), &end);
  if (end == psi_spec.c_str() || *end != '\0' || !(psi >= 0.0)) {
    return Status::InvalidArgument("bad psi spec '" + psi_spec + "'");
  }
  std::vector<double> sigmas(num_dims, psi);
  return ErrorModel::PerDimension(num_rows, sigmas);
}

}  // namespace

const char* ModelKindToString(ModelKind kind) {
  switch (kind) {
    case ModelKind::kKde:
      return "kde";
    case ModelKind::kErrorKde:
      return "error_kde";
    case ModelKind::kMcDensity:
      return "mc";
    case ModelKind::kClassifier:
      return "classifier";
  }
  return "unknown";
}

Result<EvalResult> ModelEntry::Evaluate(const EvalRequest& request) const {
  switch (kind) {
    case ModelKind::kKde:
    case ModelKind::kErrorKde:
      return error_kde->Evaluate(request);
    case ModelKind::kMcDensity:
      return mc->Evaluate(request);
    case ModelKind::kClassifier:
      return Status::FailedPrecondition(
          "model '" + name + "' is a classifier; use the classify op");
  }
  return Status::Internal("corrupt model entry");
}

Result<DensityBasedClassifier::Explanation> ModelEntry::Classify(
    std::span<const double> x, ExecContext& ctx) const {
  if (kind != ModelKind::kClassifier) {
    return Status::FailedPrecondition(
        "model '" + name + "' is a density estimator; use the eval op");
  }
  return classifier->Explain(x, ctx);
}

Status ModelRegistry::LoadManifest(const std::string& path) {
  ExecContext unbounded;
  return LoadManifest(path, unbounded);
}

Status ModelRegistry::LoadManifest(const std::string& path, ExecContext& ctx) {
  UDM_ASSIGN_OR_RETURN(std::shared_ptr<const Snapshot> next,
                       BuildSnapshot(path, &ctx));
  size_t num_models = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_ = std::move(next);
    num_models = snapshot_->size();
  }
  static obs::Counter& reloads =
      obs::MetricsRegistry::Global().GetCounter("serve.registry.reloads");
  reloads.Increment();
  static obs::Gauge& models =
      obs::MetricsRegistry::Global().GetGauge("serve.registry.models");
  models.Set(static_cast<double>(num_models));
  return Status::OK();
}

std::shared_ptr<const ModelEntry> ModelRegistry::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (snapshot_ == nullptr) return nullptr;
  const auto it = snapshot_->find(name);
  return it == snapshot_->end() ? nullptr : it->second;
}

std::vector<std::string> ModelRegistry::ModelNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  if (snapshot_ != nullptr) {
    names.reserve(snapshot_->size());
    for (const auto& [name, entry] : *snapshot_) names.push_back(name);
  }
  return names;
}

size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_ == nullptr ? 0 : snapshot_->size();
}

Result<std::shared_ptr<const ModelRegistry::Snapshot>>
ModelRegistry::BuildSnapshot(const std::string& path, ExecContext* ctx) const {
  // The fault seam sits in front of every file read: an armed transient
  // fault fails the read with kIoError (the one code RetryWithPolicy
  // treats as retryable), exactly like CheckpointOptions::io_faults.
  const auto read_file = [this](const std::string& file_path,
                                std::string* out) -> Status {
    if (options_.io_faults != nullptr && options_.io_faults->ConsumeIoFault()) {
      static obs::Counter& injected = obs::MetricsRegistry::Global().GetCounter(
          "serve.registry.injected_io_faults");
      injected.Increment();
      return Status::IoError("injected transient fault reading " + file_path);
    }
    std::ifstream in(file_path, std::ios::binary);
    if (!in) return Status::IoError("cannot open " + file_path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) return Status::IoError("read failed for " + file_path);
    *out = buffer.str();
    return Status::OK();
  };
  const auto read_with_retry = [&](const std::string& file_path,
                                   std::string* out) -> Status {
    const std::function<Status()> op = [&]() { return read_file(file_path, out); };
    return ctx != nullptr ? RetryWithPolicy(options_.retry, op, *ctx)
                          : RetryWithPolicy(options_.retry, op);
  };

  std::string manifest_text;
  UDM_RETURN_IF_ERROR(read_with_retry(path, &manifest_text));

  auto snapshot = std::make_shared<Snapshot>();
  std::istringstream lines(manifest_text);
  std::string line;
  size_t line_no = 0;
  bool saw_header = false;
  while (std::getline(lines, line)) {
    ++line_no;
    // Strip comments and surrounding whitespace.
    if (const size_t hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(token);
    if (tokens.empty()) continue;

    if (!saw_header) {
      if (tokens.size() != 2 || tokens[0] != "udm-models" ||
          tokens[1] != "1") {
        return ManifestError(path, line_no,
                             "expected header 'udm-models 1'");
      }
      saw_header = true;
      continue;
    }

    const std::string& kind = tokens[0];
    if (tokens.size() < 3) {
      return ManifestError(path, line_no, "too few fields for '" + kind + "'");
    }
    const std::string& name = tokens[1];
    const std::string& file = tokens[2];
    if (snapshot->count(name) != 0) {
      return ManifestError(path, line_no, "duplicate model name '" + name + "'");
    }

    auto entry = std::make_shared<ModelEntry>();
    entry->name = name;

    if (kind == "mc") {
      std::string text;
      UDM_RETURN_IF_ERROR(read_with_retry(file, &text));
      UDM_ASSIGN_OR_RETURN(std::vector<MicroCluster> clusters,
                           DeserializeMicroClusters(text));
      UDM_ASSIGN_OR_RETURN(McDensityModel model,
                           McDensityModel::Build(clusters));
      entry->kind = ModelKind::kMcDensity;
      entry->num_dims = model.num_dims();
      entry->index_cells = model.index_cells();
      entry->mc.emplace(std::move(model));
    } else if (kind == "kde" || kind == "error_kde" || kind == "classifier") {
      std::string csv;
      UDM_RETURN_IF_ERROR(read_with_retry(file, &csv));
      UDM_ASSIGN_OR_RETURN(Dataset data, ReadCsvString(csv));
      // The plain KDE is the ψ ≡ 0 error KDE (DESIGN.md S10).
      const std::string psi_spec =
          kind == "kde" ? "-" : (tokens.size() >= 4 ? tokens[3] : "");
      if (psi_spec.empty()) {
        return ManifestError(path, line_no,
                             "'" + kind + "' needs a psi spec ('-' = none)");
      }
      Result<ErrorModel> errors =
          MakeErrors(psi_spec, data.NumRows(), data.NumDims());
      if (!errors.ok()) {
        return ManifestError(path, line_no, errors.status().message());
      }
      if (kind != "classifier") {
        UDM_ASSIGN_OR_RETURN(ErrorKernelDensity model,
                             ErrorKernelDensity::Fit(data, *errors));
        entry->kind = kind == "kde" ? ModelKind::kKde : ModelKind::kErrorKde;
        entry->num_dims = model.num_dims();
        entry->index_cells = model.index_cells();
        entry->error_kde.emplace(std::move(model));
      } else {
        DensityBasedClassifier::Options options;
        if (tokens.size() >= 5) {
          char* end = nullptr;
          const long clusters = std::strtol(tokens[4].c_str(), &end, 10);
          if (end == tokens[4].c_str() || *end != '\0' || clusters <= 0) {
            return ManifestError(path, line_no,
                                 "bad cluster count '" + tokens[4] + "'");
          }
          options.num_clusters = static_cast<size_t>(clusters);
        }
        UDM_ASSIGN_OR_RETURN(
            DensityBasedClassifier model,
            DensityBasedClassifier::Train(data, *errors, options));
        entry->kind = ModelKind::kClassifier;
        entry->num_dims = model.num_dims();
        entry->classifier.emplace(std::move(model));
      }
    } else {
      return ManifestError(path, line_no, "unknown model kind '" + kind + "'");
    }
    UDM_LOG(Info) << "registry: loaded " << ModelKindToString(entry->kind)
                  << " '" << name << "' (" << entry->num_dims << " dims, "
                  << (entry->index_cells > 0
                          ? std::to_string(entry->index_cells) +
                                " index cells)"
                          : std::string("no spatial index)"));
    snapshot->emplace(name, std::move(entry));
  }
  if (!saw_header) {
    return Status::InvalidArgument("manifest " + path +
                                   ": missing 'udm-models 1' header");
  }
  if (snapshot->empty()) {
    return Status::InvalidArgument("manifest " + path + ": no models");
  }
  return std::shared_ptr<const Snapshot>(std::move(snapshot));
}

}  // namespace udm::serve
