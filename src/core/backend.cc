#include "src/core/backend.h"

namespace seastar {

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kSeastar:
      return "Seastar";
    case Backend::kSeastarNoFusion:
      return "Seastar-nofuse";
    case Backend::kDglLike:
      return "DGL";
    case Backend::kPygLike:
      return "PyG";
  }
  return "?";
}

std::optional<Backend> BackendFromString(const std::string& name) {
  if (name == "seastar") {
    return Backend::kSeastar;
  }
  if (name == "seastar-nofuse" || name == "nofuse") {
    return Backend::kSeastarNoFusion;
  }
  if (name == "dgl") {
    return Backend::kDglLike;
  }
  if (name == "pyg") {
    return Backend::kPygLike;
  }
  return std::nullopt;
}

const char* BackendChoices() { return "seastar|seastar-nofuse|dgl|pyg"; }

}  // namespace seastar
