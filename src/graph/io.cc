#include "src/graph/io.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/common/fault.h"
#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace seastar {
namespace {

// Vertex ids and edge types are int32; so are the type count (1 + the
// largest type) and a MatrixMarket dimension.
constexpr int64_t kMaxIndex = std::numeric_limits<int32_t>::max();

// Parses all of `token` as a decimal integer.
bool ParseInt64(const std::string& token, int64_t* value) {
  const char* end = token.data() + token.size();
  const auto [parsed_to, error] = std::from_chars(token.data(), end, *value);
  return error == std::errc() && parsed_to == end;
}

// Deterministic I/O-error injection shared by both loaders.
bool InjectedReadFault() {
  FaultInjector& faults = FaultInjector::Get();
  return faults.enabled() && faults.ShouldFail(FaultSite::kGraphRead);
}

}  // namespace

bool SaveEdgeListTsv(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    SEASTAR_LOG(Error) << "cannot open " << path << " for writing";
    return false;
  }
  out << "# seastar edge list: " << graph.num_vertices() << " vertices, " << graph.num_edges()
      << " edges\n";
  const bool typed = graph.is_heterogeneous();
  for (int64_t e = 0; e < graph.num_edges(); ++e) {
    out << graph.edge_src()[static_cast<size_t>(e)] << '\t'
        << graph.edge_dst()[static_cast<size_t>(e)];
    if (typed) {
      out << '\t' << graph.edge_type()[static_cast<size_t>(e)];
    }
    out << '\n';
  }
  return static_cast<bool>(out);
}

StatusOr<Graph> LoadEdgeListTsv(const std::string& path, int64_t num_vertices_hint,
                                const GraphOptions& options) {
  if (InjectedReadFault()) {
    return ErrorStatus(StatusCode::kUnavailable) << path << ": injected I/O fault";
  }
  std::ifstream in(path);
  if (!in) {
    return ErrorStatus(StatusCode::kNotFound) << path << ": cannot open for reading";
  }
  std::vector<int32_t> src;
  std::vector<int32_t> dst;
  std::vector<int32_t> types;
  int64_t max_id = -1;
  int column_count = 0;  // 0 = undecided.
  std::string line;
  int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    // src, dst and an optional type: every token a whole integer, no others.
    std::istringstream fields(line);
    std::string token;
    int64_t field[3] = {-1, -1, -1};
    int columns = 0;
    bool well_formed = true;
    while (well_formed && fields >> token) {
      well_formed = columns < 3 && ParseInt64(token, &field[columns]);
      ++columns;
    }
    const auto [s, d, t] = field;
    if (!well_formed || columns < 2 || s < 0 || d < 0) {
      return ErrorStatus(StatusCode::kInvalidArgument)
             << path << ":" << line_number << ": malformed edge line '" << line << "'";
    }
    if (s > kMaxIndex || d > kMaxIndex) {
      return ErrorStatus(StatusCode::kInvalidArgument)
             << path << ":" << line_number << ": vertex id out of int32 range in '" << line
             << "'";
    }
    const bool has_type = columns == 3;
    if (column_count == 0) {
      column_count = columns;
    } else if (column_count != columns) {
      return ErrorStatus(StatusCode::kInvalidArgument)
             << path << ":" << line_number << ": inconsistent column count (expected "
             << column_count << ", got " << columns << ")";
    }
    src.push_back(static_cast<int32_t>(s));
    dst.push_back(static_cast<int32_t>(d));
    if (has_type) {
      if (t < 0 || t >= kMaxIndex) {
        return ErrorStatus(StatusCode::kInvalidArgument)
               << path << ":" << line_number << ": edge type " << t << " out of range [0, "
               << kMaxIndex << ")";
      }
      types.push_back(static_cast<int32_t>(t));
    }
    max_id = std::max({max_id, s, d});
  }
  const int64_t num_vertices = std::max(num_vertices_hint, max_id + 1);
  int32_t num_types = 1;
  if (!types.empty()) {
    num_types = 1 + *std::max_element(types.begin(), types.end());
  }
  return Graph::FromCoo(num_vertices, std::move(src), std::move(dst), std::move(types),
                        num_types, options);
}

StatusOr<Graph> LoadMatrixMarket(const std::string& path, const GraphOptions& options) {
  if (InjectedReadFault()) {
    return ErrorStatus(StatusCode::kUnavailable) << path << ": injected I/O fault";
  }
  std::ifstream in(path);
  if (!in) {
    return ErrorStatus(StatusCode::kNotFound) << path << ": cannot open for reading";
  }
  std::string header;
  if (!std::getline(in, header) || !StartsWith(header, "%%MatrixMarket")) {
    return ErrorStatus(StatusCode::kInvalidArgument) << path << ":1: missing MatrixMarket banner";
  }
  std::istringstream banner(header);
  std::string tag, object, format, field, symmetry;
  banner >> tag >> object >> format >> field >> symmetry;
  if (object != "matrix" || format != "coordinate") {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << path << ":1: only coordinate matrices are supported";
  }
  const bool has_values = field == "real" || field == "integer";
  if (!has_values && field != "pattern") {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << path << ":1: unsupported field '" << field << "'";
  }
  const bool symmetric = symmetry == "symmetric";
  if (!symmetric && symmetry != "general") {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << path << ":1: unsupported symmetry '" << symmetry << "'";
  }

  std::string line;
  int64_t line_number = 1;
  // Skip comments.
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line[0] != '%') {
      break;
    }
  }
  std::istringstream size_line(line);
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t entries = 0;
  size_line >> rows >> cols >> entries;
  if (size_line.fail() || rows <= 0 || cols <= 0 || entries < 0) {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << path << ":" << line_number << ": malformed size line '" << line << "'";
  }
  if (rows > kMaxIndex || cols > kMaxIndex) {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << path << ":" << line_number << ": matrix " << rows << "x" << cols
           << " exceeds int32 vertex ids";
  }

  // `entries` is untrusted: the edge lists grow as entries are read.
  std::vector<int32_t> src;
  std::vector<int32_t> dst;
  for (int64_t i = 0; i < entries; ++i) {
    int64_t r = 0;
    int64_t c = 0;
    double value = 0.0;
    if (!(in >> r >> c)) {
      return ErrorStatus(StatusCode::kDataLoss)
             << path << ": truncated entry list: entry " << i << " of " << entries << " missing";
    }
    if (has_values && !(in >> value)) {
      return ErrorStatus(StatusCode::kDataLoss)
             << path << ": entry " << i << " of " << entries << " missing its value";
    }
    if (r < 1 || r > rows || c < 1 || c > cols) {
      return ErrorStatus(StatusCode::kInvalidArgument)
             << path << ": entry " << i << " (" << r << ", " << c << ") out of bounds for "
             << rows << "x" << cols;
    }
    src.push_back(static_cast<int32_t>(r - 1));
    dst.push_back(static_cast<int32_t>(c - 1));
    if (symmetric && r != c) {
      src.push_back(static_cast<int32_t>(c - 1));
      dst.push_back(static_cast<int32_t>(r - 1));
    }
  }
  return Graph::FromCoo(std::max(rows, cols), std::move(src), std::move(dst), {}, 1, options);
}

}  // namespace seastar
