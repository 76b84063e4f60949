// Graph input/output: bring-your-own-data support.
//
// Two interchange formats:
//  * TSV edge lists ("src<TAB>dst[<TAB>type]" with '#' comments) — the
//    lowest common denominator for graph datasets;
//  * MatrixMarket coordinate files (.mtx), the format most public sparse
//    graph collections (SuiteSparse, SNAP mirrors) ship in.
//
// Loaders return StatusOr<Graph> — never abort: file contents are external,
// untrusted data. Errors name the file and the line where parsing failed,
// so a recovery log pinpoints the corruption. StatusOr is optional-compatible (has_value / operator*), so
// call sites written against the earlier std::optional API still compile.
// All loaders honour FaultSite::kGraphRead for deterministic I/O-error
// injection in resilience tests.
#ifndef SRC_GRAPH_IO_H_
#define SRC_GRAPH_IO_H_

#include <string>

#include "src/common/status.h"
#include "src/graph/graph.h"

namespace seastar {

// ---- TSV edge lists ------------------------------------------------------------------------------

// Writes "src\tdst[\ttype]" lines. Returns false on I/O failure.
bool SaveEdgeListTsv(const Graph& graph, const std::string& path);

// Reads an edge list. Vertex ids and types must be non-negative int32s; the
// vertex count is max id + 1 unless `num_vertices_hint` is larger. Lines
// starting with '#' or empty lines are skipped. Type column is optional (all
// lines must agree on having it or not); a line with any other token is
// malformed.
StatusOr<Graph> LoadEdgeListTsv(const std::string& path, int64_t num_vertices_hint = 0,
                                const GraphOptions& options = {});

// ---- MatrixMarket --------------------------------------------------------------------------------

// Supports "%%MatrixMarket matrix coordinate (pattern|real|integer)
// (general|symmetric)". 1-based indices per the spec; symmetric matrices
// emit both edge directions. Values of real/integer matrices are ignored
// (the adjacency structure is what GNN training consumes).
StatusOr<Graph> LoadMatrixMarket(const std::string& path, const GraphOptions& options = {});

}  // namespace seastar

#endif  // SRC_GRAPH_IO_H_
