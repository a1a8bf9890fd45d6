// Color-class statistics: the random variable X_xi of the paper's equation
// (1), split into adjacent / non-adjacent edge-pair contributions as in §4.
//
//   X_xi = sum over color classes (tau1,tau2) of C(|E_{tau1,tau2}|, 2)
//
// Lemma 3 bounds E[X_xi] <= E*M for the 4-wise random coloring with
// c = sqrt(E/M) colors; §4's greedy coloring guarantees X_xi < e*E*M
// deterministically. Benches (EXP-L3) and tests measure both here.
#ifndef TRIENUM_CORE_COLORING_H_
#define TRIENUM_CORE_COLORING_H_

#include <cstdint>

#include "common/function_ref.h"
#include "em/array.h"
#include "graph/types.h"

namespace trienum::core {

/// Vertex coloring abstraction: color in [0, num_colors). A borrowed
/// callable; pass the coloring lambda straight to the call.
using ColorFn = FunctionRef<std::uint32_t(graph::VertexId)>;

struct ColoringStats {
  double x_total = 0;    ///< X_xi: same-class edge pairs
  double x_adj = 0;      ///< ... that share a vertex
  double x_nonadj = 0;   ///< ... that are vertex-disjoint
  std::uint64_t nonempty_classes = 0;
  std::uint64_t max_class_size = 0;
};

/// Computes X_xi and its adjacent/non-adjacent split for `edges` under
/// `color` with c colors. O(sort(E)) I/Os.
ColoringStats ComputeColoringStats(em::QuerySession& ctx, em::Array<graph::Edge> edges,
                                   ColorFn color, std::uint32_t c);

/// Lemma 3's bound E*M on E[X_xi] (what the random coloring must meet in
/// expectation) — for benches/tests.
double Lemma3Bound(std::size_t num_edges, std::size_t memory_words);

/// §4's deterministic bound e*E*M on X_xi for the greedy coloring.
double DerandomizedBound(std::size_t num_edges, std::size_t memory_words);

}  // namespace trienum::core

#endif  // TRIENUM_CORE_COLORING_H_
