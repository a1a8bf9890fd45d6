#include "core/cache_aware.h"

#include <cmath>
#include <vector>

#include "core/coloring.h"
#include "core/derandomize.h"
#include "core/pivot_enum.h"
#include "core/vertex_enum.h"
#include "extsort/ext_merge_sort.h"
#include "extsort/scan_ops.h"
#include "hashing/kwise.h"
#include "obs/trace.h"

namespace trienum::core {

namespace {

/// Step 2's output: the edges grouped by color class (tau1, tau2) in
/// `edges`, class k = tau1 * c + tau2 at [offsets[k], offsets[k + 1]).
struct ColorBuckets {
  em::Array<std::uint64_t> offsets;
  em::Array<graph::Edge> edges;
};

/// Step 2: colors every edge of `low` with `color` (one instantiation per
/// coloring, so the per-edge color calls inline) and buckets the edges by
/// color class.
template <typename Color>
ColorBuckets ColorAndBucket(em::QuerySession& ctx, em::Array<graph::Edge> low,
                            std::uint32_t c, const Color& color) {
  using graph::ColoredEdge;
  using graph::Edge;
  // Colors attached once (stored with the edge, then stripped after the
  // bucket sort so step 3 streams one-word edges as the paper assumes).
  // The transform stays fused (read, color, push per record): its Scanner
  // reads interleave with Writer flushes, and that interleaving is part of
  // the pinned LRU charge sequence — batching reads ahead of the writes
  // would perturb IoStats under capacity pressure.
  const std::size_t num_keys = static_cast<std::size_t>(c) * c;
  ColorBuckets out;
  obs::Span span("ca.coloring");
  span.AddArg("colors", c);
  em::Array<ColoredEdge> colored = ctx.Alloc<ColoredEdge>(low.size());
  extsort::Transform(low, colored, [&](const Edge& e) {
    return ColoredEdge{e.u, e.v, color(e.u), color(e.v)};
  });
  extsort::ExternalMergeSort(ctx, colored, graph::ColorClassLess{});

  // Bucket offsets live on the device (c^2 + 1 words, built with one
  // counting scan and a prefix sum), so no internal-memory assumption
  // beyond the paper's is needed and their accesses are I/O-accounted.
  out.offsets = ctx.Alloc<std::uint64_t>(num_keys + 1);
  out.edges = ctx.Alloc<Edge>(low.size());
  for (std::size_t k = 0; k <= num_keys; ++k) out.offsets.Set(k, 0);
  {
    em::Scanner<ColoredEdge> in(colored);
    em::Writer<Edge> w(out.edges);
    while (in.HasNext()) {
      ColoredEdge e = in.Next();
      std::size_t key = static_cast<std::size_t>(e.cu) * c + e.cv;
      out.offsets.Set(key + 1, out.offsets.Get(key + 1) + 1);
      w.Push(Edge{e.u, e.v});
    }
    w.Flush();  // step 3 reads `edges` below
  }
  std::uint64_t run = 0;
  for (std::size_t k = 0; k <= num_keys; ++k) {
    run += out.offsets.Get(k);
    out.offsets.Set(k, run);
  }
  return out;
}

}  // namespace

void EnumerateCacheAware(em::QuerySession& ctx, const graph::EmGraph& g,
                         TriangleSink& sink, const CacheAwareOptions& opts) {
  using graph::Edge;
  using graph::VertexId;

  const std::size_t m0 = g.num_edges();
  if (m0 < 3) return;
  auto region = ctx.Region();

  // Working copy of the edge set; shrinks as high-degree vertices are pulled
  // out.
  em::Array<Edge> work = ctx.Alloc<Edge>(m0);
  extsort::Copy(g.edges, work);
  std::size_t wlen = m0;

  // ---- Step 1: triangles with a high-degree vertex (Lemma 1 each) ----------
  if (opts.high_degree_step) {
    obs::Span span("ca.high_degree");
    const double threshold = std::sqrt(static_cast<double>(m0) *
                                       static_cast<double>(ctx.memory_words()));
    // Ids are in non-decreasing degree order, so V_h is a suffix.
    VertexId h0 = g.num_vertices;
    for (VertexId i = 0; i < g.num_vertices; ++i) {
      if (static_cast<double>(g.degrees.Get(i)) > threshold) {
        h0 = i;
        break;
      }
    }
    for (VertexId x = g.num_vertices; x-- > h0;) {
      em::Array<Edge> cur = work.Slice(0, wlen);
      EnumerateTrianglesContaining<Edge>(
          ctx, cur, x, extsort::AwareSorter{},
          [&](VertexId u, VertexId w, std::uint32_t, std::uint32_t,
              std::uint32_t) {
            graph::Triangle t = OrderTriple(x, u, w);
            sink.Emit(t.a, t.b, t.c);
          });
      wlen = extsort::Filter(cur, work, [x](const Edge& e) {
        return e.u != x && e.v != x;
      });
    }
  }
  if (wlen == 0) return;
  em::Array<Edge> low = work.Slice(0, wlen);

  // ---- Step 2: coloring and bucketing ---------------------------------------
  std::uint32_t c = 1;
  while (static_cast<std::uint64_t>(c) * c * ctx.memory_words() < wlen) c <<= 1;
  if (opts.force_colors != 0) c = opts.force_colors;

  ColorBuckets cb;
  if (opts.deterministic_coloring) {
    const DeterministicColoring det = BuildDeterministicColoring(ctx, low, c);
    cb = ColorAndBucket(ctx, low, c,
                        [&det](VertexId v) { return det.Color(v); });
  } else {
    std::uint64_t seed = opts.seed != 0 ? opts.seed : ctx.seed();
    const hashing::FourWiseHash h(seed);
    cb = ColorAndBucket(ctx, low, c,
                        [&h, c](VertexId v) { return h.Color(v, c); });
  }

  auto bucket = [&](std::uint32_t a, std::uint32_t b) {
    std::size_t key = static_cast<std::size_t>(a) * c + b;
    std::size_t lo = cb.offsets.Get(key);
    std::size_t hi = cb.offsets.Get(key + 1);
    return cb.edges.Slice(lo, hi - lo);
  };

  // ---- Step 3: Lemma 2 per color triple -------------------------------------
  obs::Span span("ca.color_triples");
  span.AddArg("colors", c);
  PivotEnumOptions popts;
  popts.chunk_fraction = opts.chunk_fraction;
  for (std::uint32_t t1 = 0; t1 < c; ++t1) {
    for (std::uint32_t t2 = 0; t2 < c; ++t2) {
      em::Array<Edge> cone_a = bucket(t1, t2);
      if (cone_a.empty()) continue;
      for (std::uint32_t t3 = 0; t3 < c; ++t3) {
        em::Array<Edge> pivot = bucket(t2, t3);
        if (pivot.empty()) continue;
        em::Array<Edge> cone_b = t2 == t3 ? cone_a : bucket(t1, t3);
        if (cone_b.empty()) continue;
        PivotEnumerate<Edge>(ctx, cone_a, cone_b, pivot, sink, popts);
      }
    }
  }
}

double PaghSilvestriIoBound(std::size_t num_edges, std::size_t m, std::size_t b) {
  double e = static_cast<double>(num_edges);
  return std::pow(e, 1.5) /
         (std::sqrt(static_cast<double>(m)) * static_cast<double>(b));
}

}  // namespace trienum::core
