#include "core/coloring.h"

#include <tuple>

#include "extsort/ext_merge_sort.h"
#include "extsort/scan_ops.h"
#include "extsort/sort_key.h"

namespace trienum::core {
namespace {

/// One edge endpoint within a color class.
struct IncidenceRec {
  std::uint64_t class_key = 0;
  graph::VertexId v = 0;
  std::uint32_t pad = 0;
};

/// (class_key, v) is 96 bits; radix on the class key, comparator finishes
/// the per-class runs.
struct IncidenceLess {
  static constexpr bool kKeyComplete = false;
  static std::uint64_t Key(const IncidenceRec& r) { return r.class_key; }
  bool operator()(const IncidenceRec& a, const IncidenceRec& b) const {
    return std::tie(a.class_key, a.v) < std::tie(b.class_key, b.v);
  }
};

double Choose2(double n) { return n * (n - 1) / 2.0; }

}  // namespace

ColoringStats ComputeColoringStats(em::QuerySession& ctx, em::Array<graph::Edge> edges,
                                   ColorFn color, std::uint32_t c) {
  ColoringStats out;
  const std::size_t m = edges.size();
  if (m == 0) return out;
  auto region = ctx.Region();

  // Class keys, sorted: class sizes by run-length.
  em::Array<std::uint64_t> keys = ctx.Alloc<std::uint64_t>(m);
  extsort::Transform(edges, keys, [&](const graph::Edge& e) {
    return static_cast<std::uint64_t>(color(e.u)) * c + color(e.v);
  });
  extsort::ExternalMergeSort(ctx, keys, extsort::ValueLess<std::uint64_t>{});
  {
    em::Scanner<std::uint64_t> in(keys);
    std::uint64_t cur = in.Next();
    std::uint64_t cnt = 1;
    auto close_run = [&]() {
      out.x_total += Choose2(static_cast<double>(cnt));
      ++out.nonempty_classes;
      out.max_class_size = std::max(out.max_class_size, cnt);
    };
    while (in.HasNext()) {
      std::uint64_t k = in.Next();
      if (k == cur) {
        ++cnt;
      } else {
        close_run();
        cur = k;
        cnt = 1;
      }
    }
    close_run();
  }

  // Adjacent pairs: per (class, vertex) incident-edge counts. Two same-class
  // edges share at most one vertex (no parallel edges), so summing
  // C(count, 2) over (class, vertex) counts each adjacent pair exactly once.
  em::Array<IncidenceRec> inc = ctx.Alloc<IncidenceRec>(2 * m);
  {
    em::Scanner<graph::Edge> in(edges);
    em::Writer<IncidenceRec> out_w(inc);
    while (in.HasNext()) {
      graph::Edge e = in.Next();
      std::uint64_t key =
          static_cast<std::uint64_t>(color(e.u)) * c + color(e.v);
      out_w.Push(IncidenceRec{key, e.u, 0});
      out_w.Push(IncidenceRec{key, e.v, 0});
    }
  }
  extsort::ExternalMergeSort(ctx, inc, IncidenceLess{});
  {
    em::Scanner<IncidenceRec> in(inc);
    IncidenceRec cur = in.Next();
    std::uint64_t cnt = 1;
    while (in.HasNext()) {
      IncidenceRec r = in.Next();
      if (r.class_key == cur.class_key && r.v == cur.v) {
        ++cnt;
      } else {
        out.x_adj += Choose2(static_cast<double>(cnt));
        cur = r;
        cnt = 1;
      }
    }
    out.x_adj += Choose2(static_cast<double>(cnt));
  }
  out.x_nonadj = out.x_total - out.x_adj;
  return out;
}

double Lemma3Bound(std::size_t num_edges, std::size_t memory_words) {
  return static_cast<double>(num_edges) * static_cast<double>(memory_words);
}

double DerandomizedBound(std::size_t num_edges, std::size_t memory_words) {
  return 2.718281828459045 * static_cast<double>(num_edges) *
         static_cast<double>(memory_words);
}

}  // namespace trienum::core
