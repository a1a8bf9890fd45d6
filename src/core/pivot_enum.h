// Lemma 2 (Hu, Tao, Chung): enumerate all triangles whose pivot edge lies in
// a designated edge set, in O(E/B + E'·E/(MB)) I/Os.
//
// The pivot set is consumed in chunks of alpha*M edges held in internal
// memory. For each chunk, one scan of the cone edge stream(s) — grouped by
// smaller endpoint v, which the §1.3 lex order provides for free — collects
// Gamma_v, the neighbours of v that appear in the resident chunk, and every
// resident pivot edge {u, w} with u, w in Gamma_v closes the triangle
// (v, u, w).
//
// The same engine serves three callers:
//   * the full Hu-Tao-Chung baseline (cone = pivot = E);
//   * step 3 of the paper's cache-aware algorithm, where the cone edges come
//     from color buckets (tau1,tau2) and (tau1,tau3) and the pivot from
//     (tau2,tau3) — which makes the paper's "ignore triangles whose cone
//     vertex is not colored tau1" a structural no-op;
//   * ablation benches sweeping the chunk fraction alpha.
//
// The loop engine consumes each cone group's neighbours straight from the
// cone scanner's line buffer (em::Scanner::TakeRun, which charges the
// per-record Peek/Next loop's exact sequence at O(1) simulator calls per
// buffered line), and looks each neighbour's roles up inline as it arrives —
// one FlatVertexMap probe per cone edge per chunk, the hottest host loop of
// Lemma 2.
//
// The engine drives the src/simd/ two-regime intersection kernels: the emit
// phase intersects each resident pivot run against Gamma_3 either by merge
// kernel or — when Gamma_3 is large and dense (the high-degree-hub shape) —
// through a per-group offset bitmap. The kernel variant is resolved once per
// PivotEnumerate call and its kernels are called directly; each cone scan
// adds its kernel calls to the variant's invocation counter once. Kernel
// variant and regime are pure host-performance choices: output order, work
// totals and I/O charges are identical with kernels on or off
// (tests/test_simd_invariance.cc).
#ifndef TRIENUM_CORE_PIVOT_ENUM_H_
#define TRIENUM_CORE_PIVOT_ENUM_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/sink.h"
#include "em/array.h"
#include "graph/types.h"
#include "obs/trace.h"
#include "simd/intersect.h"

namespace trienum::core {
namespace internal {

/// Minimal open-addressed map VertexId -> u32 payload (linear probing,
/// power-of-two capacity). The pivot chunk's adjacency index is rebuilt and
/// probed millions of times per run; a flat table beats both
/// std::unordered_map (per-node mallocs, bucket chasing) and binary search
/// (log-n mispredicted branches) on this hot path. Host-side only: no effect
/// on I/O accounting.
class FlatVertexMap {
 public:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

  void Reset(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < 2 * expected) cap <<= 1;
    keys_.assign(cap, 0);
    vals_.assign(cap, kEmpty);
    mask_ = static_cast<std::uint32_t>(cap - 1);
  }

  /// Inserts or overwrites.
  void Put(graph::VertexId key, std::uint32_t val) {
    std::uint32_t i = Hash(key);
    while (vals_[i] != kEmpty && keys_[i] != key) i = (i + 1) & mask_;
    keys_[i] = key;
    vals_[i] = val;
  }

  /// ORs `bits` into the payload for `key` (inserting it if absent) — lets
  /// one table carry several roles per vertex, so the cone-stream hot loop
  /// pays one probe instead of one per role.
  void Add(graph::VertexId key, std::uint32_t bits) {
    std::uint32_t i = Hash(key);
    while (vals_[i] != kEmpty && keys_[i] != key) i = (i + 1) & mask_;
    keys_[i] = key;
    vals_[i] = vals_[i] == kEmpty ? bits : (vals_[i] | bits);
  }

  /// Payload for `key`, or kEmpty.
  std::uint32_t Get(graph::VertexId key) const {
    std::uint32_t i = Hash(key);
    while (vals_[i] != kEmpty) {
      if (keys_[i] == key) return vals_[i];
      i = (i + 1) & mask_;
    }
    return kEmpty;
  }

  /// Raw-pointer read view. The probe loops call Get millions of times
  /// between opaque calls (sink emission, work accounting); a by-value View
  /// lets the compiler keep the table pointers and mask in registers
  /// instead of reloading them after every such call. Invalidated by Reset.
  struct View {
    const graph::VertexId* keys;
    const std::uint32_t* vals;
    std::uint32_t mask;

    std::uint32_t Get(graph::VertexId key) const {
      std::uint32_t i = (static_cast<std::uint32_t>(key) * 0x9E3779B1u) & mask;
      while (vals[i] != kEmpty) {
        if (keys[i] == key) return vals[i];
        i = (i + 1) & mask;
      }
      return kEmpty;
    }
  };
  View view() const { return View{keys_.data(), vals_.data(), mask_}; }

 private:
  std::uint32_t Hash(graph::VertexId key) const {
    return (static_cast<std::uint32_t>(key) * 0x9E3779B1u) & mask_;
  }

  std::vector<graph::VertexId> keys_;
  std::vector<std::uint32_t> vals_;
  std::uint32_t mask_ = 0;
};

/// One resident pivot chunk with its host-side index: the sorted chunk, the
/// per-u run table, and the role map.
template <typename EdgeT>
struct ResidentChunk {
  using Access = graph::EdgeAccess<EdgeT>;

  std::vector<EdgeT> chunk;
  /// Each distinct smaller-endpoint u's [first, last) run in `chunk`.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
  /// chunk[i]'s larger endpoint, extracted once so each u-run is a
  /// contiguous strictly-increasing u32 array — the shape the intersection
  /// kernels take directly (no per-element EdgeAccess in the emit loop).
  std::vector<std::uint32_t> vmax;
  /// Payload bit 0: max-side membership; bits 1+: 1 + `ranges` index of the
  /// vertex's u-side run. (The packed payload would alias the empty
  /// sentinel only at 2^30 resident ranges; chunks are capped at M/(w+6)
  /// records, orders of magnitude below.)
  FlatVertexMap roles;

  // Cone-scan scratch, reused by every chunk scan of one PivotEnumerate
  // call. Gamma_v split by role: u-side neighbours carry their resolved
  // `ranges` index (no re-probe in the emit loop), w-side is membership
  // only.
  std::vector<std::pair<graph::VertexId, std::uint32_t>> g2;
  std::vector<graph::VertexId> g3;
  std::vector<std::uint32_t> match;  // one run's kernel match output
  simd::DenseBitmap bitmap;          // Gamma_3 in the dense regime

  void Load(em::QuerySession& ctx, em::Array<EdgeT> pivot, std::size_t p0,
            std::size_t p1) {
    const std::size_t csize = p1 - p0;
    chunk.resize(csize);
    pivot.ReadTo(p0, p1, chunk.data());
    // Every caller passes lex-sorted pivot edges (whole edge list or color
    // buckets cut from one), so the chunk is almost always already sorted —
    // verify in one sweep and skip the sort. The fallback stays std::sort:
    // edges are unique under LexLess, so stability is moot, and the
    // in-place sort keeps the chunk lease the honest account of this
    // chunk's internal-memory footprint.
    if (!std::is_sorted(chunk.begin(), chunk.end(), graph::LexLess{})) {
      std::sort(chunk.begin(), chunk.end(), graph::LexLess{});
    }
    ctx.AddWork(csize * 2);

    ranges.clear();
    ranges.reserve(csize);
    vmax.resize(csize);
    roles.Reset(2 * csize);
    for (std::size_t i = 0; i < csize; ++i) {
      graph::VertexId u = Access::U(chunk[i]);
      if (ranges.empty() ||
          Access::U(chunk[i - 1]) != u) {  // chunk sorted: runs are contiguous
        roles.Add(u, (static_cast<std::uint32_t>(ranges.size()) + 1) << 1);
        ranges.emplace_back(static_cast<std::uint32_t>(i),
                            static_cast<std::uint32_t>(i + 1));
      } else {
        ranges.back().second = static_cast<std::uint32_t>(i + 1);
      }
      vmax[i] = static_cast<std::uint32_t>(Access::V(chunk[i]));
      roles.Add(Access::V(chunk[i]), 1u);
    }
  }
};

/// The loop engine. Neighbour collection charges exactly what the
/// per-record loop `while (HasNext() && U(Peek()) == v) Next()` charges
/// (em::Scanner::TakeRun) while the roles are probed inline; the emit phase
/// intersects each resident pivot run against Gamma_3 through the
/// two-regime kernels. A pivot run's larger endpoints are strictly
/// increasing (lex-sorted unique edges), so the kernels' ascending match
/// output IS the run-scan emit order; work is charged per batch with totals
/// equal to the per-item counts.
template <typename EdgeT>
void ScanCones(em::QuerySession& ctx, ResidentChunk<EdgeT>& rc,
                     const simd::Kernels& kernels, em::Array<EdgeT> cone_a,
                     em::Array<EdgeT> cone_b, bool same_cone,
                     TriangleSink& sink) {
  using Access = graph::EdgeAccess<EdgeT>;
  using graph::VertexId;
  // One pass over the cone stream(s), grouped by cone vertex v.
  em::Scanner<EdgeT> sa(cone_a);
  em::Scanner<EdgeT> sb;
  if (!same_cone) sb = em::Scanner<EdgeT>(cone_b);
  // Hot-state locals (see FlatVertexMap::View): the chunk, run table and
  // role map never change inside this scan, and keeping raw pointers in
  // locals stops the opaque sink/work calls from forcing reloads.
  const std::uint32_t* const vmax = rc.vmax.data();
  const std::pair<std::uint32_t, std::uint32_t>* const ranges =
      rc.ranges.data();
  const FlatVertexMap::View roles = rc.roles.view();
  auto& g2 = rc.g2;
  auto& g3 = rc.g3;
  auto& match = rc.match;
  simd::DenseBitmap& bitmap = rc.bitmap;
  const auto cone_vertex = [](const EdgeT& e) { return Access::U(e); };
  std::uint64_t kernel_calls = 0;

  while (sa.HasNext() || (!same_cone && sb.HasNext())) {
    VertexId v;
    if (!sa.HasNext()) {
      v = Access::U(sb.Peek());
    } else if (same_cone || !sb.HasNext()) {
      v = Access::U(sa.Peek());
    } else {
      v = std::min(Access::U(sa.Peek()), Access::U(sb.Peek()));
    }
    g2.clear();
    g3.clear();
    ctx.AddWork(sa.TakeRun(cone_vertex, v, [&](const EdgeT& e) {
      const VertexId x = Access::V(e);
      const std::uint32_t r = roles.Get(x);
      if (r == FlatVertexMap::kEmpty) return;
      if ((r >> 1) != 0) g2.emplace_back(x, (r >> 1) - 1);
      if (same_cone && (r & 1u) != 0) g3.push_back(x);
    }));
    if (!same_cone) {
      ctx.AddWork(sb.TakeRun(cone_vertex, v, [&](const EdgeT& e) {
        const VertexId x = Access::V(e);
        const std::uint32_t r = roles.Get(x);
        if (r != FlatVertexMap::kEmpty && (r & 1u) != 0) g3.push_back(x);
      }));
    }
    if (g2.empty() || g3.empty()) continue;

    // The lex-sort precondition makes neighbours within a group arrive
    // v-ascending, so g3 is already sorted for the intersections below;
    // verify in one sweep (and repair) rather than trust the caller.
    if (!std::is_sorted(g3.begin(), g3.end())) {
      std::sort(g3.begin(), g3.end());
    }
    // Emit phase: intersect each g2 entry's resident pivot run with g3.
    // Regime choice is per group — dense Gamma_3 builds one offset bitmap
    // reused across every run; sparse Gamma_3 goes through the merge
    // kernel. Work is the run length, exactly the per-element count.
    const simd::Regime regime =
        simd::ChooseRegime(g3.size(), g3.front(), g3.back());
    if (regime == simd::Regime::kBitmap) bitmap.Build(g3.data(), g3.size());
    kernel_calls += g2.size();
    for (const auto& [u, ri] : g2) {
      const auto& range = ranges[ri];
      const std::uint32_t* run = vmax + range.first;
      const std::size_t len = range.second - range.first;
      ctx.AddWork(len);
      if (match.size() < len + simd::kOutSlack) {
        match.resize(len + simd::kOutSlack);
      }
      std::size_t m;
      if (regime == simd::Regime::kBitmap) {
        m = (bitmap.*kernels.probe)(run, len, match.data());
      } else {
        m = kernels.intersect(run, len, g3.data(), g3.size(), match.data())
                .matches;
      }
      for (std::size_t i = 0; i < m; ++i) sink.Emit(v, u, match[i]);
    }
  }
  if (kernel_calls != 0) simd::CountInvocations(kernels.variant, kernel_calls);
}

}  // namespace internal

struct PivotEnumOptions {
  /// Fraction alpha of internal memory used for the resident pivot chunk.
  double chunk_fraction = 1.0 / 8.0;
};

/// \brief Enumerates all triangles (v, u, w), v < u < w, with cone edges
/// {v,u} in `cone_a`, {v,w} in `cone_b` and pivot edge {u,w} in `pivot`.
///
/// Preconditions: all three arrays are lex-sorted with u < v per edge. Pass
/// the same array as `cone_a` and `cone_b` when they coincide (detected by
/// base address; the stream is then scanned once and feeds both roles).
template <typename EdgeT>
void PivotEnumerate(em::QuerySession& ctx, em::Array<EdgeT> cone_a,
                    em::Array<EdgeT> cone_b, em::Array<EdgeT> pivot,
                    TriangleSink& sink, const PivotEnumOptions& opts = {}) {
  if (pivot.empty() || cone_a.empty() || cone_b.empty()) return;

  const bool same_cone = cone_a.base() == cone_b.base();
  const std::size_t words_per = em::Array<EdgeT>::kWordsPer;
  std::size_t chunk_items = static_cast<std::size_t>(
      static_cast<double>(ctx.memory_words()) * opts.chunk_fraction /
      static_cast<double>(words_per));
  // The resident structures cost ~(words_per + 6) words per chunk record
  // (chunk + adjacency index + endpoint filter + per-v buffers; the kernel
  // sidecars — extracted endpoints, group bitmap, match scratch — add
  // ~1.25 words/record, inside the slack the power-of-two role table
  // leaves), so cap the chunk to keep the scratch lease within M even for
  // aggressive alpha.
  chunk_items =
      std::min(chunk_items, ctx.memory_words() / (words_per + 6));
  chunk_items = std::max<std::size_t>(chunk_items, 1);

  const simd::Kernels kernels = simd::Kernels::For(simd::ActiveVariant());
  internal::ResidentChunk<EdgeT> rc;
  for (std::size_t p0 = 0; p0 < pivot.size(); p0 += chunk_items) {
    const std::size_t p1 = std::min(pivot.size(), p0 + chunk_items);
    const std::size_t csize = p1 - p0;

    // Internal-memory working set for this chunk: the chunk itself, its
    // adjacency index, the endpoint filters, and the per-v buffers.
    em::ScratchLease lease = ctx.LeaseScratch(csize * (words_per + 6));
    {
      obs::Span span("pivot.chunk_load");
      span.AddArg("chunk_items", csize);
      rc.Load(ctx, pivot, p0, p1);
    }

    {
      obs::Span span("pivot.cone_scan");
      span.AddArg("chunk_items", csize);
      internal::ScanCones<EdgeT>(ctx, rc, kernels, cone_a, cone_b, same_cone,
                                 sink);
    }
  }
}

}  // namespace trienum::core

#endif  // TRIENUM_CORE_PIVOT_ENUM_H_
