#include "core/cache_oblivious.h"

#include <algorithm>
#include <array>
#include <vector>

#include "common/rng.h"
#include "core/dementiev.h"
#include "core/vertex_enum.h"
#include "extsort/scan_ops.h"
#include "extsort/sorter.h"
#include "hashing/kwise.h"
#include "obs/trace.h"

namespace trienum::core {
namespace {

using graph::ColoredEdge;
using graph::VertexId;

class CoRunner {
 public:
  CoRunner(em::QuerySession& ctx, TriangleSink& sink,
           const CacheObliviousOptions& opts, int max_depth,
           CacheObliviousReport* report)
      : ctx_(ctx),
        sink_(sink),
        opts_(opts),
        max_depth_(max_depth),
        rng_(opts.seed != 0 ? opts.seed : ctx.seed()),
        report_(report) {}

  void Recurse(em::Array<ColoredEdge> a, std::array<std::uint32_t, 3> col,
               int depth) {
    std::size_t len = a.size();
    // A proper triangle needs all three of its edges inside the subproblem,
    // so fewer than three edges cannot contain one (the paper's "E empty"
    // base, tightened to the trivially sound constant).
    if (len < 3) return;
    if (report_ != nullptr) {
      ++report_->subproblems;
      report_->max_depth_reached = std::max(report_->max_depth_reached, depth);
    }
    if (depth >= max_depth_ ||
        (opts_.base_cutoff != 0 && len <= opts_.base_cutoff)) {
      BaseCase(a, col);
      return;
    }

    // ---- Step 1: local high-degree vertices ---------------------------------
    len = HighDegreeStep(a, col, len);
    if (len < 3) return;
    a = a.Slice(0, len);

    // ---- Step 2: refine the coloring with one fresh 4-wise random bit -------
    hashing::FourWiseHash bh(rng_.Next());

    // ---- Step 3: the 8 child color vectors ----------------------------------
    // All eight compatible-edge subsets are materialized with two scans of
    // the parent (count, then write) rather than one scan per child; the
    // recursion itself stays depth-first.
    em::DeviceRegion region = ctx_.Region();
    std::array<std::array<std::uint32_t, 3>, 8> cc;
    std::array<std::size_t, 8> child_len{};
    std::array<std::array<std::uint64_t, 3>, 8> slots{};
    for (int z = 0; z < 8; ++z) {
      cc[z] = {2 * col[0] - ((z >> 0) & 1), 2 * col[1] - ((z >> 1) & 1),
               2 * col[2] - ((z >> 2) & 1)};
    }
    // Closed-form child dispatch: a slot-(i,j) match pins two of z's three
    // bits (z's bit k is position k's refinement bit), leaving exactly two
    // candidate children per slot class. Equivalent to comparing (nu, nv)
    // against all eight cc[z] rows, at a fraction of the work.
    auto route = [&](const ColoredEdge& e, std::uint32_t bu, std::uint32_t bv,
                     auto&& per_child) {
      const std::uint32_t nu = 2 * e.cu - bu;
      const std::uint32_t nv = 2 * e.cv - bv;
      ctx_.AddWork(2);
      std::uint8_t fl[8] = {};
      if (e.cu == col[0] && e.cv == col[1]) {
        std::uint32_t z = bu | (bv << 1);
        fl[z] |= 1;
        fl[z | 4] |= 1;
      }
      if (e.cu == col[1] && e.cv == col[2]) {
        std::uint32_t z = (bu << 1) | (bv << 2);
        fl[z] |= 2;
        fl[z | 1] |= 2;
      }
      if (e.cu == col[0] && e.cv == col[2]) {
        std::uint32_t z = bu | (bv << 2);
        fl[z] |= 4;
        fl[z | 2] |= 4;
      }
      for (int z = 0; z < 8; ++z) {
        if (fl[z] != 0) {
          per_child(z, ColoredEdge{e.u, e.v, nu, nv}, (fl[z] & 1) != 0,
                    (fl[z] & 2) != 0, (fl[z] & 4) != 0);
        }
      }
    };
    std::array<em::Writer<ColoredEdge>, 8> writers;
    if (len < kSmallNode) {
      // Small-subproblem fast path (the recursion spends most of its nodes
      // here: millions of subproblems of a dozen edges). One charged read
      // brings the records host-side; the second pass re-charges the scan
      // without re-moving data, and the refinement bits are computed once
      // and reused. The touch sequence is identical to the two-scan path.
      std::array<ColoredEdge, kSmallNode> ebuf;
      std::array<std::uint8_t, kSmallNode> ebits;
      a.ReadScanInto(0, len, ebuf.data());
      for (std::size_t i = 0; i < len; ++i) {
        ebits[i] = static_cast<std::uint8_t>(bh.PairBits(ebuf[i].u, ebuf[i].v));
        route(ebuf[i], ebits[i] & 1u, ebits[i] >> 1,
              [&](int z, const ColoredEdge&, bool s01, bool s12, bool s02) {
                ++child_len[z];
                slots[z][0] += s01 ? 1 : 0;
                slots[z][1] += s12 ? 1 : 0;
                slots[z][2] += s02 ? 1 : 0;
              });
      }
      for (int z = 0; z < 8; ++z) {
        writers[z] = em::Writer<ColoredEdge>(
            ctx_.Alloc<ColoredEdge>(child_len[z]), em::ScanMode::kElementwise);
      }
      a.TouchScanRange(0, len);  // the routing pass's read charges
      for (std::size_t i = 0; i < len; ++i) {
        route(ebuf[i], ebits[i] & 1u, ebits[i] >> 1,
              [&](int z, const ColoredEdge& ce, bool, bool, bool) {
                writers[z].Push(ce);
              });
      }
    } else {
      // Refinement bits are GF(2^61-1) polynomial evaluations — the
      // recursion's hottest host work. Each record's two bits are evaluated
      // once (one two-point evaluation on the counting scan) and replayed on
      // the write scan from a host-side bit cache, instead of re-deriving
      // them per pass. The cache is 2 bits per record packed in
      // a byte, capped by a fixed (M-independent, so still oblivious)
      // constant; nodes beyond the cap fall back to re-evaluating on the
      // second scan. Either way both scans stay real Scanner passes — the
      // I/O charge sequence is untouched.
      // One buffer shared down the whole recursion (children reuse it only
      // after the parent's second scan has drained it).
      const bool cache_bits = len <= kBitCacheMax;
      std::vector<std::uint8_t>& bits = bit_cache_;
      if (cache_bits && bits.size() < len) bits.resize(len);
      {
        em::Scanner<ColoredEdge> in(a.Slice(0, len));
        std::size_t i = 0;
        auto count_child = [&](int z, const ColoredEdge&, bool s01, bool s12,
                               bool s02) {
          ++child_len[z];
          slots[z][0] += s01 ? 1 : 0;
          slots[z][1] += s12 ? 1 : 0;
          slots[z][2] += s02 ? 1 : 0;
        };
        while (in.HasNext()) {
          ColoredEdge e = in.Next();
          const std::uint32_t pb = bh.PairBits(e.u, e.v);
          if (cache_bits) bits[i++] = static_cast<std::uint8_t>(pb);
          route(e, pb & 1u, pb >> 1, count_child);
        }
      }
      for (int z = 0; z < 8; ++z) {
        writers[z] =
            em::Writer<ColoredEdge>(ctx_.Alloc<ColoredEdge>(child_len[z]));
      }
      {
        em::Scanner<ColoredEdge> in(a.Slice(0, len));
        auto push_child = [&](int z, const ColoredEdge& ce, bool, bool, bool) {
          writers[z].Push(ce);
        };
        if (cache_bits) {
          std::size_t i = 0;
          while (in.HasNext()) {
            ColoredEdge e = in.Next();
            const std::uint32_t pb = bits[i++];
            route(e, pb & 1u, pb >> 1, push_child);
          }
        } else {
          while (in.HasNext()) {
            ColoredEdge e = in.Next();
            const std::uint32_t pb = bh.PairBits(e.u, e.v);
            route(e, pb & 1u, pb >> 1, push_child);
          }
        }
      }
    }
    for (int z = 0; z < 8; ++z) {
      if (report_ != nullptr) report_->total_child_edges += child_len[z];
      if (opts_.prune_empty_slots &&
          (slots[z][0] == 0 || slots[z][1] == 0 || slots[z][2] == 0)) {
        continue;  // a proper triangle needs one edge in each slot class
      }
      Recurse(writers[z].Written(), cc[z], depth + 1);
    }
  }

  /// Below this size a subproblem's materialization runs from a host copy
  /// (one charged read + a charge-only second scan) instead of the streaming
  /// two-pass — identical IoStats, none of the per-node stream setup.
  static constexpr std::size_t kSmallNode = 64;

  /// Largest subproblem whose refinement bits are cached between the two
  /// materialization scans (2 bits/record, 1 MiB of host metadata at the
  /// cap). A fixed constant — the oblivious code path still never consults
  /// M or B.
  static constexpr std::size_t kBitCacheMax = std::size_t{1} << 20;

 private:
  /// Enumerates proper triangles through vertices of degree >= E/8 within
  /// the subproblem and removes those vertices' edges; returns the new
  /// length of `a`.
  std::size_t HighDegreeStep(em::Array<ColoredEdge> a,
                             std::array<std::uint32_t, 3> col, std::size_t len) {
    // For subproblems so small that the degree threshold E/8 is a trivial
    // constant, the step is vacuous for the analysis (it exists to cap the
    // maximum degree in the variance argument); skip it.
    if (len < 24) return len;

    // Degrees within the subproblem: at most 2E/(E/8) = 16 vertices can
    // qualify, so a Misra-Gries heavy-hitter pass with 31 counters (finds
    // everything with frequency > 2E/32 <= E/8 among the 2E endpoints)
    // followed by one exact counting pass identifies them with two scans and
    // O(1) internal memory — cheaper than the endpoint sort and still
    // oblivious.
    const std::size_t threshold = std::max<std::size_t>(1, len / 8);
    std::vector<VertexId> high;
    {
      constexpr std::size_t kCounters = 31;
      // Misra-Gries state laid out for the hot loop: occupied slots hold
      // their key, free slots hold a sentinel no vertex id can equal (ids
      // are 32-bit), so the match scan is a branchless sweep and the lowest
      // free slot comes from a bitmask — identical semantics to the
      // original find-match/find-empty scans at a fraction of the work.
      // This runs twice per edge of every subproblem.
      constexpr std::uint64_t kFree = ~std::uint64_t{0};
      std::array<std::uint64_t, kCounters> key;
      std::array<std::uint32_t, kCounters> cnt{};
      key.fill(kFree);
      std::uint32_t free_mask = (1u << kCounters) - 1;
      auto offer = [&](VertexId v) {
        const std::uint64_t vv = v;
        int match = -1;
        for (int k = 0; k < static_cast<int>(kCounters); ++k) {
          match = key[k] == vv ? k : match;
        }
        if (match >= 0) {
          ++cnt[match];
        } else if (free_mask != 0) {
          int empty = __builtin_ctz(free_mask);  // lowest free slot first
          key[empty] = vv;
          cnt[empty] = 1;
          free_mask &= ~(1u << empty);
        } else {
          for (std::size_t k = 0; k < kCounters; ++k) {
            if (--cnt[k] == 0) {
              key[k] = kFree;
              free_mask |= 1u << k;
            }
          }
        }
      };
      {
        const em::ScanMode mode =
            len >= 64 ? em::DefaultScanMode() : em::ScanMode::kElementwise;
        em::Scanner<ColoredEdge> in(a.Slice(0, len), mode);
        while (in.HasNext()) {
          ColoredEdge e = in.Next();
          offer(e.u);
          offer(e.v);
          ctx_.AddWork(2);
        }
      }
      // Exact verification pass, compacted to the surviving candidates so
      // the inner loop is a tight array sweep.
      std::array<VertexId, kCounters> cand_key{};
      std::array<std::size_t, kCounters> cand_exact{};
      std::size_t nc = 0;
      for (std::size_t k = 0; k < kCounters; ++k) {
        if (cnt[k] != 0) cand_key[nc++] = static_cast<VertexId>(key[k]);
      }
      {
        const em::ScanMode mode =
            len >= 64 ? em::DefaultScanMode() : em::ScanMode::kElementwise;
        em::Scanner<ColoredEdge> in(a.Slice(0, len), mode);
        while (in.HasNext()) {
          ColoredEdge e = in.Next();
          for (std::size_t k = 0; k < nc; ++k) {
            cand_exact[k] += (cand_key[k] == e.u) + (cand_key[k] == e.v);
          }
        }
      }
      for (std::size_t k = 0; k < nc; ++k) {
        if (cand_exact[k] >= threshold) high.push_back(cand_key[k]);
      }
    }

    for (VertexId x : high) {
      if (report_ != nullptr) ++report_->high_degree_calls;
      em::Array<ColoredEdge> cur = a.Slice(0, len);
      EnumerateTrianglesContaining<ColoredEdge>(
          ctx_, cur, x, extsort::ObliviousSorter{},
          [&](VertexId u, VertexId w, std::uint32_t cu, std::uint32_t cw,
              std::uint32_t cx) {
            auto [tri, c0, c1, c2] = OrderColoredTriple(x, cx, u, cu, w, cw);
            if (c0 == col[0] && c1 == col[1] && c2 == col[2]) {
              sink_.Emit(tri.a, tri.b, tri.c);
            }
          });
      len = extsort::Filter(cur, a, [x](const ColoredEdge& e) {
        return e.u != x && e.v != x;
      });
    }
    return len;
  }

  /// Base case. Constant-size subproblems (<= kTinyBase edges) are solved
  /// directly in an O(1)-sized host buffer — one read of the input, no
  /// allocations; larger depth-capped subproblems run Dementiev's sort/scan
  /// listing in its oblivious (funnelsort) flavor. Both filter to proper
  /// triangles.
  static constexpr std::size_t kTinyBase = 64;

  void BaseCase(em::Array<ColoredEdge> a, std::array<std::uint32_t, 3> col) {
    if (report_ != nullptr) ++report_->base_cases;
    const std::size_t len = a.size();
    if (len <= kTinyBase) {
      em::ScratchLease lease = ctx_.LeaseScratch(2 * kTinyBase + 8);
      std::array<ColoredEdge, kTinyBase> buf;
      a.ReadTo(0, len, buf.data());
      std::sort(buf.begin(), buf.begin() + len, graph::LexLess{});
      ctx_.AddWork(len * 4);
      // Wedges at the smallest vertex: edges (u,v), (u,w) with v < w close a
      // triangle iff (v,w) is present (binary search in the sorted buffer).
      for (std::size_t i = 0; i < len; ++i) {
        for (std::size_t j = i + 1; j < len && buf[j].u == buf[i].u; ++j) {
          ColoredEdge probe;
          probe.u = buf[i].v;
          probe.v = buf[j].v;
          ctx_.AddWork(1);
          auto it = std::lower_bound(buf.begin(), buf.begin() + len, probe,
                                     graph::LexLess{});
          if (it == buf.begin() + len || it->u != probe.u || it->v != probe.v) {
            continue;
          }
          // Triangle u < v < w with positional colors from the edge records.
          if (buf[i].cu == col[0] && buf[i].cv == col[1] && it->cv == col[2]) {
            sink_.Emit(buf[i].u, buf[i].v, buf[j].v);
          }
        }
      }
      return;
    }
    WedgeJoinEnumerate<ColoredEdge>(
        ctx_, a, extsort::ObliviousSorter{},
        [col](const graph::Triangle&, std::uint32_t c0, std::uint32_t c1,
              std::uint32_t c2) {
          return c0 == col[0] && c1 == col[1] && c2 == col[2];
        },
        sink_);
  }

  em::QuerySession& ctx_;
  TriangleSink& sink_;
  CacheObliviousOptions opts_;
  int max_depth_;
  SplitMix64 rng_;
  CacheObliviousReport* report_;
  std::vector<std::uint8_t> bit_cache_;  // refinement bits, node-local use
};

}  // namespace

void EnumerateCacheOblivious(em::QuerySession& ctx, const graph::EmGraph& g,
                             TriangleSink& sink,
                             const CacheObliviousOptions& opts,
                             CacheObliviousReport* report) {
  const std::size_t m = g.num_edges();
  if (m < 3) return;
  auto region = ctx.Region();

  // The (1,1,1)-problem under the constant coloring xi = 1.
  em::Array<ColoredEdge> root = ctx.Alloc<ColoredEdge>(m);
  extsort::Transform(g.edges, root, [](const graph::Edge& e) {
    return ColoredEdge{e.u, e.v, 1, 1};
  });

  int max_depth = 0;  // ceil(log4 E)
  while ((std::uint64_t{1} << (2 * max_depth)) < m) ++max_depth;
  if (opts.max_depth_override >= 0) max_depth = opts.max_depth_override;

  // One span for the whole recursion: per-node spans would emit millions of
  // events (the tree has ~E subproblems), so attribution stays at the root.
  obs::Span span("co.recurse");
  span.AddArg("edges", m);
  span.AddArg("max_depth", static_cast<std::uint64_t>(max_depth));
  CoRunner runner(ctx, sink, opts, max_depth, report);
  runner.Recurse(root, {1, 1, 1}, 0);
}

}  // namespace trienum::core
