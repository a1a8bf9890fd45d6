// Two-regime intersection kernels for sorted u32 sets (adjacency lists).
//
// Regime 1 — merge: `IntersectSorted` walks two strictly increasing arrays
// with the scalar two-pointer's exact semantics, returning the matches plus
// how far each side was consumed when the other exhausted. The consumed
// counts let callers reproduce the scalar loop's work accounting to the
// unit: the scalar merge performs exactly (consumed_a + consumed_b -
// matches) iterations, and that total is data-determined — every correct
// merge lands on the same (consumed_a, consumed_b), which the exhaustive
// harness (tests/test_intersect_kernels.cc) verifies across variants.
//
// Regime 2 — bitmap: `DenseBitmap` rasterizes one side once (offset-based,
// one bit per value in [min, max]) and answers membership probes and
// popcount-style AND counts against it. It wins when the rasterized side is
// large and dense and is reused across many probes — the high-degree-hub
// shape Latapy and Berry et al. document for real power-law graphs. The
// `ChooseRegime` dispatcher applies the size/span threshold.
//
// Each operation has three implementations selected by the process-wide
// kernel policy (simd/kernel_policy.h): scalar reference, portable SWAR
// (64-bit packed half-word tricks, always compiled), and AVX2 (compiled
// under __AVX2__, i.e. TRIENUM_NATIVE builds). All variants are bit-exact
// replicas of the scalar reference in results, match order, and consumed
// counts; only the host instruction stream differs. Nothing here touches
// the em:: layer, so kernel choice can never move an I/O charge.
//
// Preconditions shared by all entry points: inputs are strictly increasing
// (sets — adjacency lists have no duplicate neighbours). Output buffers
// need kOutSlack extra slots beyond the worst-case match count: the
// vectorized compaction stores full 8-lane groups and advances by the
// actual match count.
#ifndef TRIENUM_SIMD_INTERSECT_H_
#define TRIENUM_SIMD_INTERSECT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simd/kernel_policy.h"

namespace trienum::simd {

/// Extra output capacity (beyond min(na, nb) possible matches) the
/// vectorized kernels may scribble past the last real match.
inline constexpr std::size_t kOutSlack = 8;

/// What the scalar two-pointer loop would have done: `matches` values
/// written to `out` (ascending), and the i/j positions at which the loop
/// terminated (first side exhausted). The scalar loop's iteration count is
/// consumed_a + consumed_b - matches.
struct IntersectStats {
  std::size_t matches = 0;
  std::size_t consumed_a = 0;
  std::size_t consumed_b = 0;
};

/// Early-exit merge intersection of two strictly increasing arrays; writes
/// the common values (ascending) to `out` (capacity >= min(na, nb) +
/// kOutSlack). Dispatches on the active kernel variant.
IntersectStats IntersectSorted(const std::uint32_t* a, std::size_t na,
                               const std::uint32_t* b, std::size_t nb,
                               std::uint32_t* out);

namespace internal {
// Individual variants, exposed for the differential harness (normal code
// goes through IntersectSorted).
IntersectStats IntersectScalar(const std::uint32_t* a, std::size_t na,
                               const std::uint32_t* b, std::size_t nb,
                               std::uint32_t* out);
IntersectStats IntersectSwar(const std::uint32_t* a, std::size_t na,
                             const std::uint32_t* b, std::size_t nb,
                             std::uint32_t* out);
#if defined(__AVX2__)
IntersectStats IntersectAvx2(const std::uint32_t* a, std::size_t na,
                             const std::uint32_t* b, std::size_t nb,
                             std::uint32_t* out);
#endif
}  // namespace internal

// ---------------------------------------------------------------------------
// Dense regime.

/// Regime chosen by the degree-threshold dispatcher.
enum class Regime { kMerge, kBitmap };

/// The rasterized side must amortize its build: at least this many values.
inline constexpr std::size_t kBitmapMinSize = 64;
/// ...and be dense: span no more than this many positions per value (the
/// bitmap costs span/64 words to build and scan; beyond 16x the set size,
/// the merge kernels win and the bitmap stops fitting the scratch budget).
inline constexpr std::size_t kBitmapMaxSpanPerValue = 16;

/// Picks the regime for intersections against one reused sorted set of
/// `size` values spanning [min_value, max_value]. Pure threshold logic —
/// both regimes produce identical results, so this is performance only.
inline Regime ChooseRegime(std::size_t size, std::uint32_t min_value,
                           std::uint32_t max_value) {
  if (size < kBitmapMinSize) return Regime::kMerge;
  const std::uint64_t span =
      static_cast<std::uint64_t>(max_value) - min_value + 1;
  if (span > static_cast<std::uint64_t>(size) * kBitmapMaxSpanPerValue) {
    return Regime::kMerge;
  }
  return Regime::kBitmap;
}

/// Offset-based bitmap over one strictly increasing array, reused across
/// many probe batches (the high-degree side of the two-regime split).
class DenseBitmap {
 public:
  /// Rasterizes `values[0..n)`; any previous contents are discarded.
  /// Requires n > 0.
  void Build(const std::uint32_t* values, std::size_t n);

  bool built() const { return !words_.empty(); }
  std::size_t size() const { return count_; }

  /// Membership of a single value.
  bool Test(std::uint32_t v) const {
    const std::uint64_t off = static_cast<std::uint64_t>(v) - base_;
    if (off >= span_) return false;
    return (words_[off >> 6] >> (off & 63)) & 1u;
  }

  /// Full-scan probe: writes probe[i] for every member, in probe order, to
  /// `out` (capacity >= n + kOutSlack); returns the match count. Dispatches
  /// on the active kernel variant; all variants emit identical output.
  std::size_t Probe(const std::uint32_t* probe, std::size_t n,
                    std::uint32_t* out) const;

  /// |this AND other| via vectorized popcount over the overlapping word
  /// range (the count-only path of the dense regime).
  std::uint64_t CountAnd(const DenseBitmap& other) const;

 private:
  std::size_t ProbeScalar(const std::uint32_t* probe, std::size_t n,
                          std::uint32_t* out) const;
  std::size_t ProbeSwar(const std::uint32_t* probe, std::size_t n,
                        std::uint32_t* out) const;
#if defined(__AVX2__)
  std::size_t ProbeAvx2(const std::uint32_t* probe, std::size_t n,
                        std::uint32_t* out) const;
#endif

  friend struct Kernels;

  std::vector<std::uint64_t> words_;
  std::uint32_t base_ = 0;   // value of bit 0
  std::uint64_t span_ = 0;   // number of addressable positions
  std::size_t count_ = 0;    // values rasterized
};

/// One variant's merge and bitmap-probe kernels, resolved once so a hot loop
/// calls them directly: no policy read and no shared counter per call. Such
/// a loop reports its calls with CountInvocations(variant, n) when done.
struct Kernels {
  KernelVariant variant;
  IntersectStats (*intersect)(const std::uint32_t* a, std::size_t na,
                              const std::uint32_t* b, std::size_t nb,
                              std::uint32_t* out);
  std::size_t (DenseBitmap::*probe)(const std::uint32_t* probe, std::size_t n,
                                    std::uint32_t* out) const;

  /// `v`'s kernels (`v` as ActiveVariant resolves it: kAvx2 only when
  /// AVX2 is available).
  static Kernels For(KernelVariant v);
};

/// Population count over a word array — scalar builtin, SWAR bit-slicing,
/// or AVX2 nibble-LUT (pshufb) per the active variant. Exposed for the
/// harness and benches; CountAnd uses it internally.
std::uint64_t PopcountWords(const std::uint64_t* w, std::size_t n);

// ---------------------------------------------------------------------------
// Open-addressed probe batch (the FlatVertexMap hot loop).

/// Batched lookups against core's FlatVertexMap layout: linear probing over
/// power-of-two tables keyed by `key * 0x9E3779B1 & mask`, empty slots
/// marked by vals[i] == 0xFFFFFFFF. Writes the payload (or the empty
/// sentinel) for each query. The vectorized variants resolve the common
/// first-slot hit 8 (AVX2) or 4 (SWAR) probes at a time and fall back to
/// the scalar walk on collisions; results are identical to per-query Get.
void ProbeFlatMapU32(const std::uint32_t* keys, const std::uint32_t* vals,
                     std::uint32_t mask, const std::uint32_t* queries,
                     std::size_t n, std::uint32_t* out);

}  // namespace trienum::simd

#endif  // TRIENUM_SIMD_INTERSECT_H_
