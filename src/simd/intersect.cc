#include "simd/intersect.h"

#include <algorithm>
#include <array>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace trienum::simd {
namespace {

constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;
constexpr std::uint32_t kFlatMapHashMul = 0x9E3779B1u;

/// Scalar two-pointer from an arbitrary intermediate state — the shared
/// tail of every merge variant, and (from (0, 0)) the reference itself.
IntersectStats ScalarMergeFrom(const std::uint32_t* a, std::size_t na,
                               const std::uint32_t* b, std::size_t nb,
                               std::size_t i, std::size_t j, std::size_t m,
                               std::uint32_t* out) {
  while (i < na && j < nb) {
    const std::uint32_t x = a[i], y = b[j];
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      out[m++] = x;
      ++i;
      ++j;
    }
  }
  return IntersectStats{m, i, j};
}

/// The scalar two-pointer's termination state, in closed form: the side
/// with the smaller maximum exhausts, having consumed the other side up to
/// (and including) that maximum. The blocked kernels advance whole quads /
/// octets and so land past the scalar loop's exact stop point on one side
/// while still short on the other; matches are unaffected (discarded values
/// cannot match), and the consumed counts are reconstructed here.
IntersectStats FinishStats(const std::uint32_t* a, std::size_t na,
                           const std::uint32_t* b, std::size_t nb,
                           std::size_t m) {
  if (na == 0 || nb == 0) return IntersectStats{m, 0, 0};
  const std::uint32_t amax = a[na - 1], bmax = b[nb - 1];
  if (amax < bmax) {
    const std::size_t cb =
        static_cast<std::size_t>(std::upper_bound(b, b + nb, amax) - b);
    return IntersectStats{m, na, cb};
  }
  if (bmax < amax) {
    const std::size_t ca =
        static_cast<std::size_t>(std::upper_bound(a, a + na, bmax) - a);
    return IntersectStats{m, ca, nb};
  }
  return IntersectStats{m, na, nb};
}

/// High bit of each 32-bit half set if that half of `v` is zero. Borrow
/// from the low half can set the high half's bit spuriously (classic SWAR
/// caveat), so this is a no-false-negative *filter*: a set bit demands an
/// exact check, a clear word guarantees no match.
inline std::uint64_t ZeroHalves(std::uint64_t v) {
  return (v - 0x0000000100000001ull) & ~v & 0x8000000080000000ull;
}

inline std::uint64_t Pack2(const std::uint32_t* p) {
  return static_cast<std::uint64_t>(p[0]) |
         (static_cast<std::uint64_t>(p[1]) << 32);
}

#if defined(__AVX2__)
/// kCompact[mask] gathers the set lanes of an 8-lane vector to the front
/// (in lane order) under _mm256_permutevar8x32_epi32.
constexpr std::array<std::array<std::uint32_t, 8>, 256> MakeCompactTable() {
  std::array<std::array<std::uint32_t, 8>, 256> t{};
  for (int mask = 0; mask < 256; ++mask) {
    int k = 0;
    for (int lane = 0; lane < 8; ++lane) {
      if ((mask >> lane) & 1) {
        t[static_cast<std::size_t>(mask)][static_cast<std::size_t>(k++)] =
            static_cast<std::uint32_t>(lane);
      }
    }
  }
  return t;
}
constexpr auto kCompact = MakeCompactTable();
#endif  // __AVX2__

std::uint64_t PopcountScalar(const std::uint64_t* w, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::uint64_t>(__builtin_popcountll(w[i]));
  }
  return total;
}

/// Bit-sliced 64-bit popcount (Hacker's Delight) — the portable vectorized
/// variant: every instruction operates on all 64 bit positions at once.
inline std::uint64_t Popcount64Swar(std::uint64_t v) {
  v = v - ((v >> 1) & 0x5555555555555555ull);
  v = (v & 0x3333333333333333ull) + ((v >> 2) & 0x3333333333333333ull);
  v = (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return (v * 0x0101010101010101ull) >> 56;
}

std::uint64_t PopcountSwar(const std::uint64_t* w, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += Popcount64Swar(w[i]);
  return total;
}

#if defined(__AVX2__)
/// Nibble-LUT popcount: pshufb maps each nibble to its population, psadbw
/// horizontally sums bytes into 64-bit lanes.
std::uint64_t PopcountAvx2(const std::uint64_t* w, std::size_t n) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low4 = _mm256_set1_epi8(0x0F);
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (; i < n4; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    const __m256i lo = _mm256_and_si256(v, low4);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low4);
    const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                        _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, _mm256_setzero_si256()));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) {
    total += static_cast<std::uint64_t>(__builtin_popcountll(w[i]));
  }
  return total;
}
#endif  // __AVX2__

std::uint32_t WalkFlatMap(const std::uint32_t* keys, const std::uint32_t* vals,
                          std::uint32_t mask, std::uint32_t q) {
  std::uint32_t i = (q * kFlatMapHashMul) & mask;
  while (vals[i] != kEmptySlot) {
    if (keys[i] == q) return vals[i];
    i = (i + 1) & mask;
  }
  return kEmptySlot;
}

}  // namespace

// ---------------------------------------------------------------------------
// Merge regime.

namespace internal {

IntersectStats IntersectScalar(const std::uint32_t* a, std::size_t na,
                               const std::uint32_t* b, std::size_t nb,
                               std::uint32_t* out) {
  return ScalarMergeFrom(a, na, b, nb, 0, 0, 0, out);
}

IntersectStats IntersectSwar(const std::uint32_t* a, std::size_t na,
                             const std::uint32_t* b, std::size_t nb,
                             std::uint32_t* out) {
  std::size_t i = 0, j = 0, m = 0;
  // 4x4 block merge: all pairs of one a-quad against one b-quad are tested
  // with two packed XOR + zero-half filters per a value, then the quad
  // whose max is smaller advances. Discarded values can no longer match
  // (strictly increasing inputs), so the blocks converge on the scalar
  // loop's exact endpoint; the scalar tail finishes from there.
  while (i + 4 <= na && j + 4 <= nb) {
    const std::uint64_t b01 = Pack2(b + j);
    const std::uint64_t b23 = Pack2(b + j + 2);
    for (int k = 0; k < 4; ++k) {
      const std::uint32_t x = a[i + static_cast<std::size_t>(k)];
      const std::uint64_t xx = x * 0x0000000100000001ull;
      if ((ZeroHalves(xx ^ b01) | ZeroHalves(xx ^ b23)) != 0) {
        // The filter admits rare borrow artifacts; confirm exactly.
        if (x == b[j] || x == b[j + 1] || x == b[j + 2] || x == b[j + 3]) {
          out[m++] = x;
        }
      }
    }
    const std::uint32_t amax = a[i + 3], bmax = b[j + 3];
    if (amax < bmax) {
      i += 4;
    } else if (bmax < amax) {
      j += 4;
    } else {
      i += 4;
      j += 4;
    }
  }
  const IntersectStats tail = ScalarMergeFrom(a, na, b, nb, i, j, m, out);
  return FinishStats(a, na, b, nb, tail.matches);
}

#if defined(__AVX2__)
IntersectStats IntersectAvx2(const std::uint32_t* a, std::size_t na,
                             const std::uint32_t* b, std::size_t nb,
                             std::uint32_t* out) {
  std::size_t i = 0, j = 0, m = 0;
  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  // 8x8 block merge: eight cyclic rotations of the b-block cover all 64
  // pairs; matched a-lanes are compacted front-ward in lane (= ascending)
  // order through the mask-indexed permute table.
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    __m256i eq = _mm256_cmpeq_epi32(va, vb);
    for (int r = 1; r < 8; ++r) {
      vb = _mm256_permutevar8x32_epi32(vb, rot1);
      eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(va, vb));
    }
    const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(eq));
    if (mask != 0) {
      const __m256i shuf = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          kCompact[static_cast<std::size_t>(mask)].data()));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + m),
                          _mm256_permutevar8x32_epi32(va, shuf));
      m += static_cast<std::size_t>(
          __builtin_popcount(static_cast<unsigned>(mask)));
    }
    const std::uint32_t amax = a[i + 7], bmax = b[j + 7];
    if (amax < bmax) {
      i += 8;
    } else if (bmax < amax) {
      j += 8;
    } else {
      i += 8;
      j += 8;
    }
  }
  const IntersectStats tail = ScalarMergeFrom(a, na, b, nb, i, j, m, out);
  return FinishStats(a, na, b, nb, tail.matches);
}
#endif  // __AVX2__

}  // namespace internal

IntersectStats IntersectSorted(const std::uint32_t* a, std::size_t na,
                               const std::uint32_t* b, std::size_t nb,
                               std::uint32_t* out) {
  const Kernels k = Kernels::For(ActiveVariant());
  CountInvocation(k.variant);
  return k.intersect(a, na, b, nb, out);
}

// ---------------------------------------------------------------------------
// Dense regime.

void DenseBitmap::Build(const std::uint32_t* values, std::size_t n) {
  base_ = values[0];
  span_ = static_cast<std::uint64_t>(values[n - 1]) - base_ + 1;
  count_ = n;
  words_.assign(static_cast<std::size_t>((span_ + 63) >> 6), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t off = values[i] - static_cast<std::uint64_t>(base_);
    words_[static_cast<std::size_t>(off >> 6)] |= std::uint64_t{1}
                                                  << (off & 63);
  }
}

std::size_t DenseBitmap::ProbeScalar(const std::uint32_t* probe, std::size_t n,
                                     std::uint32_t* out) const {
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (Test(probe[i])) out[m++] = probe[i];
  }
  return m;
}

std::size_t DenseBitmap::ProbeSwar(const std::uint32_t* probe, std::size_t n,
                                   std::uint32_t* out) const {
  std::size_t m = 0;
  std::size_t i = 0;
  // Branchless 4-wide: the membership bit advances the cursor, the value is
  // written unconditionally (callers provide kOutSlack of scribble room).
  for (; i + 4 <= n; i += 4) {
    for (int k = 0; k < 4; ++k) {
      const std::uint32_t p = probe[i + static_cast<std::size_t>(k)];
      const std::uint64_t off = static_cast<std::uint64_t>(p) - base_;
      const bool in = off < span_;
      const std::uint64_t word = words_[in ? (off >> 6) : 0];
      const std::uint64_t hit = in ? (word >> (off & 63)) & 1u : 0u;
      out[m] = p;
      m += static_cast<std::size_t>(hit);
    }
  }
  for (; i < n; ++i) {
    if (Test(probe[i])) out[m++] = probe[i];
  }
  return m;
}

#if defined(__AVX2__)
std::size_t DenseBitmap::ProbeAvx2(const std::uint32_t* probe, std::size_t n,
                                   std::uint32_t* out) const {
  // Gathers one 32-bit bitmap word per probe lane and extracts its bit with
  // a variable shift; matched lanes compact through the permute table. The
  // u32 word view is the little-endian reinterpretation of words_, so bit
  // (off & 31) of word (off >> 5) is exactly bit (off & 63) of the 64-bit
  // word — spans above 2^31 fall back to the SWAR path.
  if (span_ > (std::uint64_t{1} << 31)) return ProbeSwar(probe, n, out);
  const int* words32 = reinterpret_cast<const int*>(words_.data());
  const __m256i basev = _mm256_set1_epi32(static_cast<int>(base_));
  const __m256i signflip = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i spans = _mm256_set1_epi32(
      static_cast<int>(static_cast<std::uint32_t>(span_) ^ 0x80000000u));
  const __m256i low5 = _mm256_set1_epi32(31);
  const __m256i one = _mm256_set1_epi32(1);
  std::size_t m = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i pv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(probe + i));
    const __m256i off = _mm256_sub_epi32(pv, basev);
    const __m256i in =
        _mm256_cmpgt_epi32(spans, _mm256_xor_si256(off, signflip));
    const __m256i idx =
        _mm256_and_si256(_mm256_srli_epi32(off, 5), in);  // clamp OOR to 0
    const __m256i words = _mm256_i32gather_epi32(words32, idx, 4);
    const __m256i bit = _mm256_and_si256(
        _mm256_srlv_epi32(words, _mm256_and_si256(off, low5)), one);
    const __m256i hit = _mm256_and_si256(_mm256_cmpeq_epi32(bit, one), in);
    const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(hit));
    if (mask != 0) {
      const __m256i shuf = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          kCompact[static_cast<std::size_t>(mask)].data()));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + m),
                          _mm256_permutevar8x32_epi32(pv, shuf));
      m += static_cast<std::size_t>(
          __builtin_popcount(static_cast<unsigned>(mask)));
    }
  }
  for (; i < n; ++i) {
    if (Test(probe[i])) out[m++] = probe[i];
  }
  return m;
}
#endif  // __AVX2__

std::size_t DenseBitmap::Probe(const std::uint32_t* probe, std::size_t n,
                               std::uint32_t* out) const {
  const Kernels k = Kernels::For(ActiveVariant());
  CountInvocation(k.variant);
  return (this->*k.probe)(probe, n, out);
}

Kernels Kernels::For(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar:
      return {v, internal::IntersectScalar, &DenseBitmap::ProbeScalar};
    case KernelVariant::kAvx2:
#if defined(__AVX2__)
      return {v, internal::IntersectAvx2, &DenseBitmap::ProbeAvx2};
#else
      [[fallthrough]];  // unreachable: ActiveVariant gates on Avx2Available
#endif
    case KernelVariant::kSwar:
      return {KernelVariant::kSwar, internal::IntersectSwar,
              &DenseBitmap::ProbeSwar};
  }
  return {KernelVariant::kScalar, internal::IntersectScalar,
          &DenseBitmap::ProbeScalar};  // unreachable
}

std::uint64_t DenseBitmap::CountAnd(const DenseBitmap& other) const {
  if (!built() || !other.built()) return 0;
  const std::uint64_t lo =
      std::max<std::uint64_t>(base_, other.base_);
  const std::uint64_t hi = std::min<std::uint64_t>(base_ + span_,
                                                   other.base_ + other.span_);
  if (lo >= hi) return 0;
  // WordAt(v): the 64 bits covering values [v, v + 64) — two adjacent words
  // stitched with a shift when the bitmaps' bases are not 64-aligned to
  // each other.
  auto word_at = [](const DenseBitmap& bm, std::uint64_t v) {
    const std::uint64_t off = v - bm.base_;
    const std::size_t w = static_cast<std::size_t>(off >> 6);
    const unsigned shift = static_cast<unsigned>(off & 63);
    const std::uint64_t lo_word = w < bm.words_.size() ? bm.words_[w] : 0;
    if (shift == 0) return lo_word;
    const std::uint64_t hi_word =
        w + 1 < bm.words_.size() ? bm.words_[w + 1] : 0;
    return (lo_word >> shift) | (hi_word << (64 - shift));
  };
  // Chunked materialize-then-popcount, so the AND'd words flow through the
  // vectorized PopcountWords kernel.
  constexpr std::size_t kChunkWords = 256;
  std::uint64_t chunk[kChunkWords];
  std::uint64_t total = 0;
  std::size_t filled = 0;
  for (std::uint64_t v = lo; v < hi; v += 64) {
    std::uint64_t x = word_at(*this, v) & word_at(other, v);
    if (hi - v < 64) {
      x &= (std::uint64_t{1} << (hi - v)) - 1;
    }
    chunk[filled++] = x;
    if (filled == kChunkWords) {
      total += PopcountWords(chunk, filled);
      filled = 0;
    }
  }
  if (filled != 0) total += PopcountWords(chunk, filled);
  return total;
}

std::uint64_t PopcountWords(const std::uint64_t* w, std::size_t n) {
  const KernelVariant v = ActiveVariant();
  CountInvocation(v);
  switch (v) {
    case KernelVariant::kScalar:
      return PopcountScalar(w, n);
    case KernelVariant::kAvx2:
#if defined(__AVX2__)
      return PopcountAvx2(w, n);
#else
      [[fallthrough]];
#endif
    case KernelVariant::kSwar:
      return PopcountSwar(w, n);
  }
  return PopcountScalar(w, n);  // unreachable
}

// ---------------------------------------------------------------------------
// Flat-map probe batches.

namespace {

void ProbeFlatMapScalar(const std::uint32_t* keys, const std::uint32_t* vals,
                        std::uint32_t mask, const std::uint32_t* queries,
                        std::size_t n, std::uint32_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = WalkFlatMap(keys, vals, mask, queries[i]);
  }
}

void ProbeFlatMapSwar(const std::uint32_t* keys, const std::uint32_t* vals,
                      std::uint32_t mask, const std::uint32_t* queries,
                      std::size_t n, std::uint32_t* out) {
  std::size_t i = 0;
  // 4-wide software pipeline: all four hashes are computed before any table
  // load, so the (usually cache-missing) slot reads overlap. The common
  // first-slot outcome (empty, or an immediate key hit) resolves inline;
  // collisions take the scalar walk.
  for (; i + 4 <= n; i += 4) {
    std::uint32_t h[4];
    for (int k = 0; k < 4; ++k) {
      h[k] = (queries[i + static_cast<std::size_t>(k)] * kFlatMapHashMul) &
             mask;
    }
    for (int k = 0; k < 4; ++k) {
      const std::size_t qi = i + static_cast<std::size_t>(k);
      const std::uint32_t q = queries[qi];
      const std::uint32_t v = vals[h[k]];
      if (v == kEmptySlot) {
        out[qi] = kEmptySlot;
      } else if (keys[h[k]] == q) {
        out[qi] = v;
      } else {
        out[qi] = WalkFlatMap(keys, vals, mask, q);
      }
    }
  }
  for (; i < n; ++i) out[i] = WalkFlatMap(keys, vals, mask, queries[i]);
}

#if defined(__AVX2__)
void ProbeFlatMapAvx2(const std::uint32_t* keys, const std::uint32_t* vals,
                      std::uint32_t mask, const std::uint32_t* queries,
                      std::size_t n, std::uint32_t* out) {
  const __m256i maskv = _mm256_set1_epi32(static_cast<int>(mask));
  const __m256i mulv = _mm256_set1_epi32(static_cast<int>(kFlatMapHashMul));
  const __m256i emptyv = _mm256_set1_epi32(static_cast<int>(kEmptySlot));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i qv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(queries + i));
    const __m256i h =
        _mm256_and_si256(_mm256_mullo_epi32(qv, mulv), maskv);
    const __m256i vg = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(vals), h, 4);
    const __m256i kg = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(keys), h, 4);
    const __m256i empty = _mm256_cmpeq_epi32(vg, emptyv);
    const __m256i hit =
        _mm256_andnot_si256(empty, _mm256_cmpeq_epi32(kg, qv));
    // Empty slots answer kEmpty, first-slot hits answer their payload;
    // anything else (occupied with a different key) walks the chain.
    const __m256i res = _mm256_blendv_epi8(vg, emptyv, empty);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), res);
    const int resolved =
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_or_si256(empty, hit)));
    if (resolved != 0xFF) {
      unsigned pending = static_cast<unsigned>(~resolved) & 0xFFu;
      while (pending != 0) {
        const int lane = __builtin_ctz(pending);
        pending &= pending - 1;
        const std::size_t qi = i + static_cast<std::size_t>(lane);
        out[qi] = WalkFlatMap(keys, vals, mask, queries[qi]);
      }
    }
  }
  for (; i < n; ++i) out[i] = WalkFlatMap(keys, vals, mask, queries[i]);
}
#endif  // __AVX2__

}  // namespace

void ProbeFlatMapU32(const std::uint32_t* keys, const std::uint32_t* vals,
                     std::uint32_t mask, const std::uint32_t* queries,
                     std::size_t n, std::uint32_t* out) {
  const KernelVariant v = ActiveVariant();
  CountInvocation(v);
  switch (v) {
    case KernelVariant::kScalar:
      ProbeFlatMapScalar(keys, vals, mask, queries, n, out);
      return;
    case KernelVariant::kAvx2:
#if defined(__AVX2__)
      ProbeFlatMapAvx2(keys, vals, mask, queries, n, out);
      return;
#else
      [[fallthrough]];
#endif
    case KernelVariant::kSwar:
      ProbeFlatMapSwar(keys, vals, mask, queries, n, out);
      return;
  }
}

}  // namespace trienum::simd
