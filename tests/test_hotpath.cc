// The block-buffered hot path's contract (em/array.h):
//
//  1. Stream primitives (Scanner/Writer and everything built on them) charge
//     IoStats *bit-for-bit identical* to the element-wise reference path —
//     reads, writes AND hits — whenever the streams' working set fits in
//     internal memory (one line per active stream), which is every scan,
//     filter, copy and bounded-fan-in merge in the library.
//  2. Whole algorithms produce identical triangle sets in both modes on both
//     storage backends; their simulated I/O totals agree within a small band
//     (coalescing charges at line granularity coarsens LRU recency, so under
//     capacity pressure eviction victims — and therefore re-fetches — can
//     differ slightly; the EM model charges at block granularity, so both
//     are faithful accountings).
//  3. Memory and file backends stay bit-for-bit identical to each other in
//     either mode (the PR-2 guarantee, extended to the buffered path).
//  4. Cache line pinning: pinned lines are never evicted, pins nest, and
//     write-pinned data reaches the backend after unpin.
//  5. The line->slot map behaves identically in its dense and sparse
//     regimes, so file-backed devices far beyond the dense limit account
//     (and stage) exactly like small ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "em/array.h"
#include "em/cache.h"
#include "em/storage.h"
#include "extsort/ext_merge_sort.h"
#include "extsort/funnel_sort.h"
#include "extsort/scan_ops.h"
#include "test_util.h"

namespace trienum {
namespace {

using namespace trienum::graph;

bool SameStats(const em::IoStats& a, const em::IoStats& b) {
  return a.block_reads == b.block_reads && a.block_writes == b.block_writes &&
         a.cache_hits == b.cache_hits;
}

std::string StatsStr(const em::IoStats& s) {
  return "(r=" + std::to_string(s.block_reads) +
         " w=" + std::to_string(s.block_writes) +
         " h=" + std::to_string(s.cache_hits) + ")";
}

// ---------------------------------------------------------------------------
// 1. Stream-primitive exactness: run the same workload down both paths and
// require identical values and identical IoStats.

/// Three record shapes: one word packed, multi-word packed, and padded (the
/// tail word carries deterministic zero padding).
struct Rec3 {
  std::uint64_t a = 0, b = 0, c = 0;
  bool operator==(const Rec3& o) const { return a == o.a && b == o.b && c == o.c; }
};
struct PaddedRec {
  std::uint32_t x = 0, y = 0, z = 0;  // 12 bytes -> 2 words with padding
  bool operator==(const PaddedRec& o) const {
    return x == o.x && y == o.y && z == o.z;
  }
};

template <typename T, typename MakeT>
void StreamRoundTrip(em::ScanMode mode, em::StorageKind storage, std::size_t n,
                     std::size_t m_words, std::size_t b_words, MakeT make,
                     em::IoStats* out_stats, std::uint64_t* out_digest) {
  em::ScopedScanMode sm(mode);
  em::Context ctx = test::MakeContext(m_words, b_words, 0x5EED, storage);
  em::Array<T> a = ctx.Alloc<T>(n);
  em::Array<T> b = ctx.Alloc<T>(n);
  ctx.cache().Reset();

  {
    em::Writer<T> w(a);
    for (std::size_t i = 0; i < n; ++i) w.Push(make(i));
    w.Flush();
  }
  // Copy through a scanner with a Peek-before-Next consumer (the merge-join
  // access pattern), then scan once more accumulating a digest.
  {
    em::Scanner<T> in(a);
    em::Writer<T> w(b);
    while (in.HasNext()) {
      T peeked = in.Peek();
      T got = in.Next();
      EXPECT_TRUE(peeked == got);
      w.Push(got);
    }
    w.Flush();
  }
  std::uint64_t digest = 0;
  {
    em::Scanner<T> in(b);
    while (in.HasNext()) {
      T v = in.Next();
      unsigned char bytes[sizeof(T)];
      std::memcpy(bytes, &v, sizeof(T));
      for (unsigned char c : bytes) digest = digest * 1099511628211ULL + c;
    }
  }
  ctx.cache().FlushAll();
  *out_stats = ctx.cache().stats();
  *out_digest = digest;
}

template <typename T, typename MakeT>
void ExpectStreamParity(std::size_t n, std::size_t m_words, std::size_t b_words,
                        MakeT make) {
  for (em::StorageKind storage :
       {em::StorageKind::kMemory, em::StorageKind::kFile}) {
    em::IoStats se, sb;
    std::uint64_t de, db;
    StreamRoundTrip<T>(em::ScanMode::kElementwise, storage, n, m_words, b_words,
                       make, &se, &de);
    StreamRoundTrip<T>(em::ScanMode::kBuffered, storage, n, m_words, b_words,
                       make, &sb, &db);
    EXPECT_EQ(de, db) << "values diverged";
    EXPECT_TRUE(SameStats(se, sb))
        << "n=" << n << " M=" << m_words << " B=" << b_words
        << " elementwise=" << StatsStr(se) << " buffered=" << StatsStr(sb);
  }
}

TEST(HotPathStreams, ScanWriePeekParityOneWordRecords) {
  auto make = [](std::size_t i) { return std::uint64_t{i} * 0x9E3779B97F4A7C15ULL; };
  for (std::size_t n : {0ULL, 1ULL, 7ULL, 64ULL, 1000ULL, 4096ULL}) {
    ExpectStreamParity<std::uint64_t>(n, 1 << 10, 16, make);
  }
}

TEST(HotPathStreams, ParityMultiWordRecords) {
  auto make = [](std::size_t i) {
    return Rec3{i, i * 3 + 1, ~std::uint64_t{i}};
  };
  ExpectStreamParity<Rec3>(999, 1 << 10, 16, make);
}

TEST(HotPathStreams, ParityPaddedRecords) {
  auto make = [](std::size_t i) {
    return PaddedRec{static_cast<std::uint32_t>(i),
                     static_cast<std::uint32_t>(i * 7),
                     static_cast<std::uint32_t>(~i)};
  };
  ExpectStreamParity<PaddedRec>(777, 1 << 10, 16, make);
}

TEST(HotPathStreams, ParityWhenRecordsCrossLineBoundaries) {
  // 3-word records over B=16: records straddle lines every few records.
  auto make = [](std::size_t i) { return Rec3{i, i + 1, i + 2}; };
  for (std::size_t b : {8ULL, 16ULL, 31ULL}) {  // including non-power-of-two B
    ExpectStreamParity<Rec3>(500, 32 * b, b, make);
  }
}

// Scanner::TakeRun against the literal loop it stands for. Two grouped
// streams are consumed group by group, merge-style (the Lemma 2 cone scan's
// access pattern), with a Writer pushing one record between groups and a
// cache of a few lines, so the LRU order is under pressure throughout.
struct TakeRunOutcome {
  em::IoStats io;
  em::IoStats probe_io;
  std::size_t resident = 0;
  std::size_t probe_resident = 0;
  std::vector<std::size_t> run_lengths;
  std::uint64_t digest = 0;
};

template <typename T, typename MakeT, typename KeyT>
TakeRunOutcome DriveGroupedRuns(bool take_run, em::ScanMode mode,
                                em::StorageKind storage, std::size_t b_words,
                                bool probe, bool counting,
                                const std::vector<std::uint32_t> (&keys)[2],
                                MakeT make, KeyT key) {
  em::ScopedScanMode sm(mode);
  em::Context ctx = test::MakeContext(6 * b_words, b_words, 0x7A4E, storage);
  em::Array<T> in[2] = {ctx.Alloc<T>(keys[0].size()),
                        ctx.Alloc<T>(keys[1].size())};
  em::Array<std::uint64_t> out = ctx.Alloc<std::uint64_t>(
      keys[0].size() + keys[1].size());
  for (int s = 0; s < 2; ++s) {
    em::Writer<T> w(in[s]);
    for (std::size_t i = 0; i < keys[s].size(); ++i) {
      w.Push(make(keys[s][i], i));
    }
  }
  if (probe) ctx.AttachProbe(4 * b_words, std::max<std::size_t>(2, b_words / 3));
  ctx.cache().Reset();
  ctx.cache().set_counting(counting);

  TakeRunOutcome r;
  auto consume = [&](const T& rec) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &rec, sizeof(T));
    for (unsigned char c : bytes) r.digest = r.digest * 1099511628211ULL + c;
  };
  auto take = [&](em::Scanner<T>& sc, std::uint32_t k) {
    if (take_run) return sc.TakeRun(key, k, consume);
    std::size_t n = 0;
    for (; sc.HasNext() && key(sc.Peek()) == k; ++n) consume(sc.Next());
    return n;
  };
  {
    em::Scanner<T> sa(in[0]), sb(in[1]);
    em::Writer<std::uint64_t> w(out);
    while (sa.HasNext() || sb.HasNext()) {
      std::uint32_t k;
      if (!sa.HasNext()) {
        k = key(sb.Peek());
      } else if (!sb.HasNext()) {
        k = key(sa.Peek());
      } else {
        k = std::min(key(sa.Peek()), key(sb.Peek()));
      }
      r.run_lengths.push_back(take(sa, k));
      r.run_lengths.push_back(take(sb, k));
      w.Push(k);
    }
  }
  ctx.cache().set_counting(true);
  ctx.cache().FlushAll();
  r.io = ctx.cache().stats();
  r.resident = ctx.cache().resident_lines();
  if (probe) {
    r.probe_io = ctx.probe()->stats();
    r.probe_resident = ctx.probe()->resident_lines();
  }
  return r;
}

/// Grouped keys for `n` records of `w` words over B-word lines, with run
/// lengths of up to three lines' worth. Every third run is cut to end with
/// the last record that finishes in its line (the refill boundary of the
/// buffered Scanner); asserts that runs also end inside lines and cross
/// them.
std::vector<std::uint32_t> GroupedKeys(std::size_t n, std::size_t w,
                                       std::size_t b, std::uint64_t seed) {
  // Line holding the last word of record i.
  auto line_of = [&](std::size_t i) { return ((i + 1) * w - 1) / b; };
  SplitMix64 rng(seed);
  const std::size_t per_line = std::max<std::size_t>(1, b / w);
  std::vector<std::uint32_t> keys;
  std::uint32_t k = 0;
  bool at_line_end = false, inside_line = false, crosses_line = false;
  for (int run = 0; keys.size() < n; ++run) {
    const std::size_t first = keys.size();
    std::size_t last = first + rng.Next() % (3 * per_line);
    if (run % 3 == 0) {
      last = first;
      while (line_of(last + 1) == line_of(last)) ++last;
    }
    last = std::min(last, n - 1);
    k += 1 + static_cast<std::uint32_t>(rng.Next() % 3);  // keys skip values
    keys.insert(keys.end(), last - first + 1, k);
    const bool ends_line = line_of(last + 1) != line_of(last);
    at_line_end |= ends_line;
    inside_line |= !ends_line;
    crosses_line |= line_of(first) != line_of(last);
  }
  EXPECT_TRUE(at_line_end && inside_line && crosses_line)
      << "w=" << w << " B=" << b;
  return keys;
}

template <typename T, typename MakeT, typename KeyT>
void ExpectTakeRunParity(MakeT make, KeyT key) {
  constexpr std::size_t w = em::Array<T>::kWordsPer;
  for (std::size_t b : {8ULL, 16ULL, 31ULL}) {
    const std::vector<std::uint32_t> keys[2] = {GroupedKeys(700, w, b, b),
                                                GroupedKeys(500, w, b, b + 1)};
    for (em::StorageKind storage :
         {em::StorageKind::kMemory, em::StorageKind::kFile}) {
      for (em::ScanMode mode :
           {em::ScanMode::kBuffered, em::ScanMode::kElementwise}) {
        for (bool probe : {false, true}) {
          for (bool counting : {true, false}) {
            SCOPED_TRACE("w=" + std::to_string(w) + " B=" + std::to_string(b) +
                         (storage == em::StorageKind::kFile ? " file" : " mem") +
                         (mode == em::ScanMode::kBuffered ? " buffered"
                                                          : " elementwise") +
                         (probe ? " probe" : "") +
                         (counting ? "" : " counting-off"));
            const TakeRunOutcome want = DriveGroupedRuns<T>(
                false, mode, storage, b, probe, counting, keys, make, key);
            const TakeRunOutcome got = DriveGroupedRuns<T>(
                true, mode, storage, b, probe, counting, keys, make, key);
            EXPECT_EQ(got.run_lengths, want.run_lengths);
            EXPECT_EQ(got.digest, want.digest);
            EXPECT_TRUE(SameStats(got.io, want.io))
                << "literal=" << StatsStr(want.io)
                << " take_run=" << StatsStr(got.io);
            EXPECT_EQ(got.resident, want.resident);
            EXPECT_TRUE(SameStats(got.probe_io, want.probe_io))
                << "probe literal=" << StatsStr(want.probe_io)
                << " take_run=" << StatsStr(got.probe_io);
            EXPECT_EQ(got.probe_resident, want.probe_resident);
            if (counting) {
              EXPECT_GT(want.io.cache_hits, 0u);
            }
          }
        }
      }
    }
  }
}

TEST(HotPathStreams, TakeRunChargesLikePeekNextLoop) {
  ExpectTakeRunParity<std::uint64_t>(
      [](std::uint32_t k, std::size_t i) {
        return (std::uint64_t{k} << 32) | static_cast<std::uint32_t>(i);
      },
      [](std::uint64_t r) { return static_cast<std::uint32_t>(r >> 32); });
  ExpectTakeRunParity<Rec3>(
      [](std::uint32_t k, std::size_t i) { return Rec3{k, i, ~std::uint64_t{i}}; },
      [](const Rec3& r) { return static_cast<std::uint32_t>(r.a); });
  ExpectTakeRunParity<PaddedRec>(
      [](std::uint32_t k, std::size_t i) {
        return PaddedRec{k, static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(i * 7)};
      },
      [](const PaddedRec& r) { return r.x; });
}

TEST(HotPathStreams, ScanOpsChargeIdenticallyAcrossModes) {
  // Filter (aliasing, writes trail reads), Transform, UniqueConsecutive and
  // CountIf over both modes: same results, same IoStats. M is sized so the
  // aliasing filter's read-ahead/write-behind gap stays resident (exactness
  // is only promised without capacity pressure; the banded matrix test
  // below covers the pressured regime).
  auto workload = [](em::ScanMode mode, em::IoStats* stats) {
    em::ScopedScanMode sm(mode);
    em::Context ctx = test::MakeContext(1 << 13, 16);
    const std::size_t n = 3000;
    em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
    em::Array<std::uint64_t> b = ctx.Alloc<std::uint64_t>(n);
    ctx.cache().Reset();
    {
      em::Writer<std::uint64_t> w(a);
      for (std::size_t i = 0; i < n; ++i) w.Push((i * 37) % 501);
      w.Flush();
    }
    extsort::Transform(a, b, [](std::uint64_t v) { return v / 3; });
    std::size_t kept =
        extsort::Filter(b, b, [](std::uint64_t v) { return v % 2 == 0; });
    std::size_t uniq = extsort::UniqueConsecutive(
        b.Slice(0, kept), [](std::uint64_t x, std::uint64_t y) { return x == y; });
    std::size_t odd = extsort::CountIf(
        b.Slice(0, uniq), [](std::uint64_t v) { return v % 2 == 1; });
    EXPECT_EQ(odd, 0u);
    ctx.cache().FlushAll();
    *stats = ctx.cache().stats();
  };
  em::IoStats se, sb;
  workload(em::ScanMode::kElementwise, &se);
  workload(em::ScanMode::kBuffered, &sb);
  EXPECT_TRUE(SameStats(se, sb))
      << "elementwise=" << StatsStr(se) << " buffered=" << StatsStr(sb);
}

TEST(HotPathStreams, MergeSortParityAcrossModesAndBackends) {
  // Bounded-fan-in multiway merge: every stream owns one resident line, so
  // buffered and element-wise paths must agree exactly.
  for (em::StorageKind storage :
       {em::StorageKind::kMemory, em::StorageKind::kFile}) {
    em::IoStats stats[2];
    std::vector<std::uint64_t> sorted[2];
    int idx = 0;
    for (em::ScanMode mode :
         {em::ScanMode::kElementwise, em::ScanMode::kBuffered}) {
      em::ScopedScanMode sm(mode);
      em::Context ctx = test::MakeContext(1 << 10, 16, 0xABCD, storage);
      const std::size_t n = 5000;
      em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
      ctx.cache().Reset();
      SplitMix64 rng(99);
      {
        em::Writer<std::uint64_t> w(a);
        for (std::size_t i = 0; i < n; ++i) w.Push(rng.Next() % 100000);
        w.Flush();
      }
      extsort::ExternalMergeSort(ctx, a,
                                 [](std::uint64_t x, std::uint64_t y) { return x < y; });
      sorted[idx].resize(n);
      ctx.cache().set_counting(false);
      a.ReadTo(0, n, sorted[idx].data());
      ctx.cache().set_counting(true);
      ctx.cache().FlushAll();
      stats[idx] = ctx.cache().stats();
      ++idx;
    }
    EXPECT_EQ(sorted[0], sorted[1]);
    EXPECT_TRUE(std::is_sorted(sorted[1].begin(), sorted[1].end()));
    EXPECT_TRUE(SameStats(stats[0], stats[1]))
        << "elementwise=" << StatsStr(stats[0])
        << " buffered=" << StatsStr(stats[1]);
  }
}

TEST(HotPathStreams, CloneArrayCopiesChunkedAndExact) {
  em::Context ctx = test::MakeContext(1 << 10, 16);
  const std::size_t n = 2500;
  em::Array<Rec3> a = ctx.Alloc<Rec3>(n);
  for (std::size_t i = 0; i < n; ++i) a.Set(i, Rec3{i, i ^ 7, i * 11});
  ctx.cache().Reset();
  em::Array<Rec3> b = em::CloneArray(ctx, a);
  // Chunked DMA: one read + one write touch per covered line, so total block
  // I/Os are ~2n*w/B instead of the old per-record churn.
  const std::size_t lines = (n * 3 + 15) / 16;
  EXPECT_LE(ctx.cache().stats().total_ios(), 2 * lines + 4);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(a.Get(i) == b.Get(i)) << i;
  }
}

// ---------------------------------------------------------------------------
// 2+3. Whole-algorithm differential: modes x backends x specs.

struct AlgoRun {
  std::vector<Triangle> triangles;
  em::IoStats io;
};

AlgoRun RunAlgo(const std::string& algo, const std::vector<Edge>& raw,
                em::ScanMode mode, em::StorageKind storage, std::size_t m_words,
                std::size_t b_words) {
  em::ScopedScanMode sm(mode);
  em::Context ctx = test::MakeContext(m_words, b_words, 0xD1FF, storage);
  EmGraph g = BuildEmGraph(ctx, raw);
  ctx.cache().Reset();
  core::CollectingSink sink;
  core::FindAlgorithm(algo)->run(ctx, g, sink);
  ctx.cache().FlushAll();
  AlgoRun out;
  out.triangles = sink.triangles();
  std::sort(out.triangles.begin(), out.triangles.end());
  out.io = ctx.cache().stats();
  return out;
}

TEST(HotPathDifferential, AlgorithmMatrixModesAndBackends) {
  // Every registered algorithm on both backends, both scan modes. Triangle
  // sets must match exactly; mode-vs-mode simulated totals must stay inside
  // a 12% band (line-granular charging coarsens LRU recency under capacity
  // pressure; see the file comment); backend-vs-backend must be bit-for-bit
  // within each mode.
  struct Spec {
    std::string name;
    std::vector<Edge> edges;
  };
  std::vector<Spec> specs;
  specs.push_back({"gnm", Gnm(512, 2048, 7)});
  specs.push_back({"rmat", Rmat(9, 1500, 0.45, 0.22, 0.22, 13)});
  specs.push_back({"planted", PlantedTriangles(300, 600, 40, 99)});
  const std::size_t m = 1 << 10, b = 16;
  for (const Spec& spec : specs) {
    for (const core::AlgorithmInfo& a : core::AllAlgorithms()) {
      SCOPED_TRACE(spec.name + " / " + a.name);
      AlgoRun mem_e = RunAlgo(a.name, spec.edges, em::ScanMode::kElementwise,
                              em::StorageKind::kMemory, m, b);
      AlgoRun mem_b = RunAlgo(a.name, spec.edges, em::ScanMode::kBuffered,
                              em::StorageKind::kMemory, m, b);
      AlgoRun file_b = RunAlgo(a.name, spec.edges, em::ScanMode::kBuffered,
                               em::StorageKind::kFile, m, b);
      AlgoRun file_e = RunAlgo(a.name, spec.edges, em::ScanMode::kElementwise,
                               em::StorageKind::kFile, m, b);
      // Same triangles everywhere.
      EXPECT_EQ(mem_e.triangles, mem_b.triangles);
      EXPECT_EQ(mem_b.triangles, file_b.triangles);
      // Backend-independence is exact in both modes.
      EXPECT_TRUE(SameStats(mem_b.io, file_b.io))
          << "buffered mem=" << StatsStr(mem_b.io)
          << " file=" << StatsStr(file_b.io);
      EXPECT_TRUE(SameStats(mem_e.io, file_e.io))
          << "elementwise mem=" << StatsStr(mem_e.io)
          << " file=" << StatsStr(file_e.io);
      // Mode-vs-mode block totals within the band.
      double te = static_cast<double>(mem_e.io.total_ios());
      double tb = static_cast<double>(mem_b.io.total_ios());
      if (te > 0) {
        EXPECT_LE(std::abs(te - tb) / te, 0.12)
            << "elementwise=" << StatsStr(mem_e.io)
            << " buffered=" << StatsStr(mem_b.io);
      } else {
        EXPECT_EQ(te, tb);
      }
    }
  }
}

TEST(HotPathDifferential, StandardCasesProduceIdenticalTriangles) {
  // Cheap correctness sweep over the whole menagerie in buffered mode
  // against the host reference (the element-wise path is covered above).
  for (const test::GraphCase& gc : test::StandardGraphCases()) {
    std::vector<Triangle> want = test::ReferenceNormalized(gc.edges);
    for (const char* algo : {"ps-cache-aware", "ps-cache-oblivious", "mgt"}) {
      SCOPED_TRACE(gc.name + std::string(" / ") + algo);
      std::vector<Triangle> got = test::RunCollect(algo, gc.edges);
      EXPECT_EQ(want, got);
    }
  }
}

// ---------------------------------------------------------------------------
// 4. Pin/unpin invariants.

TEST(CachePinning, PinnedLineSurvivesCapacityPressure) {
  // Counting-only cache with 4 slots; pin one line, then touch far more
  // distinct lines than the cache holds. The pinned line must stay resident
  // (never chosen for eviction) the whole time.
  em::Cache cache(64, 16);  // 4 slots
  cache.Touch(0, /*write=*/false);
  std::int32_t slot = cache.Pin(0, /*write=*/false);
  for (em::Addr a = 16; a < 16 * 200; a += 16) {
    cache.Touch(a, /*write=*/false);
    ASSERT_TRUE(cache.IsResident(0)) << "pinned line evicted at line " << a / 16;
  }
  EXPECT_TRUE(cache.IsPinned(0));
  cache.Unpin(slot);
  EXPECT_FALSE(cache.IsPinned(0));
  // Now unpinned: enough fresh lines push it out.
  for (em::Addr a = 16 * 200; a < 16 * 300; a += 16) cache.Touch(a, false);
  EXPECT_FALSE(cache.IsResident(0));
}

TEST(CachePinning, PinsNest) {
  em::Cache cache(64, 16);
  std::int32_t s1 = cache.Pin(0, false);
  std::int32_t s2 = cache.Pin(5, false);  // same line (B=16)
  EXPECT_EQ(s1, s2);
  cache.Unpin(s1);
  EXPECT_TRUE(cache.IsPinned(0)) << "one unpin must not release a nested pin";
  cache.Unpin(s2);
  EXPECT_FALSE(cache.IsPinned(0));
}

TEST(CachePinning, WritePinnedDataReachesBackendAfterUnpin) {
  // Staged cache over a file backend: write through the pinned buffer, force
  // eviction after unpinning, and read the data back from the backend.
  em::FileBackend backend;
  backend.EnsureSize(16 * 64);
  em::Cache cache(64, 16, &backend);  // 4 slots, staged
  std::int32_t s = cache.Pin(32, /*write=*/true);
  em::Word* buf = cache.slot_buffer(s);
  for (std::size_t i = 0; i < 16; ++i) buf[i] = 0xC0FFEE00ULL + i;
  cache.Unpin(s);
  cache.FlushAll();  // dirty line written back
  std::vector<em::Word> got(16);
  backend.ReadWords(32, 16, got.data());
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(got[i], 0xC0FFEE00ULL + i) << i;
}

TEST(CachePinning, PinChargesLikeATouch) {
  em::Cache a(256, 16), b(256, 16);
  a.Touch(40, false);
  b.Pin(40, false);
  EXPECT_EQ(a.stats().block_reads, b.stats().block_reads);
  EXPECT_EQ(a.stats().cache_hits, b.stats().cache_hits);
  a.Touch(41, true);
  std::int32_t s = b.Pin(41, true);
  EXPECT_EQ(a.stats().block_reads, b.stats().block_reads);
  EXPECT_EQ(a.stats().cache_hits, b.stats().cache_hits);
  b.Unpin(s);
  // Unpin itself charges nothing.
  EXPECT_EQ(a.stats().cache_hits, b.stats().cache_hits);
}

TEST(CachePinning, ContextPinnedLineGivesWritableView) {
  // Memory backend: the pinned pointer is the device view itself.
  em::Context ctx = test::MakeContext(1 << 10, 16);
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(64);
  for (std::size_t i = 0; i < 64; ++i) a.Set(i, i);
  {
    em::PinnedLine pin = ctx.PinLine(a.AddrOf(16), /*write=*/true);
    EXPECT_EQ(pin.base(), a.AddrOf(16));
    EXPECT_EQ(pin.size_words(), 16u);
    ASSERT_NE(pin.data(), nullptr);
    pin.data()[0] = 4242;
  }
  EXPECT_EQ(a.Get(16), 4242u);

  // File backend: the pinned pointer is the staged line buffer, and edits
  // survive write-back.
  em::Context fctx = test::MakeFileContext(1 << 10, 16);
  em::Array<std::uint64_t> fa = fctx.Alloc<std::uint64_t>(64);
  for (std::size_t i = 0; i < 64; ++i) fa.Set(i, i);
  {
    em::PinnedLine pin = fctx.PinLine(fa.AddrOf(32), /*write=*/true);
    ASSERT_NE(pin.data(), nullptr);
    pin.data()[0] = 777;
  }
  fctx.cache().FlushAll();
  EXPECT_EQ(fa.Get(32), 777u);
}

// ---------------------------------------------------------------------------
// 5. LineMap dense/sparse regimes.

TEST(LineMapRegimes, SparseRegimeCountsExactlyLikeDense) {
  // The same (relative) touch sequence must produce identical IoStats
  // whether the lines sit below the dense limit or far above it.
  const std::size_t b = 16;
  const std::size_t dense_limit = 64;  // tiny, to force the sparse regime
  SplitMix64 rng(0x11AA);
  std::vector<std::pair<em::Addr, bool>> ops;
  for (int i = 0; i < 5000; ++i) {
    ops.emplace_back(rng.Next() % (b * 256), rng.Next() % 2 == 0);
  }
  em::IoStats stats[2];
  int idx = 0;
  for (em::Addr offset : {em::Addr{0}, em::Addr{b * dense_limit * 1000}}) {
    em::Cache cache(b * 8, b, nullptr, dense_limit);
    for (auto [addr, write] : ops) cache.Touch(addr + offset, write);
    cache.FlushAll();
    stats[idx++] = cache.stats();
  }
  EXPECT_TRUE(SameStats(stats[0], stats[1]))
      << "dense=" << StatsStr(stats[0]) << " sparse=" << StatsStr(stats[1]);
}

TEST(LineMapRegimes, FileBackendWorksBeyondDenseLimit) {
  // A staged device addressed far past the dense line-map limit: data stays
  // correct and host memory for the map is bounded by residency, not by the
  // device size (the sparse file makes the huge address range cheap).
  em::EmConfig cfg;
  cfg.memory_words = 1 << 8;
  cfg.block_words = 16;
  cfg.storage = em::StorageKind::kFile;
  cfg.line_map_dense_limit = 32;  // 32 lines = 512 words
  em::Context ctx(cfg);
  // Burn address space past the dense limit, then allocate out there.
  ctx.device().Allocate(1 << 20, 16);
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(4096);
  ASSERT_GT(a.base(), cfg.line_map_dense_limit * cfg.block_words);
  {
    em::Writer<std::uint64_t> w(a);
    for (std::size_t i = 0; i < 4096; ++i) w.Push(i * 3 + 1);
    w.Flush();
  }
  em::Scanner<std::uint64_t> in(a);
  std::size_t i = 0;
  while (in.HasNext()) {
    ASSERT_EQ(in.Next(), i * 3 + 1) << i;
    ++i;
  }
  ctx.cache().FlushAll();
  // One sequential write pass + one read pass at block granularity.
  const std::size_t lines = 4096 / 16;
  EXPECT_EQ(ctx.cache().stats().block_writes, lines);
  EXPECT_EQ(ctx.cache().stats().block_reads, lines);
}

TEST(LineMapRegimes, ScanChargesMatchElementwiseAtHugeAddresses) {
  // ScanRange vs per-record TouchRange on twin caches, randomized over
  // record sizes and spans, in the sparse regime.
  const std::size_t b = 16;
  SplitMix64 rng(0x77);
  em::Cache coalesced(b * 8, b, nullptr, /*dense_limit=*/16);
  em::Cache elementwise(b * 8, b, nullptr, /*dense_limit=*/16);
  const em::Addr base = em::Addr{1} << 40;
  for (int round = 0; round < 2000; ++round) {
    std::size_t elem_words = 1 + rng.Next() % 5;
    std::size_t count = 1 + rng.Next() % 40;
    em::Addr addr = base + (rng.Next() % (1 << 14));
    bool write = rng.Next() % 2 == 0;
    coalesced.ScanRange(addr, count * elem_words, elem_words, write);
    for (std::size_t i = 0; i < count; ++i) {
      elementwise.TouchRange(addr + i * elem_words, elem_words, write);
    }
    ASSERT_TRUE(SameStats(coalesced.stats(), elementwise.stats()))
        << "round " << round << " coalesced=" << StatsStr(coalesced.stats())
        << " elementwise=" << StatsStr(elementwise.stats());
  }
}

}  // namespace
}  // namespace trienum
