// Kernels-on vs kernels-off differential: the hard contract of the simd
// subsystem is that kernel choice is invisible to everything the I/O model
// observes. For every registered algorithm, across storage backends and
// scan modes, a run under the vectorized policies (kSwar, kAuto, and a
// forced kAvx2 request) must reproduce the scalar-policy run byte-for-byte: the same triangles IN THE SAME EMISSION ORDER, identical
// IoStats (block reads, block writes AND cache hits), and an identical
// host work counter. The invocation counters additionally prove the
// vectorized runs actually exercised the kernels — the equalities are not
// vacuous.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/clique4.h"
#include "em/cache.h"
#include "em/context.h"
#include "graph/generators.h"
#include "simd/kernel_policy.h"
#include "test_util.h"

namespace trienum {
namespace {

using simd::KernelMode;
using simd::KernelVariant;

const char* const kAllAlgorithms[] = {
    "ps-cache-aware", "ps-cache-oblivious", "ps-deterministic", "mgt",
    "dementiev",      "edge-iterator",      "chu-cheng",        "bnl"};

struct KernelRun {
  std::vector<graph::Triangle> triangles;  // in EMISSION order
  em::IoStats io;
  std::uint64_t work = 0;
};

KernelRun RunWithMode(const std::string& algo,
                      const std::vector<graph::Edge>& raw, KernelMode kmode,
                      em::StorageKind storage, em::ScanMode smode) {
  simd::ScopedKernelMode kscope(kmode);
  em::ScopedScanMode mscope(smode);
  em::Context ctx = test::MakeContext(1 << 11, 32, 0x7001, storage);
  graph::EmGraph g = graph::BuildEmGraph(ctx, raw);
  ctx.cache().Reset();
  ctx.ResetWork();
  core::CollectingSink sink;
  const core::AlgorithmInfo* info = core::FindAlgorithm(algo);
  EXPECT_NE(info, nullptr) << algo;
  info->run(ctx, g, sink);
  ctx.cache().FlushAll();
  KernelRun out;
  out.triangles = sink.triangles();
  out.io = ctx.cache().stats();
  out.work = ctx.work();
  return out;
}

void ExpectIdentical(const KernelRun& got, const KernelRun& base,
                     const std::string& label) {
  ASSERT_EQ(got.triangles, base.triangles) << label;
  EXPECT_EQ(got.io.block_reads, base.io.block_reads) << label;
  EXPECT_EQ(got.io.block_writes, base.io.block_writes) << label;
  EXPECT_EQ(got.io.cache_hits, base.io.cache_hits) << label;
  EXPECT_EQ(got.work, base.work) << label;
}

TEST(SimdInvariance, EveryAlgorithmAcrossBackendsAndScanModes) {
  // The backend x scan-mode plane under every kernel policy.
  const std::vector<graph::Edge> raw =
      graph::Rmat(9, 1200, 0.45, 0.22, 0.22, 31);
  const em::StorageKind backends[] = {em::StorageKind::kMemory,
                                      em::StorageKind::kFile};
  const em::ScanMode smodes[] = {em::ScanMode::kBuffered,
                                 em::ScanMode::kElementwise};
  for (const char* algo : kAllAlgorithms) {
    for (em::StorageKind storage : backends) {
      for (em::ScanMode smode : smodes) {
        const KernelRun base =
            RunWithMode(algo, raw, KernelMode::kScalar, storage, smode);
        ASSERT_FALSE(base.triangles.empty()) << algo;
        for (KernelMode kmode : {KernelMode::kSwar, KernelMode::kAuto}) {
          const KernelRun got =
              RunWithMode(algo, raw, kmode, storage, smode);
          ExpectIdentical(
              got, base,
              std::string(algo) + " kernels=" + simd::KernelModeName(kmode) +
                  (storage == em::StorageKind::kFile ? " file" : " memory") +
                  (smode == em::ScanMode::kElementwise ? " elementwise"
                                                       : " buffered"));
        }
      }
    }
  }
}

TEST(SimdInvariance, ForcedAvx2RequestMatchesScalarEverywhere) {
  // A kAvx2 request runs AVX2 where available and degrades to SWAR
  // elsewhere — either way the run must equal the scalar baseline, which
  // is exactly why test matrices may request every mode unconditionally.
  const std::vector<graph::Edge> raw = graph::Gnm(200, 900, 47);
  for (const char* algo : {"mgt", "ps-cache-aware", "edge-iterator"}) {
    const KernelRun base =
        RunWithMode(algo, raw, KernelMode::kScalar, em::StorageKind::kMemory,
                    em::ScanMode::kBuffered);
    const KernelRun got =
        RunWithMode(algo, raw, KernelMode::kAvx2, em::StorageKind::kMemory,
                    em::ScanMode::kBuffered);
    ExpectIdentical(got, base, std::string(algo) + " kernels=avx2(forced)");
  }
}

TEST(SimdInvariance, VectorizedRunsActuallyEnterTheKernels) {
  // Guard against the suite passing vacuously: a kAuto mgt run must
  // service kernel calls on the resolved vectorized variant, and a kScalar
  // run must keep the vectorized counters at zero.
  const std::vector<graph::Edge> raw = graph::Clique(24);
  simd::ResetInvocationCounters();
  RunWithMode("mgt", raw, KernelMode::kAuto, em::StorageKind::kMemory,
              em::ScanMode::kBuffered);
  const KernelVariant resolved =
      simd::Avx2Available() ? KernelVariant::kAvx2 : KernelVariant::kSwar;
  EXPECT_GT(simd::Invocations(resolved), 0u);
  EXPECT_EQ(simd::Invocations(KernelVariant::kScalar), 0u);

  simd::ResetInvocationCounters();
  RunWithMode("mgt", raw, KernelMode::kScalar, em::StorageKind::kMemory,
              em::ScanMode::kBuffered);
  EXPECT_GT(simd::Invocations(KernelVariant::kScalar), 0u);
  EXPECT_EQ(simd::Invocations(KernelVariant::kSwar), 0u);
  EXPECT_EQ(simd::Invocations(KernelVariant::kAvx2), 0u);
}

TEST(SimdInvariance, DenseHubDrivesTheBitmapRegimeToTheSameAnswer) {
  // A clique pushes Gamma_3 into the dense-bitmap regime (size >= 64,
  // unit-stride span); the regime choice must be as invisible as the
  // variant choice.
  const std::vector<graph::Edge> raw = graph::Clique(80);
  const KernelRun base =
      RunWithMode("mgt", raw, KernelMode::kScalar, em::StorageKind::kMemory,
                  em::ScanMode::kBuffered);
  ASSERT_EQ(base.triangles.size(), 80u * 79u * 78u / 6u);
  for (KernelMode kmode : {KernelMode::kSwar, KernelMode::kAuto}) {
    const KernelRun got = RunWithMode("mgt", raw, kmode,
                                      em::StorageKind::kMemory,
                                      em::ScanMode::kBuffered);
    ExpectIdentical(got, base, std::string("dense hub kernels=") +
                                   simd::KernelModeName(kmode));
  }
}

TEST(SimdInvariance, Clique4JoinIsKernelPolicyInvariant) {
  // The 4-clique wedge join's flat-set membership batches.
  const std::vector<graph::Edge> raw = graph::CliqueUnion(4, 9);
  auto run = [&](KernelMode kmode) {
    simd::ScopedKernelMode kscope(kmode);
    em::Context ctx = test::MakeContext(1 << 11, 32);
    graph::EmGraph g = graph::BuildEmGraph(ctx, raw);
    ctx.cache().Reset();
    core::CollectingCliqueSink sink;
    core::EnumerateFourCliques(ctx, g, sink);
    ctx.cache().FlushAll();
    return std::make_pair(sink.cliques(), ctx.cache().stats());
  };
  const auto [base_quads, base_io] = run(KernelMode::kScalar);
  EXPECT_FALSE(base_quads.empty());
  for (KernelMode kmode : {KernelMode::kSwar, KernelMode::kAuto}) {
    const auto [quads, io] = run(kmode);
    const std::string label =
        std::string("clique4 kernels=") + simd::KernelModeName(kmode);
    EXPECT_EQ(quads, base_quads) << label;
    EXPECT_EQ(io.block_reads, base_io.block_reads) << label;
    EXPECT_EQ(io.block_writes, base_io.block_writes) << label;
    EXPECT_EQ(io.cache_hits, base_io.cache_hits) << label;
  }
}

}  // namespace
}  // namespace trienum
