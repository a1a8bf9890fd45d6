// The staged cache's synchronous data path, observed at the backend: which
// ReadWords/WriteWords calls a counted miss, hit, write, eviction, uncounted
// bypass, Discard and a latched fault issue — and that every backend call,
// advice included, runs on the calling thread, so counted state is a pure
// function of the access sequence.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "em/array.h"
#include "em/cache.h"
#include "em/storage.h"
#include "test_util.h"

namespace trienum {
namespace {

using namespace trienum::graph;

enum class OpKind { kRead, kWrite, kAdvise };

struct Op {
  OpKind kind;
  em::Addr addr;
  std::size_t words;
  std::thread::id thread;
};

// Forwards to an inner backend and records every transfer and advice call.
// Reports memory_resident() == false, so a cache over it runs staged.
class RecordingBackend final : public em::StorageBackend {
 public:
  explicit RecordingBackend(std::unique_ptr<em::StorageBackend> inner =
                                std::make_unique<em::MemoryBackend>())
      : inner_(std::move(inner)) {}

  Status EnsureSize(std::size_t words) override {
    return inner_->EnsureSize(words);
  }
  std::size_t size_words() const override { return inner_->size_words(); }
  bool memory_resident() const override { return false; }
  Status ReadWords(em::Addr a, std::size_t w, em::Word* out) override {
    ops_.push_back(Op{OpKind::kRead, a, w, std::this_thread::get_id()});
    if (fail_reads_) return Status::IoError("injected read failure");
    return inner_->ReadWords(a, w, out);
  }
  Status WriteWords(em::Addr a, std::size_t w, const em::Word* in) override {
    ops_.push_back(Op{OpKind::kWrite, a, w, std::this_thread::get_id()});
    return inner_->WriteWords(a, w, in);
  }
  void Advise(em::Addr a, std::size_t w, em::AdviseKind kind) override {
    ops_.push_back(Op{OpKind::kAdvise, a, w, std::this_thread::get_id()});
    (kind == em::AdviseKind::kSequentialRead ? read_advice_ : write_advice_)++;
    inner_->Advise(a, w, kind);
  }
  Status init_status() const override { return inner_->init_status(); }
  const em::StorageTelemetry& telemetry() const override {
    return inner_->telemetry();
  }
  const char* name() const override { return "recording"; }

  em::StorageBackend& inner() { return *inner_; }
  const std::vector<Op>& ops() const { return ops_; }
  void ClearOps() { ops_.clear(); }
  void set_fail_reads(bool on) { fail_reads_ = on; }
  std::size_t read_advice() const { return read_advice_; }
  std::size_t write_advice() const { return write_advice_; }

 private:
  std::unique_ptr<em::StorageBackend> inner_;
  std::vector<Op> ops_;
  bool fail_reads_ = false;
  std::size_t read_advice_ = 0;
  std::size_t write_advice_ = 0;
};

// M = 32, B = 8: four line slots.
constexpr std::size_t kM = 32;
constexpr std::size_t kB = 8;

std::vector<em::Word> PatternWords(std::size_t n) {
  std::vector<em::Word> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i * 0x9E3779B97F4A7C15ULL + 1;
  return v;
}

// A recording backend preloaded with PatternWords(words) (not recorded).
struct Fixture {
  RecordingBackend backend;
  std::vector<em::Word> data;
  em::Cache cache{kM, kB, &backend};

  explicit Fixture(std::size_t words = 16 * kB) : data(PatternWords(words)) {
    EXPECT_TRUE(backend.inner().WriteWords(0, words, data.data()).ok());
  }
  em::Word ReadOne(em::Addr a) {
    em::Word w = 0;
    cache.ReadRange(a, 1, &w);
    return w;
  }
  em::Word BackendWord(em::Addr a) {
    em::Word w = 0;
    EXPECT_TRUE(backend.inner().ReadWords(a, 1, &w).ok());
    return w;
  }
};

void ExpectOp(const Op& op, OpKind kind, em::Addr addr, std::size_t words) {
  EXPECT_EQ(op.kind, kind);
  EXPECT_EQ(op.addr, addr);
  EXPECT_EQ(op.words, words);
}

TEST(StagedCache, MissFetchesOneWholeLineFromTheBackend) {
  Fixture f;
  std::vector<em::Word> out(3);
  f.cache.ReadRange(11, 3, out.data());
  ASSERT_EQ(f.backend.ops().size(), 1u);
  ExpectOp(f.backend.ops()[0], OpKind::kRead, kB, kB);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], f.data[11 + i]);
  EXPECT_EQ(f.cache.stats().block_reads, 1u);
}

TEST(StagedCache, ResidentLineIsServedWithoutBackendCalls) {
  Fixture f;
  (void)f.ReadOne(kB);
  f.backend.ClearOps();
  const std::uint64_t hits = f.cache.stats().cache_hits;
  for (em::Addr a = kB; a < 2 * kB; ++a) EXPECT_EQ(f.ReadOne(a), f.data[a]);
  f.cache.TouchRange(kB + 3, 2, /*write=*/false);
  EXPECT_TRUE(f.backend.ops().empty());
  EXPECT_EQ(f.cache.stats().block_reads, 1u);
  EXPECT_EQ(f.cache.stats().cache_hits, hits + kB + 1);
}

TEST(StagedCache, FullLineWriteSkipsTheFetchAndPartialWriteLoadsTheLine) {
  Fixture f;
  const std::vector<em::Word> fresh(kB, 0xABCD);
  f.cache.WriteRange(2 * kB, kB, fresh.data());
  EXPECT_TRUE(f.backend.ops().empty());
  EXPECT_EQ(f.cache.stats().block_reads, 0u);

  // Mid-line write: fetched and charged a read.
  f.cache.WriteRange(3 * kB + 2, 2, fresh.data());
  ASSERT_EQ(f.backend.ops().size(), 1u);
  ExpectOp(f.backend.ops()[0], OpKind::kRead, 3 * kB, kB);
  EXPECT_EQ(f.cache.stats().block_reads, 1u);

  // Line-aligned partial write: fetched (its tail must survive write-back)
  // but not charged, exactly as the model's write-allocate rule says.
  f.backend.ClearOps();
  f.cache.WriteRange(4 * kB, 3, fresh.data());
  ASSERT_EQ(f.backend.ops().size(), 1u);
  ExpectOp(f.backend.ops()[0], OpKind::kRead, 4 * kB, kB);
  EXPECT_EQ(f.cache.stats().block_reads, 1u);

  f.cache.FlushAll();
  EXPECT_EQ(f.cache.stats().block_writes, 3u);
  EXPECT_EQ(f.BackendWord(2 * kB + 7), 0xABCDu);
  EXPECT_EQ(f.BackendWord(4 * kB + 2), 0xABCDu);
  for (em::Addr a = 4 * kB + 3; a < 5 * kB; ++a) {
    EXPECT_EQ(f.BackendWord(a), f.data[a]) << a;
  }
}

TEST(StagedCache, DirtyEvictionWritesBackOnceAndCleanEvictionWritesNothing) {
  Fixture f;
  for (em::Addr line = 0; line < 4; ++line) (void)f.ReadOne(line * kB);
  f.backend.ClearOps();
  (void)f.ReadOne(4 * kB);  // evicts clean line 0
  ASSERT_EQ(f.backend.ops().size(), 1u);
  EXPECT_EQ(f.backend.ops()[0].kind, OpKind::kRead);

  const em::Word v = 77;
  f.cache.WriteRange(kB + 1, 1, &v);  // line 1: dirty and MRU
  for (em::Addr line = 5; line < 8; ++line) (void)f.ReadOne(line * kB);
  f.backend.ClearOps();
  (void)f.ReadOne(8 * kB);  // evicts dirty line 1
  ASSERT_EQ(f.backend.ops().size(), 2u);
  ExpectOp(f.backend.ops()[0], OpKind::kWrite, kB, kB);
  ExpectOp(f.backend.ops()[1], OpKind::kRead, 8 * kB, kB);
  EXPECT_EQ(f.cache.stats().block_writes, 1u);
  EXPECT_EQ(f.BackendWord(kB + 1), v);
  EXPECT_EQ(f.BackendWord(kB + 2), f.data[kB + 2]);
}

TEST(StagedCache, OverwrittenLineNeverServesStaleBytes) {
  Fixture f;
  (void)f.ReadOne(2);
  const em::Word counted = 1001, uncounted = 1002;
  f.cache.WriteRange(2, 1, &counted);
  EXPECT_EQ(f.ReadOne(2), counted);

  // Evict line 0 and fetch it again: the write-back is what comes back.
  for (em::Addr line = 1; line <= 4; ++line) (void)f.ReadOne(line * kB);
  EXPECT_FALSE(f.cache.IsResident(2));
  EXPECT_EQ(f.ReadOne(2), counted);

  // An uncounted write-through updates the resident buffer as well.
  f.cache.set_counting(false);
  f.cache.WriteRange(2, 1, &uncounted);
  f.cache.set_counting(true);
  f.backend.ClearOps();
  EXPECT_EQ(f.ReadOne(2), uncounted);
  EXPECT_TRUE(f.backend.ops().empty());
}

TEST(StagedCache, UncountedReadCoalescesNonResidentRuns) {
  Fixture f;
  const em::Word v = 4242;
  f.cache.WriteRange(2 * kB + 2, 1, &v);  // line 2 resident and dirty
  const em::IoStats before = f.cache.stats();
  f.backend.ClearOps();

  f.cache.set_counting(false);
  std::vector<em::Word> out(5 * kB);
  f.cache.ReadRange(0, out.size(), out.data());
  f.cache.set_counting(true);

  // Lines 0-1 and 3-4 are read in one call each; line 2 comes from its
  // (authoritative, dirty) buffer.
  ASSERT_EQ(f.backend.ops().size(), 2u);
  ExpectOp(f.backend.ops()[0], OpKind::kRead, 0, 2 * kB);
  ExpectOp(f.backend.ops()[1], OpKind::kRead, 3 * kB, 2 * kB);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i == 2 * kB + 2 ? v : f.data[i]) << i;
  }
  EXPECT_EQ(f.cache.resident_lines(), 1u);
  EXPECT_EQ(f.cache.stats().block_reads, before.block_reads);
  EXPECT_EQ(f.cache.stats().cache_hits, before.cache_hits);
}

TEST(StagedCache, UncountedWriteIsOneWriteThroughThatUpdatesResidentLines) {
  Fixture f;
  (void)f.ReadOne(kB);  // line 1 resident, clean
  const em::IoStats before = f.cache.stats();
  f.backend.ClearOps();

  const std::vector<em::Word> in(20, 0x5555);
  f.cache.set_counting(false);
  f.cache.WriteRange(4, in.size(), in.data());
  f.cache.set_counting(true);
  ASSERT_EQ(f.backend.ops().size(), 1u);
  ExpectOp(f.backend.ops()[0], OpKind::kWrite, 4, in.size());
  EXPECT_EQ(f.cache.stats().block_writes, before.block_writes);

  f.backend.ClearOps();
  EXPECT_EQ(f.ReadOne(kB + 5), 0x5555u);  // served from the updated buffer
  EXPECT_TRUE(f.backend.ops().empty());
  EXPECT_EQ(f.BackendWord(23), 0x5555u);
  EXPECT_EQ(f.BackendWord(24), f.data[24]);
}

TEST(StagedCache, DiscardDropsDirtyLinesWithoutWriteBack) {
  Fixture f;
  const std::vector<em::Word> fresh(2 * kB, 9);
  f.cache.WriteRange(0, fresh.size(), fresh.data());
  EXPECT_EQ(f.cache.resident_lines(), 2u);
  f.backend.ClearOps();
  f.cache.Discard();
  EXPECT_TRUE(f.backend.ops().empty());
  EXPECT_EQ(f.cache.resident_lines(), 0u);
  EXPECT_EQ(f.cache.stats().block_reads, 0u);
  EXPECT_EQ(f.cache.stats().block_writes, 0u);
  EXPECT_EQ(f.cache.stats().cache_hits, 0u);
  EXPECT_EQ(f.BackendWord(0), f.data[0]);
  EXPECT_EQ(f.ReadOne(kB + 1), f.data[kB + 1]);
}

TEST(StagedCache, BackendErrorLatchesAndFailsFastUntilDiscard) {
  Fixture f;
  f.backend.set_fail_reads(true);
  em::Word w = 1;
  EXPECT_THROW(f.cache.ReadRange(0, 1, &w), IoFault);
  EXPECT_FALSE(f.cache.fault().ok());
  EXPECT_EQ(f.backend.ops().size(), 1u);

  // The latch holds even once the device recovers: no further backend call.
  f.backend.set_fail_reads(false);
  f.backend.ClearOps();
  EXPECT_THROW(f.cache.ReadRange(3 * kB, 1, &w), IoFault);
  EXPECT_TRUE(f.backend.ops().empty());

  f.cache.Discard();
  EXPECT_TRUE(f.cache.fault().ok());
  EXPECT_EQ(f.ReadOne(3 * kB), f.data[3 * kB]);
  EXPECT_EQ(f.backend.ops().size(), 1u);
}

// Context whose file backend sits under a RecordingBackend; `*out` is the
// recorder (owned by the context's device).
em::EmConfig RecordedFileConfig(RecordingBackend** out) {
  em::EmConfig cfg;
  cfg.memory_words = 1 << 10;
  cfg.block_words = 16;
  cfg.seed = 0x57A6;
  cfg.storage = em::StorageKind::kFile;
  cfg.wrap_backend = [out](std::unique_ptr<em::StorageBackend> inner) {
    auto rec = std::make_unique<RecordingBackend>(std::move(inner));
    *out = rec.get();
    return std::unique_ptr<em::StorageBackend>(std::move(rec));
  };
  return cfg;
}

TEST(StagedCache, EveryBackendCallRunsOnTheCallingThread) {
  const std::vector<Edge> raw = Gnm(300, 1200, 9);
  for (const char* algo : {"mgt", "dementiev", "ps-cache-aware"}) {
    SCOPED_TRACE(algo);
    RecordingBackend* rec = nullptr;
    em::Context ctx(RecordedFileConfig(&rec));
    ASSERT_NE(rec, nullptr);
    EmGraph g = BuildEmGraph(ctx, raw);
    core::CollectingSink sink;
    core::FindAlgorithm(algo)->run(ctx, g, sink);
    ctx.cache().FlushAll();
    std::size_t reads = 0, writes = 0;
    for (const Op& op : rec->ops()) {
      EXPECT_EQ(op.thread, std::this_thread::get_id());
      reads += op.kind == OpKind::kRead;
      writes += op.kind == OpKind::kWrite;
    }
    EXPECT_GT(reads, 0u);
    EXPECT_GT(writes, 0u);
  }
}

TEST(StagedCache, AdviceReachesTheBackendAndLeavesCountedStateAlone) {
  const std::vector<Edge> raw = Gnm(300, 1200, 9);
  struct Run {
    std::vector<Triangle> triangles;
    em::IoStats io;
    std::size_t read_advice = 0;
    std::size_t write_advice = 0;
  };
  auto run = [&](bool recorded) {
    RecordingBackend* rec = nullptr;
    em::EmConfig cfg = RecordedFileConfig(&rec);
    if (!recorded) cfg.wrap_backend = nullptr;
    em::Context ctx(cfg);
    EmGraph g = BuildEmGraph(ctx, raw);
    ctx.cache().Reset();
    core::CollectingSink sink;
    core::FindAlgorithm("dementiev")->run(ctx, g, sink);
    ctx.cache().FlushAll();
    Run out{sink.triangles(), ctx.cache().stats()};
    if (rec != nullptr) {
      out.read_advice = rec->read_advice();
      out.write_advice = rec->write_advice();
    }
    return out;
  };
  const Run plain = run(false);
  const Run advised = run(true);
  EXPECT_GT(advised.read_advice, 0u);
  EXPECT_GT(advised.write_advice, 0u);
  EXPECT_EQ(plain.triangles, advised.triangles);  // same set, same order
  EXPECT_EQ(plain.io.block_reads, advised.io.block_reads);
  EXPECT_EQ(plain.io.block_writes, advised.io.block_writes);
  EXPECT_EQ(plain.io.cache_hits, advised.io.cache_hits);
}

TEST(StagedCache, StoreSnapshotsAreTheBackendCounters) {
  for (em::StorageKind kind :
       {em::StorageKind::kMemory, em::StorageKind::kFile}) {
    SCOPED_TRACE(kind == em::StorageKind::kFile ? "file" : "memory");
    em::Context ctx = test::MakeContext(256, 16, 0x7001, kind);
    em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(4096);
    for (std::size_t i = 0; i < a.size(); ++i) a.Set(i, i);
    for (std::size_t i = 0; i < a.size(); i += 7) ASSERT_EQ(a.Get(i), i);
    em::QuerySession& session = ctx;
    const em::GraphStore& store = session.store();
    const em::StorageTelemetry snap = store.telemetry_snapshot();
    const em::StorageTelemetry& live = ctx.device().backend().telemetry();
    EXPECT_EQ(snap.bytes_read, live.bytes_read);
    EXPECT_EQ(snap.bytes_written, live.bytes_written);
    EXPECT_EQ(snap.read_calls, live.read_calls);
    EXPECT_EQ(snap.write_calls, live.write_calls);
    if (kind == em::StorageKind::kFile) {
      EXPECT_GT(snap.read_calls, 0u);
      EXPECT_GT(snap.write_calls, 0u);
    } else {
      EXPECT_EQ(snap.read_calls, 0u);  // direct view: no transfers
    }
    const em::RecoveryStats rec = store.recovery_snapshot();
    EXPECT_EQ(rec.retries, 0u);
    EXPECT_EQ(rec.faults_injected, 0u);
    EXPECT_EQ(rec.checksum_failures, 0u);
  }
}

}  // namespace
}  // namespace trienum
