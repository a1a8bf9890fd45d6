// Sinks (emission semantics) and graph file I/O.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/sink.h"
#include "graph/graph_io.h"
#include "test_util.h"

namespace trienum {
namespace {

using namespace trienum::graph;

TEST(Sinks, CountingAndChecksumAgree) {
  core::CountingSink count;
  core::ChecksumSink sum;
  core::TeeSink tee(&count, &sum);
  tee.Emit(1, 2, 3);
  tee.Emit(2, 5, 9);
  EXPECT_EQ(count.count(), 2u);
  EXPECT_EQ(sum.count(), 2u);
}

TEST(Sinks, ChecksumIsOrderInvariant) {
  core::ChecksumSink a, b;
  a.Emit(1, 2, 3);
  a.Emit(4, 5, 6);
  b.Emit(4, 5, 6);
  b.Emit(1, 2, 3);
  EXPECT_EQ(a.checksum(), b.checksum());
}

TEST(Sinks, ChecksumDistinguishesDifferentSets) {
  core::ChecksumSink a, b;
  a.Emit(1, 2, 3);
  b.Emit(1, 2, 4);
  EXPECT_NE(a.checksum(), b.checksum());
}

TEST(Sinks, ChecksumRejectsUnsortedTriples) {
  core::ChecksumSink s;
  EXPECT_DEATH(s.Emit(3, 2, 1), "CHECK");
}

TEST(Sinks, CallbackForwardsInOrder) {
  std::vector<Triangle> seen;
  core::CallbackSink cb([&seen](VertexId a, VertexId b, VertexId c) {
    seen.push_back(Triangle{a, b, c});
  });
  cb.Emit(1, 2, 3);
  cb.Emit(0, 7, 9);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], (Triangle{0, 7, 9}));
}

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per process: ctest runs each test as its own process in
    // parallel, and TearDown removes the directory.
    dir_ = std::filesystem::temp_directory_path() /
           ("trienum_io_test_" + std::to_string(getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(GraphIoTest, TextRoundTrip) {
  auto edges = Gnm(50, 120, 3);
  ASSERT_TRUE(WriteEdgeListText(Path("g.txt"), edges).ok());
  auto back = ReadEdgeListText(Path("g.txt"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, edges);
}

TEST_F(GraphIoTest, BinaryRoundTrip) {
  auto edges = Gnm(50, 120, 4);
  ASSERT_TRUE(WriteEdgeListBinary(Path("g.bin"), edges).ok());
  auto back = ReadEdgeListBinary(Path("g.bin"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, edges);
}

TEST_F(GraphIoTest, TextCommentsAndBlanksSkipped) {
  // The same list saved with LF and with CRLF line ends (a blank CRLF line
  // reads back as "\r").
  const std::pair<const char*, const char*> files[] = {
      {"c.txt", "# comment\n\n% another\n3 4\n5 6\n"},
      {"crlf.txt", "# comment\r\n\r\n% another\r\n3 4\r\n \t\r\n5 6\r\n"}};
  for (const auto& [name, content] : files) {
    {
      std::FILE* f = std::fopen(Path(name).c_str(), "wb");
      std::fputs(content, f);
      std::fclose(f);
    }
    auto back = ReadEdgeListText(Path(name));
    ASSERT_TRUE(back.ok()) << name << ": " << back.status().ToString();
    EXPECT_EQ(back->size(), 2u) << name;
    EXPECT_EQ((*back)[0], (Edge{3, 4})) << name;
    EXPECT_EQ((*back)[1], (Edge{5, 6})) << name;
  }
}

TEST_F(GraphIoTest, BinaryHeaderMustMatchFileSize) {
  const std::vector<Edge> edges = {{1, 2}, {2, 3}, {1, 3}};
  auto write_with_count = [&](const std::string& name, std::uint64_t count) {
    std::FILE* f = std::fopen(Path(name).c_str(), "wb");
    std::fwrite(&count, sizeof(count), 1, f);
    std::fwrite(edges.data(), sizeof(Edge), edges.size(), f);
    std::fclose(f);
  };
  write_with_count("exact.bin", edges.size());
  auto ok = ReadEdgeListBinary(Path("exact.bin"));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(*ok, edges);

  // A huge count (count * sizeof(Edge) overflows 64 bits), one past the
  // payload, and one short of it (trailing bytes) are all rejected before
  // any allocation, naming the file.
  for (std::uint64_t count : {std::uint64_t{1} << 61,
                              std::uint64_t{edges.size() + 1},
                              std::uint64_t{edges.size() - 1}}) {
    write_with_count("bad.bin", count);
    auto bad = ReadEdgeListBinary(Path("bad.bin"));
    ASSERT_FALSE(bad.ok()) << count;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument) << count;
    EXPECT_NE(bad.status().ToString().find("bad.bin"), std::string::npos);
  }
}

TEST_F(GraphIoTest, ParseErrorsAreStatuses) {
  {
    std::FILE* f = std::fopen(Path("bad.txt").c_str(), "w");
    std::fputs("1 2\nnot numbers\n", f);
    std::fclose(f);
  }
  auto bad = ReadEdgeListText(Path("bad.txt"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  auto missing = ReadEdgeListText(Path("does_not_exist.txt"));
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

TEST_F(GraphIoTest, OversizedIdsRejected) {
  {
    std::FILE* f = std::fopen(Path("big.txt").c_str(), "w");
    std::fputs("1 99999999999\n", f);
    std::fclose(f);
  }
  auto bad = ReadEdgeListText(Path("big.txt"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST_F(GraphIoTest, BinaryShorterThanItsHeaderIsAnIoError) {
  const char bytes[7] = {1, 0, 0, 0, 0, 0, 0};
  for (std::size_t len : {std::size_t{0}, std::size_t{3}, std::size_t{7}}) {
    std::FILE* f = std::fopen(Path("short.bin").c_str(), "wb");
    std::fwrite(bytes, 1, len, f);
    std::fclose(f);
    auto bad = ReadEdgeListBinary(Path("short.bin"));
    ASSERT_FALSE(bad.ok()) << len;
    EXPECT_EQ(bad.status().code(), StatusCode::kIoError) << len;
    EXPECT_NE(bad.status().ToString().find("short.bin"), std::string::npos);
  }
}

TEST_F(GraphIoTest, EmptyBinaryGraphRoundTrips) {
  ASSERT_TRUE(WriteEdgeListBinary(Path("empty.bin"), {}).ok());
  EXPECT_EQ(std::filesystem::file_size(Path("empty.bin")), sizeof(std::uint64_t));
  auto back = ReadEdgeListBinary(Path("empty.bin"));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->empty());
}

TEST_F(GraphIoTest, AutoReaderDispatchesOnExtension) {
  const auto edges = Gnm(40, 90, 5);
  ASSERT_TRUE(WriteEdgeListBinary(Path("g.bin"), edges).ok());
  ASSERT_TRUE(WriteEdgeListBinary(Path("g.bedges"), edges).ok());
  ASSERT_TRUE(WriteEdgeListText(Path("g.txt"), edges).ok());
  for (const char* name : {"g.bin", "g.bedges", "g.txt"}) {
    auto back = ReadEdgeListAuto(Path(name));
    ASSERT_TRUE(back.ok()) << name << ": " << back.status().ToString();
    EXPECT_EQ(*back, edges) << name;
  }
  // A binary file under a text name is parsed as text, and fails as text.
  std::filesystem::copy_file(Path("g.bin"), Path("binary.txt"));
  EXPECT_FALSE(ReadEdgeListAuto(Path("binary.txt")).ok());
}

TEST_F(GraphIoTest, ConvertRoundTripsBetweenFormats) {
  const auto edges = Gnm(40, 90, 6);
  ASSERT_TRUE(WriteEdgeListText(Path("src.txt"), edges).ok());
  ASSERT_TRUE(ConvertEdgeList(Path("src.txt"), Path("mid.bin")).ok());
  ASSERT_TRUE(ConvertEdgeList(Path("mid.bin"), Path("back.txt")).ok());
  auto bin = ReadEdgeListBinary(Path("mid.bin"));
  ASSERT_TRUE(bin.ok()) << bin.status().ToString();
  EXPECT_EQ(*bin, edges);
  auto text = ReadEdgeListText(Path("back.txt"));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text, edges);
  // A bad source fails the conversion with its own status.
  EXPECT_EQ(ConvertEdgeList(Path("missing.txt"), Path("out.bin")).code(),
            StatusCode::kIoError);
}

TEST(Status, BasicsAndResult) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status err = Status::InvalidArgument("bad");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.ToString(), "InvalidArgument: bad");

  Result<int> good = 7;
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  Result<int> bad = Status::NotFound("x");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace trienum
