#include "graph/graph_io.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace trienum::graph {

Result<std::vector<Edge>> ReadEdgeListText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::vector<Edge> edges;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ss(line);
    std::uint64_t u, v;
    if (!(ss >> u >> v)) {
      // A whitespace-only line (e.g. "\r" from a CRLF file) is blank.
      if (line.find_first_not_of(" \t\r\v\f") == std::string::npos) {
        continue;
      }
      return Status::InvalidArgument("parse error at " + path + ":" +
                                     std::to_string(lineno));
    }
    if (u > 0xFFFFFFFFULL || v > 0xFFFFFFFFULL) {
      return Status::OutOfRange("vertex id exceeds 32 bits at " + path + ":" +
                                std::to_string(lineno));
    }
    edges.push_back(Edge{static_cast<VertexId>(u), static_cast<VertexId>(v)});
  }
  return edges;
}

Status WriteEdgeListText(const std::string& path, const std::vector<Edge>& edges) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  for (const Edge& e : edges) out << e.u << ' ' << e.v << '\n';
  if (!out) return Status::IoError("write failed on " + path);
  return Status::OK();
}

Result<std::vector<Edge>> ReadEdgeListBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  const std::streamoff file_bytes = in.tellg();
  if (file_bytes < 0) return Status::IoError("cannot size " + path);
  in.seekg(0);
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) return Status::IoError("truncated header in " + path);
  // The header is untrusted: it must describe exactly the bytes that follow
  // before anything is allocated from it (overflow-safe: divide, then
  // compare).
  const std::uint64_t payload =
      static_cast<std::uint64_t>(file_bytes) - sizeof(count);
  if (count > payload / sizeof(Edge) || count * sizeof(Edge) != payload) {
    return Status::InvalidArgument(
        "header of " + path + " declares " + std::to_string(count) +
        " edges but the file holds " + std::to_string(payload) +
        " payload bytes");
  }
  std::vector<Edge> edges(count);
  in.read(reinterpret_cast<char*>(edges.data()),
          static_cast<std::streamsize>(payload));
  if (!in) return Status::IoError("truncated payload in " + path);
  return edges;
}

Status WriteEdgeListBinary(const std::string& path, const std::vector<Edge>& edges) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  std::uint64_t count = edges.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(edges.data()),
            static_cast<std::streamsize>(count * sizeof(Edge)));
  if (!out) return Status::IoError("write failed on " + path);
  return Status::OK();
}

namespace {

bool IsBinaryPath(const std::string& path) {
  auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
  };
  return ends_with(".bin") || ends_with(".bedges");
}

}  // namespace

Result<std::vector<Edge>> ReadEdgeListAuto(const std::string& path) {
  if (IsBinaryPath(path)) return ReadEdgeListBinary(path);
  return ReadEdgeListText(path);
}

Status ConvertEdgeList(const std::string& src, const std::string& dst) {
  TRIENUM_ASSIGN_OR_RETURN(std::vector<Edge> edges, ReadEdgeListAuto(src));
  if (IsBinaryPath(dst)) return WriteEdgeListBinary(dst, edges);
  return WriteEdgeListText(dst, edges);
}

}  // namespace trienum::graph
