// Tests for graph serialization: edge-list file wrappers and the
// Lightning-snapshot loader (round trips plus every parse error path).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/graph_io.h"
#include "graph/topology.h"

namespace flash {
namespace {

LightningSnapshot tiny_snapshot() {
  LightningSnapshot snap;
  snap.num_nodes = 4;
  snap.channels.push_back({0, 1, 500000.0, 250000.0, 1.0, 0.001, 0.0, 0.01});
  snap.channels.push_back({1, 2, 0.125, 4e9, 0.0, 0.0, 2.0, 0.005});
  snap.channels.push_back({3, 1, 1e7, 1e7, 0.5, 0.0025, 0.5, 0.0025});
  return snap;
}

TEST(EdgeListFile, SaveLoadRoundTrip) {
  Rng rng(11);
  const Graph g = scale_free(60, 180, rng);
  const std::string path = testing::TempDir() + "/flash_edge_list.csv";
  save_edge_list(path, g);
  const Graph h = load_edge_list(path);
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_channels(), g.num_channels());
  for (std::size_t c = 0; c < g.num_channels(); ++c) {
    const EdgeId e = g.channel_forward_edge(c);
    const EdgeId f = h.channel_forward_edge(c);
    EXPECT_EQ(g.from(e), h.from(f));
    EXPECT_EQ(g.to(e), h.to(f));
  }
}

TEST(EdgeListFile, MissingFileThrows) {
  EXPECT_THROW(load_edge_list(testing::TempDir() + "/no_such_file.csv"),
               std::runtime_error);
}

/// Asserts that `read` rejects `body` with a std::runtime_error whose
/// message contains `want` (the line number included).
template <typename Reader>
void expect_error(Reader read, const std::string& body,
                  const std::string& want) {
  std::istringstream is(body);
  try {
    read(is);
    ADD_FAILURE() << "accepted: " << body;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

void expect_edge_list_error(const std::string& body, const std::string& want) {
  expect_error([](std::istream& is) { read_edge_list(is); }, body, want);
}

void expect_snapshot_error(const std::string& body, const std::string& want) {
  expect_error([](std::istream& is) { read_lightning_snapshot(is); }, body,
               want);
}

TEST(EdgeList, SelfChannelThrowsWithLineNumber) {
  // Used to escape from Graph::add_channel as std::invalid_argument.
  expect_edge_list_error("0,1\n1,1\n", "edge list line 2: self channel");
}

TEST(EdgeList, BadNodeCountThrowsWithLineNumber) {
  // Counts above the id space used to escape Graph(n) as std::length_error
  // and std::bad_alloc; "nodes,3" then "0,5" used to load a 6-node graph.
  expect_edge_list_error("nodes,18446744073709551615\n",
                         "edge list line 1: node count exceeds");
  expect_edge_list_error("# big\nnodes,8589934592\n0,1\n",
                         "edge list line 2: node count exceeds");
  expect_edge_list_error("nodes,3\n0,5\n",
                         "edge list line 2: node id exceeds declared");
  expect_edge_list_error("nodes,3\n0,1\n2,3\n",
                         "edge list line 3: node id exceeds declared");
  expect_edge_list_error("0,5\nnodes,3\n",
                         "edge list line 2: node count below an earlier");
}

TEST(EdgeList, DeclaredNodeCountKeepsIsolatedNodes) {
  std::istringstream is("0,1\nnodes,4\n1,3\n");
  const Graph g = read_edge_list(is);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_channels(), 2u);
  EXPECT_EQ(g.out_degree(2), 0u);
}

TEST(EdgeList, OutOfRangeNodeIdThrowsWithLineNumber) {
  // 2^32 and 2^33 + 1 used to wrap to nodes 0 and 1. (Not kInvalidNode
  // itself: if the check broke, that id would size a 2^32-node graph.)
  for (const char* body : {"0,1\n4294967296,1\n", "0,1\n2,8589934593\n"}) {
    std::istringstream is(body);
    try {
      read_edge_list(is);
      ADD_FAILURE() << "accepted: " << body;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("edge list line 2: bad node id"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Snapshot, StreamRoundTripIsExact) {
  const LightningSnapshot snap = tiny_snapshot();
  std::stringstream ss;
  write_lightning_snapshot(ss, snap);
  const LightningSnapshot back = read_lightning_snapshot(ss);
  ASSERT_EQ(back.num_nodes, snap.num_nodes);
  ASSERT_EQ(back.channels.size(), snap.channels.size());
  for (std::size_t c = 0; c < snap.channels.size(); ++c) {
    const auto& a = snap.channels[c];
    const auto& b = back.channels[c];
    EXPECT_EQ(a.u, b.u);
    EXPECT_EQ(a.v, b.v);
    // write_lightning_snapshot prints max_digits10 digits, so doubles
    // round-trip bit-exactly.
    EXPECT_EQ(a.balance_uv, b.balance_uv);
    EXPECT_EQ(a.balance_vu, b.balance_vu);
    EXPECT_EQ(a.base_uv, b.base_uv);
    EXPECT_EQ(a.rate_uv, b.rate_uv);
    EXPECT_EQ(a.base_vu, b.base_vu);
    EXPECT_EQ(a.rate_vu, b.rate_vu);
  }
}

TEST(Snapshot, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/flash_snapshot.csv";
  save_lightning_snapshot(path, tiny_snapshot());
  const LightningSnapshot back = load_lightning_snapshot(path);
  EXPECT_EQ(back.num_nodes, 4u);
  EXPECT_EQ(back.channels.size(), 3u);
  EXPECT_EQ(back.channels[2].balance_uv, 1e7);
}

TEST(Snapshot, ToGraphPreservesChannelOrder) {
  const Graph g = tiny_snapshot().to_graph();
  EXPECT_EQ(g.num_nodes(), 4u);
  ASSERT_EQ(g.num_channels(), 3u);
  const EdgeId e1 = g.channel_forward_edge(1);
  EXPECT_EQ(g.from(e1), 1u);
  EXPECT_EQ(g.to(e1), 2u);
}

TEST(Snapshot, CommentsAndBlankLinesIgnored) {
  std::istringstream is(
      "# header comment\n"
      "\n"
      "nodes,3\n"
      "  # indented comment\n"
      "channel,0,1,10,10,0,0.001,0,0.001\n");
  const LightningSnapshot snap = read_lightning_snapshot(is);
  EXPECT_EQ(snap.num_nodes, 3u);
  EXPECT_EQ(snap.channels.size(), 1u);
}

TEST(Snapshot, NodesHeaderOptional) {
  std::istringstream is("channel,2,5,1,1,0,0,0,0\n");
  EXPECT_EQ(read_lightning_snapshot(is).num_nodes, 6u);
}

TEST(Snapshot, EmptyInputIsEmptySnapshot) {
  std::istringstream is("# nothing but comments\n");
  const LightningSnapshot snap = read_lightning_snapshot(is);
  EXPECT_EQ(snap.num_nodes, 0u);
  EXPECT_TRUE(snap.channels.empty());
}

void expect_rejects(const std::string& body, const char* what) {
  std::istringstream is(body);
  EXPECT_THROW(read_lightning_snapshot(is), std::runtime_error) << what;
}

TEST(Snapshot, MalformedLinesThrow) {
  expect_rejects("channel,0,1,10,10\n", "too few fields");
  expect_rejects("channel,0,1,10,10,0,0.001,0,0.001,extra\n",
                 "too many fields");
  expect_rejects("channel,0,x,10,10,0,0.001,0,0.001\n", "bad node id");
  expect_rejects("channel,0,1,ten,10,0,0.001,0,0.001\n", "bad balance");
  expect_rejects("edge,0,1,10,10,0,0.001,0,0.001\n", "unknown record");
  expect_rejects("nodes,many\n", "bad node count");
  expect_rejects("nodes,3,4\n", "nodes header arity");
}

TEST(Snapshot, DuplicateChannelThrows) {
  expect_rejects(
      "channel,0,1,10,10,0,0,0,0\n"
      "channel,1,0,5,5,0,0,0,0\n",
      "duplicate across orientations");
}

TEST(Snapshot, SelfChannelThrows) {
  expect_rejects("channel,2,2,10,10,0,0,0,0\n", "self channel");
}

TEST(Snapshot, NodeIdBeyondDeclaredCountThrows) {
  expect_rejects("nodes,2\nchannel,0,2,10,10,0,0,0,0\n", "id out of range");
}

TEST(Snapshot, BadNodeCountThrowsWithLineNumber) {
  // Each used to parse; to_graph() then threw std::length_error,
  // std::bad_alloc or std::out_of_range.
  expect_snapshot_error("nodes,18446744073709551615\n",
                        "snapshot line 1: node count exceeds");
  expect_snapshot_error("channel,0,1,1,1,0,0,0,0\nnodes,4294967296\n",
                        "snapshot line 2: node count exceeds");
  expect_snapshot_error("channel,0,5,1,1,0,0,0,0\nnodes,3\n",
                        "snapshot line 2: node count below an earlier");
}

TEST(Snapshot, OverflowCapacityThrows) {
  // 1e400 overflows a double; parse_double reports it, and the loader
  // refuses rather than minting infinite capacity.
  expect_rejects("channel,0,1,1e400,10,0,0,0,0\n", "overflow balance");
  expect_rejects("channel,0,1,inf,10,0,0,0,0\n", "infinite balance");
  expect_rejects("channel,0,1,nan,10,0,0,0,0\n", "nan balance");
  expect_rejects("channel,0,1,-5,10,0,0,0,0\n", "negative balance");
  expect_rejects("channel,0,1,10,10,0,-0.001,0,0\n", "negative rate");
  expect_rejects("channel,0,1,10,10,1e400,0,0,0\n", "overflow base fee");
}

TEST(ScaleFreeLightning, MatchesCrawledDensity) {
  Rng rng(7);
  const Graph g = scale_free_lightning(2511, rng);
  EXPECT_EQ(g.num_nodes(), 2511u);
  // The crawled snapshot has 36,016 channels over 2,511 nodes; rewire
  // collisions may drop a few.
  EXPECT_GE(g.num_channels(), 35800u);
  EXPECT_LE(g.num_channels(), 36016u);
}

}  // namespace
}  // namespace flash
