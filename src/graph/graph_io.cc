#include "graph/graph_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "util/strings.h"

namespace flash {

void write_edge_list(std::ostream& os, const Graph& g) {
  os << "# flash edge list: one channel per line (u,v)\n";
  os << "nodes," << g.num_nodes() << "\n";
  for (std::size_t c = 0; c < g.num_channels(); ++c) {
    const EdgeId e = g.channel_forward_edge(c);
    os << g.from(e) << ',' << g.to(e) << '\n';
  }
}

namespace {

[[noreturn]] void edge_list_fail(std::size_t lineno, const std::string& what) {
  throw std::runtime_error("edge list line " + std::to_string(lineno) + ": " +
                           what);
}

/// Why a "nodes,<n>" header is unusable, or null if it is fine: the count
/// must fit the 32-bit id space and cover every id read before it (ids
/// read after it are checked against it as they come).
const char* node_count_error(std::uint64_t n, bool any_ids, NodeId max_id) {
  if (n > kInvalidNode) return "node count exceeds the 32-bit id space";
  if (any_ids && max_id >= n) return "node count below an earlier node id";
  return nullptr;
}

}  // namespace

Graph read_edge_list(std::istream& is) {
  std::vector<std::pair<NodeId, NodeId>> channels;
  std::size_t declared_nodes = 0;
  bool nodes_declared = false;
  NodeId max_id = 0;
  bool any = false;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::string_view sv = trim(line);
    if (sv.empty() || sv.front() == '#') continue;
    const auto fields = split(sv, ',');
    if (fields.size() == 2 && trim(fields[0]) == "nodes") {
      const auto n = parse_uint(fields[1]);
      if (!n) edge_list_fail(lineno, "bad node count");
      if (const char* err = node_count_error(*n, any, max_id)) {
        edge_list_fail(lineno, err);
      }
      declared_nodes = *n;
      nodes_declared = true;
      continue;
    }
    if (fields.size() < 2) edge_list_fail(lineno, "expected u,v");
    const auto u = parse_uint(fields[0]);
    const auto v = parse_uint(fields[1]);
    if (!u || !v || *u > kInvalidNode - 1 || *v > kInvalidNode - 1) {
      edge_list_fail(lineno, "bad node id");
    }
    const auto un = static_cast<NodeId>(*u);
    const auto vn = static_cast<NodeId>(*v);
    if (un == vn) edge_list_fail(lineno, "self channel");
    if (nodes_declared && (un >= declared_nodes || vn >= declared_nodes)) {
      edge_list_fail(lineno, "node id exceeds declared node count");
    }
    channels.emplace_back(un, vn);
    max_id = std::max({max_id, un, vn});
    any = true;
  }
  const std::size_t n =
      nodes_declared ? declared_nodes
                     : (any ? static_cast<std::size_t>(max_id) + 1 : 0);
  Graph g(n);
  for (auto [u, v] : channels) g.add_channel(u, v);
  g.finalize();
  return g;
}

void save_edge_list(const std::string& path, const Graph& g) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  write_edge_list(os, g);
  if (!os) throw std::runtime_error("write failed: " + path);
}

Graph load_edge_list(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for reading: " + path);
  return read_edge_list(is);
}

Graph LightningSnapshot::to_graph() const {
  Graph g(num_nodes);
  g.reserve_channels(channels.size());
  for (const auto& ch : channels) g.add_channel(ch.u, ch.v);
  g.finalize();
  return g;
}

void write_lightning_snapshot(std::ostream& os, const LightningSnapshot& s) {
  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "# flash lightning snapshot\n";
  os << "# channel,u,v,bal_uv,bal_vu,base_uv,rate_uv,base_vu,rate_vu\n";
  os << "nodes," << s.num_nodes << "\n";
  for (const auto& ch : s.channels) {
    os << "channel," << ch.u << ',' << ch.v << ',' << ch.balance_uv << ','
       << ch.balance_vu << ',' << ch.base_uv << ',' << ch.rate_uv << ','
       << ch.base_vu << ',' << ch.rate_vu << '\n';
  }
  os.precision(old_precision);
}

namespace {

[[noreturn]] void snapshot_fail(std::size_t lineno, const std::string& what) {
  throw std::runtime_error("snapshot line " + std::to_string(lineno) + ": " +
                           what);
}

// Parses one non-negative finite money/rate field; rejects overflow, NaN,
// infinities, and negatives so a corrupt snapshot cannot mint capacity.
double parse_amount_field(std::string_view field, std::size_t lineno,
                         const char* name) {
  const auto x = parse_double(trim(field));
  if (!x || !std::isfinite(*x)) {
    snapshot_fail(lineno, std::string(name) + " overflows or is not a number");
  }
  if (*x < 0) snapshot_fail(lineno, std::string(name) + " is negative");
  return *x;
}

}  // namespace

LightningSnapshot read_lightning_snapshot(std::istream& is) {
  LightningSnapshot snap;
  std::unordered_set<std::uint64_t> seen;
  bool nodes_declared = false;
  NodeId max_id = 0;
  bool any = false;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::string_view sv = trim(line);
    if (sv.empty() || sv.front() == '#') continue;
    const auto fields = split(sv, ',');
    if (trim(fields[0]) == "nodes") {
      if (fields.size() != 2) snapshot_fail(lineno, "expected nodes,<n>");
      const auto n = parse_uint(trim(fields[1]));
      if (!n) snapshot_fail(lineno, "bad node count");
      if (const char* err = node_count_error(*n, any, max_id)) {
        snapshot_fail(lineno, err);
      }
      snap.num_nodes = *n;
      nodes_declared = true;
      continue;
    }
    if (trim(fields[0]) != "channel") {
      snapshot_fail(lineno, "unknown record type (want nodes or channel)");
    }
    if (fields.size() != 9) {
      snapshot_fail(lineno,
                    "expected channel,u,v,bal_uv,bal_vu,base_uv,rate_uv,"
                    "base_vu,rate_vu");
    }
    const auto u = parse_uint(trim(fields[1]));
    const auto v = parse_uint(trim(fields[2]));
    if (!u || !v || *u > kInvalidNode - 1 || *v > kInvalidNode - 1) {
      snapshot_fail(lineno, "bad node id");
    }
    SnapshotChannel ch;
    ch.u = static_cast<NodeId>(*u);
    ch.v = static_cast<NodeId>(*v);
    if (ch.u == ch.v) snapshot_fail(lineno, "self channel");
    if (nodes_declared && (ch.u >= snap.num_nodes || ch.v >= snap.num_nodes)) {
      snapshot_fail(lineno, "node id exceeds declared node count");
    }
    const auto key = pair_key(std::min(ch.u, ch.v), std::max(ch.u, ch.v));
    if (!seen.insert(key).second) snapshot_fail(lineno, "duplicate channel");
    ch.balance_uv = parse_amount_field(fields[3], lineno, "bal_uv");
    ch.balance_vu = parse_amount_field(fields[4], lineno, "bal_vu");
    ch.base_uv = parse_amount_field(fields[5], lineno, "base_uv");
    ch.rate_uv = parse_amount_field(fields[6], lineno, "rate_uv");
    ch.base_vu = parse_amount_field(fields[7], lineno, "base_vu");
    ch.rate_vu = parse_amount_field(fields[8], lineno, "rate_vu");
    snap.channels.push_back(ch);
    max_id = std::max({max_id, ch.u, ch.v});
    any = true;
  }
  if (!nodes_declared && any) {
    snap.num_nodes = static_cast<std::size_t>(max_id) + 1;
  }
  return snap;
}

void save_lightning_snapshot(const std::string& path,
                             const LightningSnapshot& s) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  write_lightning_snapshot(os, s);
  if (!os) throw std::runtime_error("write failed: " + path);
}

LightningSnapshot load_lightning_snapshot(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for reading: " + path);
  return read_lightning_snapshot(is);
}

}  // namespace flash
