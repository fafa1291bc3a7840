// Edge-list and Lightning-snapshot serialization of topologies.
//
// Edge-list format (one channel per line, '#' comments allowed):
//   u,v
// Node count is max id + 1 unless a "nodes,<n>" header line declares it
// (isolated nodes included); every id must then be below n.
// This matches the simple CSV crawls released with the paper's artifact.
//
// Snapshot format (CLoTH-style channel CSV, '#' comments allowed):
//   nodes,<n>
//   channel,u,v,bal_uv,bal_vu,base_uv,rate_uv,base_vu,rate_vu
// One line per channel carrying both directional balances and both
// directional linear fee policies (fee = base + rate * amount). The fee
// fields stay raw numbers here so graph/ does not depend on ledger/;
// trace/workload.h's make_snapshot_workload turns them into a FeeSchedule.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace flash {

/// Writes `g` as an edge list.
void write_edge_list(std::ostream& os, const Graph& g);

/// Parses an edge list. Throws std::runtime_error naming the offending
/// line on malformed input, self channels, node ids above
/// kInvalidNode - 1 or at or above a declared node count, and node counts
/// above kInvalidNode.
Graph read_edge_list(std::istream& is);

/// Convenience file wrappers; throw std::runtime_error on I/O failure.
void save_edge_list(const std::string& path, const Graph& g);
Graph load_edge_list(const std::string& path);

/// One channel of a Lightning network snapshot: endpoints, directional
/// balances, and directional linear fee parameters.
struct SnapshotChannel {
  NodeId u = 0;
  NodeId v = 0;
  Amount balance_uv = 0;
  Amount balance_vu = 0;
  Amount base_uv = 0;
  double rate_uv = 0;
  Amount base_vu = 0;
  double rate_vu = 0;
};

/// A parsed Lightning snapshot. Channels keep file order, which becomes
/// the Graph channel order when materialized.
struct LightningSnapshot {
  std::size_t num_nodes = 0;
  std::vector<SnapshotChannel> channels;

  /// Builds the finalized topology (channels in snapshot order).
  Graph to_graph() const;
};

/// Writes a snapshot in the channel-CSV format above, with enough float
/// precision that read_lightning_snapshot round-trips bit-exactly.
void write_lightning_snapshot(std::ostream& os, const LightningSnapshot& s);

/// Parses a snapshot. Throws std::runtime_error naming the offending line
/// on malformed input, duplicate channels (either orientation), self
/// channels, node ids outside a declared "nodes" header, node counts above
/// kInvalidNode, and balances or fee parameters that are negative,
/// non-finite, or overflow a double.
LightningSnapshot read_lightning_snapshot(std::istream& is);

/// Convenience file wrappers; throw std::runtime_error on I/O failure.
void save_lightning_snapshot(const std::string& path,
                             const LightningSnapshot& s);
LightningSnapshot load_lightning_snapshot(const std::string& path);

}  // namespace flash
