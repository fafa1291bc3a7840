#include "routing/flash/mice.h"

#include <algorithm>
#include <numeric>

#include "ledger/htlc.h"
#include "routing/spider.h"

namespace flash {

namespace {
constexpr Amount kEps = 1e-9;
}

RouteResult route_mice(const Graph& g, const Transaction& tx,
                       NetworkState& state, const FeeSchedule& fees,
                       MiceRoutingTable& table, Rng& rng,
                       GraphScratch& scratch) {
  (void)g;
  RouteResult result;
  if (tx.amount <= 0 || tx.sender == tx.receiver) return result;

  const std::uint64_t msgs_before = state.probe_messages();

  // Table lookup (computes top-m shortest paths only for a new receiver).
  // The reference stays valid through the attempt loop: dead paths are
  // staged in the scratch pool and only swapped into the entry after the
  // loop, which also keeps the attempt set frozen at lookup time (a
  // replacement path never competes for the payment that discovered the
  // dead one — same behavior the old copy-the-entry implementation had).
  const std::vector<Path>& paths = table.lookup(tx.sender, tx.receiver,
                                                scratch);
  if (paths.empty()) return result;

  // Random order load-balances paths without knowing their capacities.
  auto& order = scratch.index_buf;
  order.resize(paths.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);

  const std::size_t dead_base = scratch.pool.size();
  std::size_t dead_count = 0;

  AtomicPayment payment(state);
  Amount remaining = tx.amount;
  Amount fee = 0;
  for (const std::size_t idx : order) {
    const Path& path = paths[idx];
    // Trial: send the remaining amount in full, no probe.
    if (payment.add_part(path, remaining)) {
      fee += fees.path_fee(path, remaining);
      ++result.paths_used;
      remaining = 0;
      break;
    }
    // Error: probe to learn the path's effective capacity, then send a
    // partial payment of exactly that volume.
    auto& balances = scratch.balance_buf;
    state.probe_path_into(path, balances);
    ++result.probes;
    const Amount cap =
        *std::min_element(balances.begin(), balances.end());
    if (cap <= kEps) {
      // Dead path: stage it for replacement with the next shortest one for
      // future payments (it stays out of this payment's attempt set).
      scratch.pool.alloc().assign(path.begin(), path.end());
      ++dead_count;
      continue;
    }
    const Amount part = std::min(cap, remaining);
    if (payment.add_part(path, part)) {
      fee += fees.path_fee(path, part);
      ++result.paths_used;
      remaining -= part;
      if (remaining <= kEps) break;
    }
  }

  // Apply the staged dead-path replacements (mutates the table entry, so
  // it must come after the loop finished reading `paths`).
  for (std::size_t i = 0; i < dead_count; ++i) {
    table.replace_dead_path(tx.sender, tx.receiver,
                            scratch.pool.at(dead_base + i));
  }
  for (std::size_t i = 0; i < dead_count; ++i) scratch.pool.pop();

  result.probe_messages = state.probe_messages() - msgs_before;
  if (remaining > kEps) {
    // m paths exhausted: declare failure; destructor aborts all holds.
    return result;
  }
  payment.commit();
  result.success = true;
  result.delivered = tx.amount;
  result.fee = fee;
  return result;
}

RouteResult route_mice_waterfill(const Graph& g, const Transaction& tx,
                                 NetworkState& state, const FeeSchedule& fees,
                                 MiceRoutingTable& table,
                                 GraphScratch& scratch) {
  (void)g;
  RouteResult result;
  if (tx.amount <= 0 || tx.sender == tx.receiver) return result;

  const std::uint64_t msgs_before = state.probe_messages();
  // No non-const table call happens while `paths` is alive.
  const std::vector<Path>& paths = table.lookup(tx.sender, tx.receiver,
                                                scratch);
  if (paths.empty()) return result;

  // Probe every table path (the overhead this mode pays on each payment).
  auto& caps = scratch.amount_buf;
  caps.assign(paths.size(), 0);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    auto& balances = scratch.balance_buf;
    state.probe_path_into(paths[i], balances);
    caps[i] = *std::min_element(balances.begin(), balances.end());
    ++result.probes;
  }

  // Waterfill: level allocations toward the most available paths (same
  // allocation rule as Spider).
  const std::vector<Amount> alloc = SpiderRouter::waterfill(caps, tx.amount);
  const Amount placed =
      std::accumulate(alloc.begin(), alloc.end(), Amount{0});
  if (placed + kEps < tx.amount) {
    result.probe_messages = state.probe_messages() - msgs_before;
    return result;  // insufficient joint capacity
  }

  AtomicPayment payment(state);
  Amount fee = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (alloc[i] <= kEps) continue;
    if (!payment.add_part(paths[i], alloc[i])) {
      result.probe_messages = state.probe_messages() - msgs_before;
      return result;  // overlapping paths raced; atomic abort
    }
    fee += fees.path_fee(paths[i], alloc[i]);
    ++result.paths_used;
  }
  payment.commit();
  result.probe_messages = state.probe_messages() - msgs_before;
  result.success = true;
  result.delivered = tx.amount;
  result.fee = fee;
  return result;
}

}  // namespace flash
