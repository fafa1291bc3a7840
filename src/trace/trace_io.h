// Transaction-trace serialization.
//
// CSV format, one transaction per line: sender,receiver,amount,timestamp
// ('#' comments allowed; the first non-comment line may be a header). This
// is the shape of the Ripple trace released with the paper's artifact, so
// a real trace can be dropped in place of the synthetic workloads.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/transaction.h"

namespace flash {

void write_trace(std::ostream& os, const std::vector<Transaction>& txs);

/// Throws std::runtime_error naming the offending line on malformed input,
/// node ids above kInvalidNode - 1, negative or non-finite amounts, and
/// non-finite timestamps.
std::vector<Transaction> read_trace(std::istream& is);

void save_trace(const std::string& path, const std::vector<Transaction>& txs);
std::vector<Transaction> load_trace(const std::string& path);

}  // namespace flash
