#include "trace/trace_io.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/csv.h"
#include "util/strings.h"

namespace flash {

void write_trace(std::ostream& os, const std::vector<Transaction>& txs) {
  os << "sender,receiver,amount,timestamp\n";
  CsvWriter w(os);
  for (const auto& tx : txs) {
    w.field(static_cast<std::uint64_t>(tx.sender))
        .field(static_cast<std::uint64_t>(tx.receiver))
        .field(tx.amount)
        .field(tx.timestamp);
    w.end_row();
  }
}

namespace {

[[noreturn]] void trace_fail(std::size_t lineno, const std::string& what) {
  throw std::runtime_error("trace line " + std::to_string(lineno) + ": " +
                           what);
}

}  // namespace

std::vector<Transaction> read_trace(std::istream& is) {
  std::vector<Transaction> txs;
  std::string line;
  std::size_t lineno = 0;
  bool first_record = true;  // the only line that may be a header row
  while (std::getline(is, line)) {
    ++lineno;
    const std::string_view sv = trim(line);
    if (sv.empty() || sv.front() == '#') continue;
    const bool may_be_header = first_record;
    first_record = false;
    const auto fields = parse_csv_line(sv);
    if (fields.size() < 3) {
      trace_fail(lineno, "expected sender,receiver,amount[,ts]");
    }
    const auto s = parse_uint(fields[0]);
    const auto r = parse_uint(fields[1]);
    const auto a = parse_double(fields[2]);
    if (!s || !r || !a) {
      if (may_be_header) continue;
      trace_fail(lineno, "parse error");
    }
    // Ids past kInvalidNode - 1 would wrap in the NodeId narrowing below.
    if (*s > kInvalidNode - 1 || *r > kInvalidNode - 1) {
      trace_fail(lineno, "node id out of range");
    }
    if (!std::isfinite(*a)) trace_fail(lineno, "amount is not finite");
    if (*a < 0) trace_fail(lineno, "amount is negative");
    Transaction tx;
    tx.sender = static_cast<NodeId>(*s);
    tx.receiver = static_cast<NodeId>(*r);
    tx.amount = *a;
    if (fields.size() >= 4) {
      const auto ts = parse_double(fields[3]);
      if (!ts) trace_fail(lineno, "bad timestamp");
      if (!std::isfinite(*ts)) trace_fail(lineno, "timestamp is not finite");
      tx.timestamp = *ts;
    } else {
      tx.timestamp = static_cast<double>(txs.size());
    }
    txs.push_back(tx);
  }
  return txs;
}

void save_trace(const std::string& path, const std::vector<Transaction>& txs) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  write_trace(os, txs);
  if (!os) throw std::runtime_error("write failed: " + path);
}

std::vector<Transaction> load_trace(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for reading: " + path);
  return read_trace(is);
}

}  // namespace flash
