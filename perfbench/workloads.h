// The four benchmark workloads: which engine configuration each runs and
// how its inputs are generated from the workload seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "sim/scenario.h"
#include "trace/workload.h"
#include "trace/workload_stream.h"

namespace perfbench {

/// Everything that decides what one workload runs. Plain value type.
struct WorkloadSpec {
  std::string name;
  flash::Scheme scheme = flash::Scheme::kFlash;
  /// Payments per repetition (the benchmark's input size).
  std::size_t payments = 0;
  /// Payments come from a GeneratedWorkloadStream instead of a
  /// materialized trace.
  bool streamed = false;
  flash::FlashOptions opts;
  flash::SimConfig sim;
  flash::ScenarioConfig scenario;
};

/// The named workload at `payments` per repetition (0 = its default);
/// throws std::invalid_argument on an unknown name.
WorkloadSpec find_workload(const std::string& name, std::size_t payments);

/// The sequential oracle of a replay workload: same inputs, kSequential
/// with payment_indexed_rng on (bit-identical by contract).
WorkloadSpec sequential_oracle(WorkloadSpec spec);

/// Generated inputs of one repetition; `stream` is set iff spec.streamed.
struct Inputs {
  std::unique_ptr<flash::Workload> workload;
  std::unique_ptr<flash::GeneratedWorkloadStream> stream;
};

/// Builds topology, balances, fees and the trace (or stream) from `seed`.
/// The same seed always yields the same inputs.
Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// Constructs the engine over `inputs` through the public constructors.
std::unique_ptr<flash::ScenarioEngine> make_engine(const WorkloadSpec& spec,
                                                   Inputs& inputs,
                                                   std::uint64_t seed);

}  // namespace perfbench
