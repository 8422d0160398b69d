// Scalable MPC over the communication tree — Corollary 1.2(2).
//
// The corollary: given FHE, any f over n inputs is securely computable
// with *total* communication n·polylog(n)·poly(κ)·(ℓ_in + ℓ_out). This
// module reproduces the protocol shape for the canonical aggregate
// functions (sum, and majority as sum-vs-threshold):
//   * round 0: every party encrypts its input under the committee's public
//     key and sends the constant-size ciphertext to its home leaf committee
//     (one leaf per party, so inputs count once);
//   * aggregation: each tree node's committee homomorphically sums the
//     (per-sender-deduplicated) ciphertexts and passes one ciphertext up —
//     deterministic evaluation makes honest members' outputs identical, so
//     parents vote per child exactly as in dissemination;
//   * decryption: supreme-committee members exchange partial-decryption
//     messages; with a threshold of cooperating members the result opens;
//   * delivery: the plaintext result is disseminated down the tree.
// Every message is O(κ) bits and every party touches polylog(n) peers, so
// total communication is n·polylog — the corollary's bound, measured by
// the simulator.
#pragma once

#include <cstdint>
#include <optional>

#include "net/stats.hpp"
#include "obs/trace.hpp"

namespace srds {

struct MpcRunConfig {
  std::size_t n = 0;
  double beta = 0.0;  // fail-silent corruption
  std::uint64_t seed = 1;
  /// Each honest party's input (corrupted parties contribute nothing).
  std::uint64_t input_value = 1;
  /// Optional observability sink (non-owning; e.g. an obs::Ledger for the
  /// per-party byte distribution). Installed on the simulator for the run.
  obs::TraceSink* trace = nullptr;
  /// Simulator worker threads (Simulator::set_workers; 0 = automatic).
  std::size_t workers = 0;
};

struct MpcRunResult {
  NetworkStats stats{0};
  std::size_t rounds = 0;
  std::size_t honest = 0;
  std::size_t decided = 0;     // honest parties that learned the output
  bool agreement = true;
  std::optional<std::uint64_t> output;  // the (unique) decided sum
  std::uint64_t expected_sum = 0;       // sum of honest inputs
};

/// Run the tree-MPC computing the sum of all parties' inputs.
MpcRunResult run_scalable_sum_mpc(const MpcRunConfig& config);

}  // namespace srds
