// Succinctly Reconstructed Distributed Signatures (SRDS) — the paper's
// primary contribution (Definition 2.1).
//
// An SRDS scheme lets N signers each produce a base signature on a message
// m; signatures can be aggregated *succinctly* — in particular, the final
// signature (including everything needed to verify it) is Õ(1), and
// verification certifies that a large number (a majority-like threshold) of
// base signatures on m were aggregated, without naming the signers.
//
// The interface mirrors the paper's quintuple (Setup, KeyGen, Sign,
// Aggregate, Verify), with the Definition 2.2 decomposition
// Aggregate = Aggregate2 ∘ Aggregate1:
//   * aggregate1 is deterministic, may use the verification keys, and
//     filters the input signatures down to a valid polylog-size subset;
//   * aggregate2 combines the filtered signatures without touching the key
//     list (its input is short, so it could run inside a small MPC — both
//     of our constructions make it deterministic, which is why the
//     f_aggr-sig functionality degenerates to local computation; DESIGN.md
//     substitution S3).
//
// Per the paper's convention, every signature encodes the min and max signer
// index it covers (min == max for base signatures); the BA protocol's range
// checks (Fig. 3 step 5c) and the anti-duplication argument rely on these.
//
// Lifecycle: construct (Setup) -> keygen(i) for each signer i (or
// replace_key for bare-PKI adversaries) -> finalize_keys() -> sign /
// aggregate / verify.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace srds {

/// Base-signature backend shared by the concrete schemes.
///   kWots    — real hash-based one-time signatures (faithful, ~2.1 KiB);
///   kCompact — registry-backed 32-byte tags for large-n protocol
///              simulations (same interface and poly(κ)-size shape; see
///              DESIGN.md). Crypto-level tests always run kWots.
enum class BaseSigBackend { kWots, kCompact };

/// Inclusive signer-index range covered by a signature.
struct IndexRange {
  std::uint64_t min = 0;
  std::uint64_t max = 0;
};

class SrdsScheme {
 public:
  virtual ~SrdsScheme() = default;

  /// Human-readable scheme name ("owf-trusted-pki", "snark-bare-pki").
  virtual std::string name() const = 0;

  /// Number of signers N (virtual parties in the BA protocol).
  virtual std::size_t signer_count() const = 0;

  /// True for bare-PKI schemes (the adversary may replace corrupted keys).
  virtual bool bare_pki() const = 0;

  /// Accepting threshold: verify() succeeds only for aggregates covering at
  /// least this many base signatures.
  virtual std::uint64_t threshold() const = 0;

  // --- key management ---

  /// Honest key generation for signer i (KeyGen(pp)). Idempotent per index.
  virtual void keygen(std::size_t i) = 0;

  /// Bare-PKI schemes allow the adversary to substitute a corrupted
  /// signer's verification key before finalize_keys(); trusted-PKI schemes
  /// return false and ignore the call.
  virtual bool replace_key(std::size_t i, const Bytes& vk) = 0;

  /// Freeze the PKI (e.g., commit to the key list). Must be called once,
  /// after all keygen/replace_key calls and before sign/aggregate/verify.
  virtual void finalize_keys() = 0;

  /// Signer i's public verification key (valid after keygen(i)).
  virtual Bytes verification_key(std::size_t i) const = 0;

  // --- signing and aggregation ---

  /// Sign(pp, i, sk_i, m). Returns the base-signature blob, or empty for ⊥
  /// (e.g., OWF-SRDS signers whose sortition coin gave no signing key).
  virtual Bytes sign(std::size_t i, BytesView m) const = 0;

  /// Aggregate1: deterministic filter of candidate signatures (base or
  /// aggregated) into a valid subset.
  virtual std::vector<Bytes> aggregate1(BytesView m,
                                        const std::vector<Bytes>& sigs) const = 0;

  /// Aggregate2: combine an Aggregate1-filtered subset into one signature.
  /// Returns empty on failure (e.g., nothing to combine).
  virtual Bytes aggregate2(BytesView m, const std::vector<Bytes>& filtered) const = 0;

  /// Aggregate = Aggregate2 ∘ Aggregate1 (convenience).
  Bytes aggregate(BytesView m, const std::vector<Bytes>& sigs) const {
    return aggregate2(m, aggregate1(m, sigs));
  }

  /// Verify(pp, {vk}, m, σ): accept iff σ aggregates >= threshold() base
  /// signatures on m.
  virtual bool verify(BytesView m, BytesView sig) const = 0;

  // --- signature introspection (paper's max(σ)/min(σ)) ---

  /// Extract the signer-index range encoded in a signature blob.
  /// Returns false on malformed input.
  virtual bool index_range(BytesView sig, IndexRange& out) const = 0;

  /// Number of base signatures a blob claims to aggregate (1 for base).
  virtual std::uint64_t base_count(BytesView sig) const = 0;
};

using SrdsSchemePtr = std::shared_ptr<SrdsScheme>;

}  // namespace srds
