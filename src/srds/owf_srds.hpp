// SRDS from one-way functions in the trusted-PKI model (paper Theorem 2.7).
//
// The "sortition" construction influenced by Algorand: during trusted key
// generation, each signer's verification key is — with probability
// q = lambda / N — a real WOTS key, and otherwise an *obliviously generated*
// key (a uniformly random string with no known signing key). Only the
// expected-lambda sortition winners can sign; an adversary inspecting the
// PKI cannot tell winners from losers, so corrupting parties after seeing
// the keys preserves the honest fraction among winners (Chernoff).
//
//   * Sign: WOTS signature (one-time use is exactly what the one-shot BA
//     boost needs), ⊥ for losers.
//   * Aggregate: concatenation — the ordered, index-deduplicated list of
//     valid base signatures. Since only ~lambda = polylog(n) signers exist,
//     an aggregate is polylog(n) * poly(κ) bits: succinct in the paper's
//     Õ(·) accounting even though every base signature travels to the root.
//   * Verify: count valid distinct base signatures; accept at >= lambda/2.
//
// Trusted PKI is essential: with a bare PKI the adversary would replace its
// keys with real (signing-capable) ones and own every sortition seat.
#pragma once

#include <optional>

#include "common/rng.hpp"
#include "crypto/wots.hpp"
#include "srds/srds.hpp"

namespace srds {

/// kWots is the faithful OWF instantiation; kCompact (registry-backed
/// 32-byte tags, secrets API-gated) serves the large-n protocol benchmarks.
using OwfSigBackend = BaseSigBackend;

struct OwfSrdsParams {
  std::size_t n_signers = 0;
  /// Expected number of sortition winners (the paper's polylog(n)).
  std::size_t expected_signers = 48;
  /// Accepting threshold as a fraction of expected_signers.
  double threshold_fraction = 0.5;
  OwfSigBackend backend = OwfSigBackend::kWots;
};

class OwfSrds final : public SrdsScheme {
 public:
  OwfSrds(const OwfSrdsParams& params, std::uint64_t setup_seed);

  std::string name() const override { return "owf-trusted-pki"; }
  std::size_t signer_count() const override { return params_.n_signers; }
  bool bare_pki() const override { return false; }
  std::uint64_t threshold() const override { return threshold_; }

  void keygen(std::size_t i) override;
  bool replace_key(std::size_t, const Bytes&) override { return false; }  // trusted PKI
  void finalize_keys() override;
  Bytes verification_key(std::size_t i) const override;

  Bytes sign(std::size_t i, BytesView m) const override;
  std::vector<Bytes> aggregate1(BytesView m, const std::vector<Bytes>& sigs) const override;
  Bytes aggregate2(BytesView m, const std::vector<Bytes>& filtered) const override;
  bool verify(BytesView m, BytesView sig) const override;

  bool index_range(BytesView sig, IndexRange& out) const override;
  std::uint64_t base_count(BytesView sig) const override;

  /// Whether signer i won the sortition. Exposed for experiments only — the
  /// model-level adversary must not consult this before corrupting (the real
  /// scheme hides it information-theoretically in the PKI).
  bool has_signing_key(std::size_t i) const;

  /// Actual number of sortition winners (experiments/diagnostics).
  std::size_t winner_count() const;

 private:
  struct Entry {
    Digest vk;
    std::optional<WotsKeyPair> kp;  // engaged iff sortition winner (kWots)
    std::optional<Bytes> secret;    // engaged iff winner (kCompact)
    bool generated = false;
    bool winner() const { return kp.has_value() || secret.has_value(); }
  };

  /// Validated (index, signature-bytes) pair extracted from a blob.
  /// sig_raw is a serialized WOTS signature (kWots) or a 32-byte tag.
  struct BaseSig {
    std::uint64_t index;
    Bytes sig_raw;
  };

  std::size_t base_sig_size() const;
  bool verify_base(std::uint64_t index, BytesView m, BytesView sig_raw) const;

  Bytes signing_target(std::uint64_t index, BytesView m) const;
  bool extract(BytesView blob, BytesView m, std::vector<BaseSig>& out) const;
  static Bytes encode(const std::vector<BaseSig>& sigs);

  OwfSrdsParams params_;
  std::uint64_t threshold_;
  Rng keygen_rng_;
  double win_probability_;
  std::vector<Entry> entries_;
  bool finalized_ = false;
};

}  // namespace srds
