// SRDS from CRH + SNARKs (simulated PCD) in the bare-PKI + CRS model
// (paper Theorem 2.8).
//
// Every signer locally generates a WOTS key pair and publishes the
// verification key on the bulletin board (bare PKI: the adversary may
// replace corrupted signers' keys as a function of everything public). The
// CRS commits to nothing but the SNARK setup; at finalize_keys() the key
// list is Merkle-committed so that statements can reference all N keys in
// 32 bytes.
//
// An aggregated signature is a constant-size PCD message:
//     statement = (H(m), vk-root, count, min, max),  proof = 64 bytes,
// so every aggregate — including the final one — is Õ(1) regardless of how
// many base signatures it covers. The PCD compliance predicate enforces:
//   * leaf aggregation: `count` distinct signer indices in [min, max], each
//     with a WOTS signature valid under a key that Merkle-opens into
//     vk-root (witness carries keys + opening paths; the verifier never
//     sees them — this is where Θ(n) bits of signer identity disappear);
//   * recursive aggregation: child statements agree on (H(m), vk-root) and
//     cover strictly increasing, pairwise-disjoint index ranges whose
//     counts sum — the CRH-based anti-duplication device of §2.2: a base
//     signature cannot be counted twice because its index would have to lie
//     in two disjoint ranges.
// Verification accepts iff the proof verifies, the statement's vk-root is
// the finalized one, and count >= threshold (half the signers by default).
#pragma once

#include <optional>

#include "common/rng.hpp"
#include "crypto/merkle.hpp"
#include "crypto/wots.hpp"
#include "snark/snark.hpp"
#include "srds/srds.hpp"

namespace srds {

struct SnarkSrdsParams {
  std::size_t n_signers = 0;
  /// Accepting threshold as a fraction of n_signers.
  double threshold_fraction = 0.5;
  /// kWots (faithful; supports bare-PKI key replacement) or kCompact
  /// (registry tags for large-n benches; replace_key unsupported there).
  BaseSigBackend backend = BaseSigBackend::kWots;
};

class SnarkSrds final : public SrdsScheme {
 public:
  SnarkSrds(const SnarkSrdsParams& params, std::uint64_t crs_seed);

  std::string name() const override { return "snark-bare-pki"; }
  std::size_t signer_count() const override { return params_.n_signers; }
  bool bare_pki() const override { return true; }
  std::uint64_t threshold() const override { return threshold_; }

  void keygen(std::size_t i) override;
  bool replace_key(std::size_t i, const Bytes& vk) override;  // bare PKI
  void finalize_keys() override;
  Bytes verification_key(std::size_t i) const override;

  Bytes sign(std::size_t i, BytesView m) override;
  std::vector<Bytes> aggregate1(BytesView m, const std::vector<Bytes>& sigs) const override;
  Bytes aggregate2(BytesView m, const std::vector<Bytes>& filtered) const override;
  bool verify(BytesView m, BytesView sig) const override;

  bool index_range(BytesView sig, IndexRange& out) const override;
  std::uint64_t base_count(BytesView sig) const override;

  /// The Merkle commitment to the finalized key list.
  const Digest& key_root() const { return key_root_; }

  /// WOTS signing target for signer `index` on message m (public: an
  /// adversary who replaced key i with its own WOTS key signs this itself).
  static Bytes signing_target(std::uint64_t index, BytesView m);

  /// Build a base-signature blob from an externally held WOTS key pair
  /// (used by bare-PKI adversaries for their replaced keys).
  static Bytes make_base_signature(std::uint64_t index, const WotsKeyPair& kp, BytesView m);

 private:
  struct ParsedAggregate {
    Digest m_digest;
    Digest root;
    std::uint64_t count = 0, min = 0, max = 0;
    SnarkProof proof;
  };

  static Digest message_digest(BytesView m);
  static Bytes statement_bytes(const Digest& md, const Digest& root, std::uint64_t count,
                               std::uint64_t min, std::uint64_t max);
  static bool parse_aggregate(BytesView blob, ParsedAggregate& out);
  bool parse_base(BytesView blob, const Digest& md, std::uint64_t& index) const;
  bool compliance_check(BytesView statement, BytesView witness,
                        const std::vector<PriorMessage>& priors) const;

  std::size_t base_sig_size() const;
  bool verify_base_raw(std::uint64_t index, BytesView sig_raw, BytesView target) const;

  SnarkSrdsParams params_;
  std::uint64_t threshold_;
  Rng keygen_rng_;
  SnarkOracle oracle_;
  ProverHandle prover_;

  std::vector<Digest> vks_;
  std::vector<std::optional<WotsKeyPair>> kps_;  // engaged for honest keygen (kWots)
  std::vector<std::optional<Bytes>> secrets_;    // engaged for honest keygen (kCompact)
  std::vector<bool> generated_;
  std::optional<MerkleTree> key_tree_;
  Digest key_root_;
  bool finalized_ = false;
};

}  // namespace srds
