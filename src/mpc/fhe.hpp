// Simulated fully homomorphic encryption — the ingredient Corollary 1.2(2)
// adds on top of the BA machinery to get scalable MPC.
//
// SUBSTITUTION (DESIGN.md S1-style): no lattice FHE backend exists offline,
// and none of the corollary's *communication* claims depend on the
// ciphertext algebra — only on ciphertexts being (a) constant size and
// (b) combinable without decryption. We therefore implement a
// designated-oracle FHE: a `FheOracle` holds the secret key; `Ciphertext`
// is an opaque fixed-size handle (an authenticated reference into the
// oracle's plaintext store, randomized so equal plaintexts are
// unlinkable); `add`/`mul` create fresh handles whose plaintexts the
// oracle computes; decryption is gated behind a threshold of key-share
// capabilities handed to the supreme committee. Parties and adversaries
// never see plaintexts they did not encrypt — semantic security holds
// against the simulated adversaries by construction, and every
// communication measurement matches a real FHE deployment with ~constant
// ciphertext size.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "common/bytes.hpp"
#include "crypto/digest.hpp"

namespace srds {

/// Opaque fixed-size ciphertext handle (64 bytes on the wire: 32-byte id +
/// 32-byte authentication tag, standing in for a compact FHE ciphertext).
struct Ciphertext {
  Digest id;
  Digest tag;

  bool operator==(const Ciphertext&) const = default;
  Bytes serialize() const;
  static bool deserialize(BytesView data, Ciphertext& out);
  static constexpr std::size_t kSize = 64;
};

class FheOracle;

/// One committee member's decryption-share capability. `t+1` distinct
/// shares jointly decrypt (mirroring threshold FHE key distribution).
class DecryptionShare {
 public:
  std::size_t holder() const { return holder_; }

 private:
  friend class FheOracle;
  DecryptionShare(std::shared_ptr<FheOracle> oracle, std::size_t holder)
      : oracle_(std::move(oracle)), holder_(holder) {}
  std::shared_ptr<FheOracle> oracle_;
  std::size_t holder_;
};

/// The trusted setup: key generation + the homomorphic evaluator.
/// Plaintexts are 64-bit integers (enough for counting/majority circuits).
class FheOracle : public std::enable_shared_from_this<FheOracle> {
 public:
  static std::shared_ptr<FheOracle> create(std::uint64_t seed, std::size_t threshold);

  /// Public encryption (anyone can encrypt). The handle derives from data
  /// the caller supplies: `source` names the encrypting party and `seq`
  /// counts that party's own encryptions, so handles never depend on the
  /// order in which parties step (they may encrypt concurrently). Reusing a
  /// (source, seq) pair for one plaintext returns the same handle.
  Ciphertext encrypt(std::uint64_t source, std::uint64_t seq, std::uint64_t plaintext);

  /// Homomorphic operations: valid input handles yield a fresh handle;
  /// forged handles yield nullopt.
  std::optional<Ciphertext> add(const Ciphertext& a, const Ciphertext& b);
  std::optional<Ciphertext> mul_const(const Ciphertext& a, std::uint64_t k);

  /// Is this a well-formed ciphertext under this key?
  bool valid(const Ciphertext& c) const;

  /// Hand out key shares (done once at setup, to the supreme committee).
  DecryptionShare issue_share(std::size_t holder);

  /// Threshold decryption: needs >= threshold distinct holders' shares.
  std::optional<std::uint64_t> decrypt(const Ciphertext& c,
                                       const std::vector<DecryptionShare>& shares) const;

  std::size_t threshold() const { return threshold_; }

 private:
  explicit FheOracle(std::uint64_t seed, std::size_t threshold);
  Digest tag_for(const Digest& id) const;
  /// The plaintext behind a well-formed handle; nullopt for a forgery.
  std::optional<std::uint64_t> plaintext_of(const Ciphertext& c) const;
  Ciphertext record(const Digest& id, std::uint64_t plaintext);

  Bytes key_;
  std::size_t threshold_;
  // The plaintext store is shared by every party's step, which may run on
  // different simulator workers; every access holds mu_. Entries are
  // insert-only and a handle always maps to one plaintext, so the table's
  // contents do not depend on the order of the inserts.
  mutable std::mutex mu_;
  std::map<Digest, std::uint64_t> plaintexts_;
};

}  // namespace srds
