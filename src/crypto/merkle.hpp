// Merkle hash trees over byte-string leaves.
//
// Used to bind partially-aggregated SRDS signatures to the multiset of base
// signatures they contain (the CRH-based anti-duplication device of the
// SNARK-based construction, paper §2.2).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/digest.hpp"

namespace srds {

/// An authentication path from a leaf to the root.
struct MerklePath {
  std::uint64_t leaf_index = 0;
  std::vector<Digest> siblings;  // bottom-up

  Bytes serialize() const;
  static bool deserialize(BytesView data, MerklePath& out);
};

/// Immutable Merkle tree built over a vector of pre-hashed leaves.
/// Interior node = SHA-256(left || right); odd nodes are paired with a
/// domain-separated copy of themselves, which keeps proofs well-defined for
/// any leaf count >= 1.
class MerkleTree {
 public:
  explicit MerkleTree(std::vector<Digest> leaves);

  const Digest& root() const { return root_; }
  std::size_t leaf_count() const { return leaf_count_; }

  MerklePath path(std::uint64_t leaf_index) const;

  /// Verify that `leaf` at `path.leaf_index` hashes up to `root`.
  static bool verify(const Digest& root, const Digest& leaf, const MerklePath& path,
                     std::size_t leaf_count);

 private:
  std::size_t leaf_count_;
  // levels_[0] = leaves, levels_.back() = {root}
  std::vector<std::vector<Digest>> levels_;
  Digest root_;
};

/// Convenience: Merkle root over raw byte leaves (each leaf hashed first).
Digest merkle_root(const std::vector<Bytes>& leaves);

}  // namespace srds
