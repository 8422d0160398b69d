#include "crypto/merkle.hpp"

#include <stdexcept>

#include "common/serial.hpp"
#include "crypto/sha256.hpp"
#include "obs/prof.hpp"

namespace srds {

namespace {
Digest odd_pad(const Digest& d) { return sha256_tagged("merkle-odd", d.view()); }
}  // namespace

Bytes MerklePath::serialize() const {
  Writer w;
  w.reserve(8 + 4 + 32 * siblings.size());
  w.u64(leaf_index);
  w.u32(static_cast<std::uint32_t>(siblings.size()));
  for (const auto& s : siblings) w.raw(s.view());
  return std::move(w).take();
}

bool MerklePath::deserialize(BytesView data, MerklePath& out) {
  Reader r(data);
  out.leaf_index = r.u64();
  std::uint32_t n = r.u32();
  if (n > 64) return false;  // a tree deeper than 2^64 leaves is malformed
  out.siblings.clear();
  out.siblings.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    BytesView raw = r.view(32);
    if (!r.ok()) return false;
    out.siblings.push_back(Digest::from(raw));
  }
  return r.done();
}

MerkleTree::MerkleTree(std::vector<Digest> leaves) : leaf_count_(leaves.size()) {
  PROF_SCOPE(obs::ProfSiteId::kCryptoMerkleBuild);
  if (leaves.empty()) throw std::invalid_argument("MerkleTree: needs >= 1 leaf");
  levels_.push_back(std::move(leaves));
  while (levels_.back().size() > 1) {
    const auto& cur = levels_.back();
    std::vector<Digest> next;
    next.reserve((cur.size() + 1) / 2);
    for (std::size_t i = 0; i < cur.size(); i += 2) {
      if (i + 1 < cur.size()) {
        next.push_back(sha256_pair(cur[i], cur[i + 1]));
      } else {
        next.push_back(sha256_pair(cur[i], odd_pad(cur[i])));
      }
    }
    levels_.push_back(std::move(next));
  }
  root_ = levels_.back()[0];
}

MerklePath MerkleTree::path(std::uint64_t leaf_index) const {
  if (leaf_index >= leaf_count_) throw std::out_of_range("MerkleTree::path: bad index");
  MerklePath p;
  p.leaf_index = leaf_index;
  p.siblings.reserve(levels_.size() - 1);
  std::size_t idx = static_cast<std::size_t>(leaf_index);
  for (std::size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
    const auto& cur = levels_[lvl];
    std::size_t sib = (idx % 2 == 0) ? idx + 1 : idx - 1;
    if (sib < cur.size()) {
      p.siblings.push_back(cur[sib]);
    } else {
      p.siblings.push_back(odd_pad(cur[idx]));
    }
    idx /= 2;
  }
  return p;
}

bool MerkleTree::verify(const Digest& root, const Digest& leaf, const MerklePath& path,
                        std::size_t leaf_count) {
  PROF_SCOPE(obs::ProfSiteId::kCryptoMerkleVerify);
  if (leaf_count == 0 || path.leaf_index >= leaf_count) return false;
  // Depth check: path length must match the tree height for this leaf count.
  std::size_t expect_depth = 0;
  for (std::size_t w = leaf_count; w > 1; w = (w + 1) / 2) ++expect_depth;
  if (path.siblings.size() != expect_depth) return false;

  Digest cur = leaf;
  std::size_t idx = static_cast<std::size_t>(path.leaf_index);
  for (const auto& sib : path.siblings) {
    cur = (idx % 2 == 0) ? sha256_pair(cur, sib) : sha256_pair(sib, cur);
    idx /= 2;
  }
  return cur == root;
}

Digest merkle_root(const std::vector<Bytes>& leaves) {
  std::vector<Digest> hashed;
  hashed.reserve(leaves.size());
  for (const auto& l : leaves) hashed.push_back(sha256(l));
  return MerkleTree(std::move(hashed)).root();
}

}  // namespace srds
