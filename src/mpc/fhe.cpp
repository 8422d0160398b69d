#include "mpc/fhe.hpp"

#include <set>

#include "common/rng.hpp"
#include "common/serial.hpp"
#include "crypto/hmac.hpp"

namespace srds {

Bytes Ciphertext::serialize() const {
  Writer w;
  w.raw(id.view());
  w.raw(tag.view());
  return std::move(w).take();
}

bool Ciphertext::deserialize(BytesView data, Ciphertext& out) {
  Reader r(data);
  Bytes id_raw = r.raw(32);
  Bytes tag_raw = r.raw(32);
  if (!r.done()) return false;
  out.id = Digest::from(id_raw);
  out.tag = Digest::from(tag_raw);
  return true;
}

std::shared_ptr<FheOracle> FheOracle::create(std::uint64_t seed, std::size_t threshold) {
  return std::shared_ptr<FheOracle>(new FheOracle(seed, threshold));
}

FheOracle::FheOracle(std::uint64_t seed, std::size_t threshold) : threshold_(threshold) {
  Rng rng(seed ^ 0x6668652d6f7261ULL);
  key_ = rng.bytes(32);
}

Digest FheOracle::tag_for(const Digest& id) const { return hmac_sha256(key_, id.view()); }

Ciphertext FheOracle::record(const Digest& id, std::uint64_t plaintext) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    plaintexts_.emplace(id, plaintext);
  }
  return Ciphertext{id, tag_for(id)};
}

std::optional<std::uint64_t> FheOracle::plaintext_of(const Ciphertext& c) const {
  if (!(tag_for(c.id) == c.tag)) return std::nullopt;
  std::lock_guard<std::mutex> lk(mu_);
  auto it = plaintexts_.find(c.id);
  if (it == plaintexts_.end()) return std::nullopt;
  return it->second;
}

Ciphertext FheOracle::encrypt(std::uint64_t source, std::uint64_t seq,
                              std::uint64_t plaintext) {
  Writer w;
  w.u64(source);
  w.u64(seq);
  w.u64(plaintext);
  return record(hmac_sha256(key_, concat(to_bytes("ct-id"), w.data())), plaintext);
}

bool FheOracle::valid(const Ciphertext& c) const { return plaintext_of(c).has_value(); }

std::optional<Ciphertext> FheOracle::add(const Ciphertext& a, const Ciphertext& b) {
  const auto pa = plaintext_of(a);
  const auto pb = plaintext_of(b);
  if (!pa || !pb) return std::nullopt;
  // Deterministic in the operand handles: every party evaluating the same
  // homomorphic circuit over the same ciphertexts derives the *same* output
  // handle, so committee members' results can be compared/majority-voted.
  // (Real FHE achieves the same by agreeing on evaluation randomness.)
  return record(hmac_sha256(key_, concat(to_bytes("ct-add"), a.id.to_bytes(),
                                         b.id.to_bytes())),
                *pa + *pb);
}

std::optional<Ciphertext> FheOracle::mul_const(const Ciphertext& a, std::uint64_t k) {
  const auto pa = plaintext_of(a);
  if (!pa) return std::nullopt;
  Writer w;
  w.u64(k);
  return record(hmac_sha256(key_, concat(to_bytes("ct-mul"), a.id.to_bytes(), w.data())),
                *pa * k);
}

DecryptionShare FheOracle::issue_share(std::size_t holder) {
  return DecryptionShare(shared_from_this(), holder);
}

std::optional<std::uint64_t> FheOracle::decrypt(
    const Ciphertext& c, const std::vector<DecryptionShare>& shares) const {
  const auto pt = plaintext_of(c);
  if (!pt) return std::nullopt;
  std::set<std::size_t> holders;
  for (const auto& s : shares) {
    if (s.oracle_.get() == this) holders.insert(s.holder());
  }
  if (holders.size() < threshold_) return std::nullopt;
  return pt;
}

}  // namespace srds
