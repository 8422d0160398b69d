#include "srds/owf_srds.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/serial.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "obs/prof.hpp"

namespace srds {

namespace {
// Blob layout: u8 tag (1 = aggregate; base signatures are singleton
// aggregates), u64 min, u64 max, u32 count, count x (u64 index, sig bytes).
constexpr std::uint8_t kTagAggregate = 1;
}  // namespace

OwfSrds::OwfSrds(const OwfSrdsParams& params, std::uint64_t setup_seed)
    : params_(params),
      threshold_(static_cast<std::uint64_t>(
          static_cast<double>(params.expected_signers) * params.threshold_fraction)),
      keygen_rng_(setup_seed ^ 0x6f77667372647321ULL),
      entries_(params.n_signers) {
  if (params_.n_signers == 0) throw std::invalid_argument("OwfSrds: n_signers == 0");
  if (params_.expected_signers == 0 || params_.expected_signers > params_.n_signers) {
    throw std::invalid_argument("OwfSrds: expected_signers out of range");
  }
  win_probability_ = static_cast<double>(params_.expected_signers) /
                     static_cast<double>(params_.n_signers);
  if (threshold_ == 0) threshold_ = 1;
}

std::size_t OwfSrds::base_sig_size() const {
  return params_.backend == OwfSigBackend::kWots ? WotsSignature::kSerializedSize : 32;
}

void OwfSrds::keygen(std::size_t i) {
  if (i >= entries_.size()) throw std::out_of_range("OwfSrds::keygen: bad index");
  if (finalized_) throw std::logic_error("OwfSrds::keygen: keys already finalized");
  Entry& e = entries_[i];
  if (e.generated) return;
  if (keygen_rng_.chance(win_probability_)) {
    if (params_.backend == OwfSigBackend::kWots) {
      Bytes seed = keygen_rng_.bytes(32);
      e.kp = wots_keygen(seed);
      e.vk = e.kp->verification_key;
    } else {
      e.secret = keygen_rng_.bytes(32);
      e.vk = sha256_tagged("owf-compact-vk", *e.secret);
    }
  } else {
    e.vk = wots_oblivious_keygen(keygen_rng_);
  }
  e.generated = true;
}

void OwfSrds::finalize_keys() {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!entries_[i].generated) keygen(i);
  }
  finalized_ = true;
}

Bytes OwfSrds::verification_key(std::size_t i) const {
  if (i >= entries_.size() || !entries_[i].generated) return {};
  return entries_[i].vk.to_bytes();
}

bool OwfSrds::has_signing_key(std::size_t i) const {
  return i < entries_.size() && entries_[i].winner();
}

std::size_t OwfSrds::winner_count() const {
  std::size_t c = 0;
  for (const auto& e : entries_) c += e.winner() ? 1 : 0;
  return c;
}

Bytes OwfSrds::signing_target(std::uint64_t index, BytesView m) const {
  Writer w;
  w.u64(index);
  w.bytes(m);
  return sha256_tagged("owf-srds-msg", w.data()).to_bytes();
}

bool OwfSrds::verify_base(std::uint64_t index, BytesView m, BytesView sig_raw) const {
  const Entry& e = entries_[index];
  Bytes target = signing_target(index, m);
  if (params_.backend == OwfSigBackend::kWots) {
    WotsSignature sig;
    if (!WotsSignature::deserialize(sig_raw, sig)) return false;
    return wots_verify(e.vk, target, sig);
  }
  // Compact backend: only sortition winners have a registry secret; a tag
  // under a loser's (nonexistent) key can never verify.
  if (!e.secret.has_value() || sig_raw.size() != 32) return false;
  return hmac_sha256(*e.secret, target) == Digest::from(sig_raw);
}

Bytes OwfSrds::encode(const std::vector<BaseSig>& sigs) {
  PROF_SCOPE(obs::ProfSiteId::kSrdsSerialize);
  if (sigs.empty()) return {};
  Writer w;
  w.u8(kTagAggregate);
  w.u64(sigs.front().index);
  w.u64(sigs.back().index);
  w.u32(static_cast<std::uint32_t>(sigs.size()));
  for (const auto& bs : sigs) {
    w.u64(bs.index);
    w.raw(bs.sig_raw);
  }
  return std::move(w).take();
}

bool OwfSrds::extract(BytesView blob, BytesView m, std::vector<BaseSig>& out) const {
  PROF_SCOPE(obs::ProfSiteId::kSrdsDeserialize);
  Reader r(blob);
  if (r.u8() != kTagAggregate) return false;
  std::uint64_t min = r.u64();
  std::uint64_t max = r.u64();
  std::uint32_t count = r.u32();
  if (!r.ok() || count == 0 || count > entries_.size()) return false;
  std::vector<BaseSig> sigs;
  sigs.reserve(count);
  std::uint64_t prev = 0;
  for (std::uint32_t k = 0; k < count; ++k) {
    BaseSig bs;
    bs.index = r.u64();
    bs.sig_raw = r.raw(base_sig_size());
    if (!r.ok()) return false;
    if (bs.index >= entries_.size()) return false;
    if (k > 0 && bs.index <= prev) return false;  // strictly increasing
    prev = bs.index;
    if (!verify_base(bs.index, m, bs.sig_raw)) return false;
    sigs.push_back(std::move(bs));
  }
  if (!r.done()) return false;
  if (sigs.front().index != min || sigs.back().index != max) return false;
  out = std::move(sigs);
  return true;
}

Bytes OwfSrds::sign(std::size_t i, BytesView m) const {
  PROF_SCOPE(obs::ProfSiteId::kSrdsSign);
  if (i >= entries_.size()) throw std::out_of_range("OwfSrds::sign: bad index");
  if (!finalized_) throw std::logic_error("OwfSrds::sign: keys not finalized");
  const Entry& e = entries_[i];
  if (!e.winner()) return {};  // ⊥: sortition loser
  Bytes target = signing_target(i, m);
  std::vector<BaseSig> one;
  if (params_.backend == OwfSigBackend::kWots) {
    one.push_back(BaseSig{i, wots_sign(*e.kp, target).serialize()});
  } else {
    one.push_back(BaseSig{i, hmac_sha256(*e.secret, target).to_bytes()});
  }
  return encode(one);
}

std::vector<Bytes> OwfSrds::aggregate1(BytesView m, const std::vector<Bytes>& sigs) const {
  PROF_SCOPE(obs::ProfSiteId::kSrdsAggregate1);
  // Deterministic filter: keep blobs that fully verify on m.
  std::vector<Bytes> kept;
  kept.reserve(sigs.size());
  for (const auto& blob : sigs) {
    std::vector<BaseSig> parsed;
    if (extract(blob, m, parsed)) kept.push_back(blob);
  }
  return kept;
}

Bytes OwfSrds::aggregate2(BytesView m, const std::vector<Bytes>& filtered) const {
  PROF_SCOPE(obs::ProfSiteId::kSrdsAggregate2);
  // Concatenation: merge all base signatures, dedup by index. Invalid blobs
  // (aggregate2 trusts aggregate1, but remains safe) are skipped.
  std::vector<BaseSig> merged;
  for (const auto& blob : filtered) {
    std::vector<BaseSig> parsed;
    if (!extract(blob, m, parsed)) continue;
    merged.insert(merged.end(), std::make_move_iterator(parsed.begin()),
                  std::make_move_iterator(parsed.end()));
  }
  if (merged.empty()) return {};
  std::sort(merged.begin(), merged.end(),
            [](const BaseSig& a, const BaseSig& b) { return a.index < b.index; });
  std::vector<BaseSig> dedup;
  dedup.reserve(merged.size());
  for (auto& bs : merged) {
    if (dedup.empty() || dedup.back().index != bs.index) dedup.push_back(std::move(bs));
  }
  return encode(dedup);
}

bool OwfSrds::verify(BytesView m, BytesView sig) const {
  PROF_SCOPE(obs::ProfSiteId::kSrdsVerify);
  std::vector<BaseSig> parsed;
  if (!extract(sig, m, parsed)) return false;
  return parsed.size() >= threshold_;
}

bool OwfSrds::index_range(BytesView sig, IndexRange& out) const {
  Reader r(sig);
  if (r.u8() != kTagAggregate) return false;
  out.min = r.u64();
  out.max = r.u64();
  return r.ok() && out.min <= out.max;
}

std::uint64_t OwfSrds::base_count(BytesView sig) const {
  Reader r(sig);
  if (r.u8() != kTagAggregate) return 0;
  r.u64();
  r.u64();
  std::uint32_t count = r.u32();
  return r.ok() ? count : 0;
}

}  // namespace srds
