#include "srds/snark_srds.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/serial.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "obs/prof.hpp"

namespace srds {

namespace {

constexpr std::uint8_t kTagBase = 0;
constexpr std::uint8_t kTagAggregate = 1;

// SHA-256 of (u64 LE index || md) under the signing tag, on the stack.
Digest target_from_md(std::uint64_t index, const Digest& md) {
  std::uint8_t buf[8 + 32];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<std::uint8_t>(index >> (8 * i));
  std::memcpy(buf + 8, md.v.data(), md.v.size());
  return sha256_tagged("snark-srds-sig", BytesView{buf, sizeof buf});
}

}  // namespace

SnarkSrds::SnarkSrds(const SnarkSrdsParams& params, std::uint64_t crs_seed)
    : params_(params),
      threshold_(static_cast<std::uint64_t>(
          static_cast<double>(params.n_signers) * params.threshold_fraction)),
      keygen_rng_(crs_seed ^ 0x736e61726b737264ULL),
      oracle_(crs_seed),
      // The predicate closure captures `this` for base-signature
      // verification; SnarkSrds objects must stay at a fixed address (use
      // std::unique_ptr / std::shared_ptr, never copy).
      prover_(oracle_.register_predicate(
          [this](BytesView st, BytesView w, const std::vector<PriorMessage>& priors) {
            return this->compliance_check(st, w, priors);
          })),
      vks_(params.n_signers),
      kps_(params.n_signers),
      secrets_(params.n_signers),
      generated_(params.n_signers, false) {
  if (params_.n_signers == 0) throw std::invalid_argument("SnarkSrds: n_signers == 0");
  if (threshold_ == 0) threshold_ = 1;
}

std::size_t SnarkSrds::base_sig_size() const {
  return params_.backend == BaseSigBackend::kWots ? WotsSignature::kSerializedSize : 32;
}

Digest SnarkSrds::message_digest(BytesView m) { return sha256_tagged("snark-srds-m", m); }

Bytes SnarkSrds::signing_target(std::uint64_t index, BytesView m) {
  return target_from_md(index, message_digest(m)).to_bytes();
}

bool SnarkSrds::verify_base_raw(std::uint64_t index, BytesView sig_raw,
                                BytesView target) const {
  if (index >= vks_.size()) return false;
  if (params_.backend == BaseSigBackend::kWots) {
    WotsSignature sig;
    if (!WotsSignature::deserialize(sig_raw, sig)) return false;
    return wots_verify(vks_[index], target, sig);
  }
  if (!secrets_[index].has_value() || sig_raw.size() != 32) return false;
  return hmac_sha256(*secrets_[index], target) == Digest::from(sig_raw);
}

bool SnarkSrds::compliance_check(BytesView statement, BytesView witness,
                                 const std::vector<PriorMessage>& priors) const {
  const std::size_t n_signers = params_.n_signers;
  Reader st(statement);
  BytesView md_raw = st.view(32);
  BytesView root_raw = st.view(32);
  std::uint64_t count = st.u64();
  std::uint64_t min = st.u64();
  std::uint64_t max = st.u64();
  if (!st.done() || count == 0 || min > max) return false;
  Digest md = Digest::from(md_raw);
  Digest root = Digest::from(root_raw);

  if (priors.empty()) {
    // Leaf aggregation: verify `count` distinct base signatures whose keys
    // Merkle-open into the committed key list.
    Reader w(witness);
    std::uint32_t k = w.u32();
    if (k != count || k == 0 || k > n_signers) return false;
    std::uint64_t prev = 0;
    for (std::uint32_t e = 0; e < k; ++e) {
      std::uint64_t index = w.u64();
      BytesView vk_raw = w.view(32);
      BytesView path_raw = w.bytes_view();
      BytesView sig_raw = w.bytes_view();
      if (!w.ok()) return false;
      if (index >= n_signers || index < min || index > max) return false;
      if (e > 0 && index <= prev) return false;
      if (e == 0 && index != min) return false;
      if (e + 1 == k && index != max) return false;
      prev = index;

      Digest vk = Digest::from(vk_raw);
      MerklePath path;
      if (!MerklePath::deserialize(path_raw, path)) return false;
      if (path.leaf_index != index) return false;
      if (!MerkleTree::verify(root, sha256_tagged("srds-vk-leaf", vk.view()), path,
                              n_signers)) {
        return false;
      }
      if (!verify_base_raw(index, sig_raw, target_from_md(index, md).view())) {
        return false;
      }
    }
    return w.done();
  }

  // Recursive aggregation: children sorted, disjoint, consistent, summing.
  std::uint64_t sum = 0;
  std::uint64_t prev_max = 0;
  for (std::size_t i = 0; i < priors.size(); ++i) {
    Reader pr(priors[i].statement);
    BytesView p_md = pr.view(32);
    BytesView p_root = pr.view(32);
    std::uint64_t p_count = pr.u64();
    std::uint64_t p_min = pr.u64();
    std::uint64_t p_max = pr.u64();
    if (!pr.done() || p_count == 0 || p_min > p_max) return false;
    if (Digest::from(p_md) != md || Digest::from(p_root) != root) return false;
    if (i == 0) {
      if (p_min != min) return false;
    } else if (p_min <= prev_max) {
      return false;  // overlap or disorder => a base signature could repeat
    }
    if (i + 1 == priors.size() && p_max != max) return false;
    if (p_max > max || p_min < min) return false;
    prev_max = p_max;
    sum += p_count;
  }
  return sum == count;
}

Bytes SnarkSrds::statement_bytes(const Digest& md, const Digest& root, std::uint64_t count,
                                 std::uint64_t min, std::uint64_t max) {
  Writer w;
  w.raw(md.view());
  w.raw(root.view());
  w.u64(count);
  w.u64(min);
  w.u64(max);
  return std::move(w).take();
}

void SnarkSrds::keygen(std::size_t i) {
  if (i >= vks_.size()) throw std::out_of_range("SnarkSrds::keygen: bad index");
  if (finalized_) throw std::logic_error("SnarkSrds::keygen: keys already finalized");
  if (generated_[i]) return;
  if (params_.backend == BaseSigBackend::kWots) {
    Bytes seed = keygen_rng_.bytes(32);
    kps_[i] = wots_keygen(seed);
    vks_[i] = kps_[i]->verification_key;
  } else {
    secrets_[i] = keygen_rng_.bytes(32);
    vks_[i] = sha256_tagged("snark-compact-vk", *secrets_[i]);
  }
  generated_[i] = true;
}

bool SnarkSrds::replace_key(std::size_t i, const Bytes& vk) {
  if (finalized_ || i >= vks_.size() || vk.size() != 32) return false;
  if (params_.backend != BaseSigBackend::kWots) return false;  // bench backend
  vks_[i] = Digest::from(vk);
  kps_[i].reset();  // the scheme no longer knows a signing key for i
  generated_[i] = true;
  return true;
}

void SnarkSrds::finalize_keys() {
  for (std::size_t i = 0; i < vks_.size(); ++i) {
    if (!generated_[i]) keygen(i);
  }
  std::vector<Digest> leaves;
  leaves.reserve(vks_.size());
  for (const auto& vk : vks_) leaves.push_back(sha256_tagged("srds-vk-leaf", vk.view()));
  key_tree_.emplace(std::move(leaves));
  key_root_ = key_tree_->root();
  finalized_ = true;
}

Bytes SnarkSrds::verification_key(std::size_t i) const {
  if (i >= vks_.size() || !generated_[i]) return {};
  return vks_[i].to_bytes();
}

Bytes SnarkSrds::make_base_signature(std::uint64_t index, const WotsKeyPair& kp, BytesView m) {
  PROF_SCOPE(obs::ProfSiteId::kSrdsSerialize);
  Writer w;
  w.u8(kTagBase);
  w.u64(index);
  w.raw(wots_sign(kp, signing_target(index, m)).serialize());
  return std::move(w).take();
}

// srds-lint: shard-root(SnarkSrds::sign) — per-party signing entry; a
// sharded simulator calls this concurrently across parties (rule C1).
Bytes SnarkSrds::sign(std::size_t i, BytesView m) {
  PROF_SCOPE(obs::ProfSiteId::kSrdsSign);
  if (i >= vks_.size()) throw std::out_of_range("SnarkSrds::sign: bad index");
  if (!finalized_) throw std::logic_error("SnarkSrds::sign: keys not finalized");
  if (params_.backend == BaseSigBackend::kWots) {
    if (!kps_[i].has_value()) return {};  // replaced key: scheme holds no sk
    return make_base_signature(i, *kps_[i], m);
  }
  Writer w;
  w.u8(kTagBase);
  w.u64(i);
  w.raw(hmac_sha256(*secrets_[i], signing_target(i, m)).view());
  return std::move(w).take();
}

bool SnarkSrds::parse_base(BytesView blob, const Digest& md, std::uint64_t& index) const {
  Reader r(blob);
  if (r.u8() != kTagBase) return false;
  index = r.u64();
  BytesView sig_raw = r.view(base_sig_size());
  if (!r.ok() || !r.done() || index >= vks_.size()) return false;
  return verify_base_raw(index, sig_raw, target_from_md(index, md).view());
}

bool SnarkSrds::parse_aggregate(BytesView blob, ParsedAggregate& out) {
  PROF_SCOPE(obs::ProfSiteId::kSrdsDeserialize);
  Reader r(blob);
  if (r.u8() != kTagAggregate) return false;
  Bytes md = r.raw(32);
  Bytes root = r.raw(32);
  out.count = r.u64();
  out.min = r.u64();
  out.max = r.u64();
  Bytes proof = r.raw(SnarkProof::kSize);
  if (!r.ok() || !r.done()) return false;
  out.m_digest = Digest::from(md);
  out.root = Digest::from(root);
  out.proof = SnarkProof::from(proof);
  return true;
}

std::vector<Bytes> SnarkSrds::aggregate1(BytesView m, const std::vector<Bytes>& sigs) const {
  PROF_SCOPE(obs::ProfSiteId::kSrdsAggregate1);
  // Validate every candidate, then keep a maximal prefix-greedy set of
  // range-disjoint blobs ordered by min index (base = [i, i]).
  struct Cand {
    IndexRange range;
    std::uint64_t count;
    const Bytes* blob;
  };
  Digest md = message_digest(m);
  auto verifier = prover_.verifier();
  std::vector<Cand> cands;
  for (const auto& blob : sigs) {
    if (blob.empty()) continue;
    if (blob[0] == kTagBase) {
      std::uint64_t index;
      if (parse_base(blob, md, index)) {
        cands.push_back(Cand{{index, index}, 1, &blob});
      }
    } else {
      ParsedAggregate agg;
      if (!parse_aggregate(blob, agg)) continue;
      if (agg.m_digest != md || agg.root != key_root_) continue;
      if (!verifier.verify(
              statement_bytes(agg.m_digest, agg.root, agg.count, agg.min, agg.max),
              agg.proof)) {
        continue;
      }
      cands.push_back(Cand{{agg.min, agg.max}, agg.count, &blob});
    }
  }
  // Sort by (min asc, count desc) and greedily keep disjoint ranges,
  // preferring higher counts at equal min.
  std::stable_sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.range.min != b.range.min) return a.range.min < b.range.min;
    return a.count > b.count;
  });
  std::vector<Bytes> kept;
  std::uint64_t prev_max = 0;
  bool first = true;
  for (const auto& c : cands) {
    if (!first && c.range.min <= prev_max) continue;
    kept.push_back(*c.blob);
    prev_max = c.range.max;
    first = false;
  }
  return kept;
}

Bytes SnarkSrds::aggregate2(BytesView m, const std::vector<Bytes>& filtered) const {
  PROF_SCOPE(obs::ProfSiteId::kSrdsAggregate2);
  if (!finalized_) throw std::logic_error("SnarkSrds::aggregate2: keys not finalized");
  Digest md = message_digest(m);

  // Split into base signatures and aggregates. aggregate2 must not rely on
  // the key list (Def. 2.2) beyond the witness data, so base entries carry
  // their keys and Merkle openings as PCD witness material.
  struct BaseEntry {
    std::uint64_t index;
    BytesView sig_raw;  // borrowed from `filtered`
  };
  std::vector<BaseEntry> bases;
  std::vector<ParsedAggregate> aggs;
  for (const auto& blob : filtered) {
    if (blob.empty()) continue;
    if (blob[0] == kTagBase) {
      Reader r(blob);
      r.u8();
      std::uint64_t index = r.u64();
      BytesView sig_raw = r.view(base_sig_size());
      if (!r.ok() || !r.done() || index >= vks_.size()) continue;
      bases.push_back(BaseEntry{index, sig_raw});
    } else {
      ParsedAggregate agg;
      if (parse_aggregate(blob, agg)) aggs.push_back(agg);
    }
  }

  // Turn base signatures into one leaf-level aggregate.
  if (!bases.empty()) {
    std::sort(bases.begin(), bases.end(),
              [](const BaseEntry& a, const BaseEntry& b) { return a.index < b.index; });
    bases.erase(std::unique(bases.begin(), bases.end(),
                            [](const BaseEntry& a, const BaseEntry& b) {
                              return a.index == b.index;
                            }),
                bases.end());
    Writer witness;
    witness.u32(static_cast<std::uint32_t>(bases.size()));
    for (const auto& b : bases) {
      witness.u64(b.index);
      witness.raw(vks_[b.index].view());
      witness.bytes(key_tree_->path(b.index).serialize());
      witness.bytes(b.sig_raw);
    }
    Bytes st = statement_bytes(md, key_root_, bases.size(), bases.front().index,
                               bases.back().index);
    auto proof = prover_.prove(st, witness.data(), {});
    if (!proof) return {};
    ParsedAggregate leaf;
    leaf.m_digest = md;
    leaf.root = key_root_;
    leaf.count = bases.size();
    leaf.min = bases.front().index;
    leaf.max = bases.back().index;
    leaf.proof = *proof;
    aggs.push_back(leaf);
  }

  if (aggs.empty()) return {};

  std::sort(aggs.begin(), aggs.end(),
            [](const ParsedAggregate& a, const ParsedAggregate& b) { return a.min < b.min; });

  ParsedAggregate result;
  if (aggs.size() == 1) {
    result = aggs[0];
  } else {
    std::vector<PriorMessage> priors;
    std::uint64_t count = 0;
    for (const auto& a : aggs) {
      priors.push_back(PriorMessage{
          statement_bytes(a.m_digest, a.root, a.count, a.min, a.max), a.proof});
      count += a.count;
    }
    Bytes st = statement_bytes(md, key_root_, count, aggs.front().min, aggs.back().max);
    auto proof = prover_.prove(st, {}, priors);
    if (!proof) return {};
    result.m_digest = md;
    result.root = key_root_;
    result.count = count;
    result.min = aggs.front().min;
    result.max = aggs.back().max;
    result.proof = *proof;
  }

  Writer w;
  w.u8(kTagAggregate);
  w.raw(result.m_digest.view());
  w.raw(result.root.view());
  w.u64(result.count);
  w.u64(result.min);
  w.u64(result.max);
  w.raw(BytesView{result.proof.v.data(), result.proof.v.size()});
  return std::move(w).take();
}

bool SnarkSrds::verify(BytesView m, BytesView sig) const {
  PROF_SCOPE(obs::ProfSiteId::kSrdsVerify);
  ParsedAggregate agg;
  if (!parse_aggregate(sig, agg)) return false;
  if (agg.m_digest != message_digest(m) || agg.root != key_root_) return false;
  if (agg.count < threshold_) return false;
  return prover_.verifier().verify(
      statement_bytes(agg.m_digest, agg.root, agg.count, agg.min, agg.max), agg.proof);
}

bool SnarkSrds::index_range(BytesView sig, IndexRange& out) const {
  if (sig.empty()) return false;
  if (sig[0] == kTagBase) {
    Reader r(sig);
    r.u8();
    std::uint64_t idx = r.u64();
    if (!r.ok()) return false;
    out.min = out.max = idx;
    return true;
  }
  ParsedAggregate agg;
  if (!parse_aggregate(sig, agg)) return false;
  out.min = agg.min;
  out.max = agg.max;
  return agg.min <= agg.max;
}

std::uint64_t SnarkSrds::base_count(BytesView sig) const {
  if (sig.empty()) return 0;
  if (sig[0] == kTagBase) return 1;
  ParsedAggregate agg;
  return parse_aggregate(sig, agg) ? agg.count : 0;
}

}  // namespace srds
