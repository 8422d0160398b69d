#include "ba/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <ranges>

#include "common/mathutil.hpp"
#include "common/serial.hpp"
#include "crypto/prf.hpp"

namespace srds {

// --- Naive: all-to-all signed value exchange ---

SendList NaiveBoostParty::boost_step(std::size_t k, const std::vector<TaggedMsg>& inbox) {
  const std::size_t n = config().tree->params().n;
  SendList out;
  if (k == 0) {
    if (!ae_y().has_value()) return out;
    std::uint8_t y = *ae_y() ? 1 : 0;
    Writer w;
    w.u8(y);
    Bytes target{std::uint8_t('n'), std::uint8_t('v'), y};
    w.raw(config().registry->sign(me(), target).view());
    send_boost(out, std::views::iota(PartyId{0}, n), 0, std::move(w).take(),
               MsgKind::kBoostFlood, me());
    votes_[y] += 1;  // my own vote
    return out;
  }
  // Ingest: count one authenticated vote per sender.
  std::vector<bool> seen(n, false);
  for (const auto& msg : inbox) {
    if (msg.from >= n || seen[msg.from]) continue;
    Reader r(msg.body);
    std::uint8_t y = r.u8();
    BytesView sig_raw = r.view(32);
    if (!r.done() || y > 1) continue;
    Bytes target{std::uint8_t('n'), std::uint8_t('v'), y};
    if (!config().registry->verify(msg.from, target, Digest::from(sig_raw))) continue;
    seen[msg.from] = true;
    votes_[y] += 1;
  }
  if (votes_[0] + votes_[1] > 0) set_output(votes_[1] > votes_[0]);
  return out;
}

// --- BGT'13-style multisig boost ---

std::size_t MultisigBoostParty::home_leaf() const {
  return config().tree->leaf_of_virtual(config().tree->virtuals_of(me()).front());
}

bool MultisigBoostParty::validate(BytesView value, BytesView sigma) const {
  Multisig ms;
  if (!Multisig::deserialize(sigma, ms)) return false;
  if (ms.signer_count() * 2 < config().tree->params().n) return false;
  return msig_->verify(value, ms);
}

std::size_t MultisigBoostParty::boost_rounds() const {
  const std::size_t h = config().tree->height();
  return 1 + h + (h + 1) + 1 + 1;  // sign, aggregate, disseminate, prf, ingest
}

SendList MultisigBoostParty::boost_step(std::size_t k, const std::vector<TaggedMsg>& inbox) {
  const CommTree& tree = *config().tree;
  const std::size_t h = tree.height();
  const std::size_t n = tree.params().n;
  SendList out;

  if (k == 0) {
    // Sign and send a singleton multisig to my home leaf's committee.
    if (!ae_blob().has_value()) return out;
    Multisig single = MultisigRegistry::aggregate(
        n, {me()}, {msig_->sign(me(), *ae_blob())});
    Bytes body = single.serialize();
    std::size_t leaf = home_leaf();
    std::vector<PartyId> recipients(tree.node(leaf).committee.begin(),
                                    tree.node(leaf).committee.end());
    std::sort(recipients.begin(), recipients.end());
    recipients.erase(std::unique(recipients.begin(), recipients.end()), recipients.end());
    send_boost(out, recipients, leaf, std::move(body), MsgKind::kBoostSign);
    return out;
  }

  if (k >= 1 && k <= h) {
    // Aggregate level k: merge valid candidates with disjoint signer sets.
    for (const auto& msg : inbox) {
      if (msg.instance >= tree.node_count()) continue;
      if (tree.node(msg.instance).level != k) continue;
      // Kept past this round: copy out of the borrowed inbox.
      node_inputs_[msg.instance].emplace_back(msg.body.begin(), msg.body.end());
    }
    if (!ae_blob().has_value()) return out;
    for (std::size_t id : tree.level_nodes(k)) {
      const TreeNode& node = tree.node(id);
      if (std::find(node.committee.begin(), node.committee.end(), me()) ==
          node.committee.end()) {
        continue;
      }
      auto it = node_inputs_.find(id);
      if (it == node_inputs_.end()) continue;
      Multisig merged;
      merged.signers.assign(n, false);
      bool any = false;
      for (const auto& blob : it->second) {
        Multisig ms;
        if (!Multisig::deserialize(blob, ms)) continue;
        if (!msig_->verify(*ae_blob(), ms)) continue;
        Multisig trial = merged;
        if (MultisigRegistry::merge(trial, ms)) {
          merged = std::move(trial);
          any = true;
        }
      }
      if (!any) continue;
      Bytes body = merged.serialize();
      if (node.parent == TreeNode::kNoParent) {
        sigma_root_ = std::move(body);
      } else {
        const auto& pc = tree.node(node.parent).committee;
        std::vector<PartyId> recipients(pc.begin(), pc.end());
        std::sort(recipients.begin(), recipients.end());
        recipients.erase(std::unique(recipients.begin(), recipients.end()),
                         recipients.end());
        send_boost(out, recipients, node.parent, std::move(body), MsgKind::kBoostAggregate);
      }
    }
    return out;
  }

  const std::size_t dissem_base = h + 1;
  if (k >= dissem_base && k < dissem_base + h + 1) {
    std::size_t sub = k - dissem_base;
    if (sub == 0) {
      std::optional<Bytes> init;
      Bytes sigma;
      if (in_supreme_committee() && ae_blob().has_value()) {
        init = *ae_blob();
        sigma = sigma_root_;
      }
      cert_dissem_ = std::make_unique<CertifiedDissemProto>(
          config().tree, me(), std::move(init), std::move(sigma),
          [this](BytesView value, BytesView sigma_bytes) {
            return validate(value, sigma_bytes);
          },
          /*redundancy=*/3);
    }
    std::vector<TaggedMsg> dissem_in;
    for (const auto& msg : inbox) {
      if (msg.instance == kDissemInstance) dissem_in.push_back(msg);
    }
    send_tagged(out, cert_dissem_->step(sub, dissem_in), kBoostPhase, kDissemInstance,
                MsgKind::kBoostCert);
    if (sub == h) {
      if (cert_dissem_->value().has_value() && !cert_dissem_->certificate().empty()) {
        certified_blob_ = cert_dissem_->value();
        certificate_ = cert_dissem_->certificate();
      }
      cert_dissem_.reset();  // its tallies are dead weight from here on
    }
    return out;
  }

  if (k == dissem_base + h + 1) {
    // PRF round (like Fig. 3 step 7, but the certificate is Θ(n) bits).
    if (!certified_blob_.has_value() || certificate_.empty()) return out;
    bool y;
    Bytes s;
    if (!decode_ys(*certified_blob_, y, s)) return out;
    set_output(y);
    Writer w;
    w.bytes(*certified_blob_);
    w.bytes(certificate_);
    std::size_t fanout = std::min(tree.params().committee_size, n);
    send_boost(out, prf_subset(s, me(), n, fanout), kPrfInstance, std::move(w).take(),
               MsgKind::kBoostPrf, me());
    return out;
  }

  // Final ingest.
  if (!output().has_value()) {
    std::size_t fanout = std::min(tree.params().committee_size, n);
    for (const auto& msg : inbox) {
      if (msg.instance != kPrfInstance) continue;
      Reader r(msg.body);
      BytesView blob = r.bytes_view();
      BytesView cert = r.bytes_view();
      if (!r.done()) continue;
      bool y;
      Bytes s;
      if (!decode_ys(blob, y, s)) continue;
      if (!prf_subset_contains(s, msg.from, n, fanout, me())) continue;
      if (!validate(blob, cert)) continue;
      set_output(y);
      break;
    }
  }
  return out;
}

// --- KS'11-style sampling boost ---

SamplingBoostParty::SamplingBoostParty(AeConfig config, PartyId me, bool input,
                                       std::size_t samples)
    : AeBoostParty(std::move(config), me, input),
      samples_(samples),
      rng_(this->config().seed * 0x9e3779b9ULL + me + 1) {
  if (samples_ == 0) {
    const std::size_t n = this->config().tree->params().n;
    double s = std::sqrt(static_cast<double>(n)) *
               static_cast<double>(at_least(ceil_log2(n), 1));
    samples_ = std::min<std::size_t>(n - 1, static_cast<std::size_t>(s));
  }
}

SendList SamplingBoostParty::boost_step(std::size_t k, const std::vector<TaggedMsg>& inbox) {
  const std::size_t n = config().tree->params().n;
  SendList out;
  if (k == 0) {
    // Query a random sample.
    send_boost(out, rng_.subset(n, samples_), 0, Bytes{std::uint8_t('q')},
               MsgKind::kBoostQuery, me());
    return out;
  }
  if (k == 1) {
    // Respond to queries with my almost-everywhere value.
    if (!ae_y().has_value()) return out;
    std::vector<bool> replied(n, false);
    std::vector<PartyId> pollers;
    for (const auto& msg : inbox) {
      Reader r(msg.body);
      if (r.u8() != 'q' || !r.done()) continue;
      if (msg.from >= n || replied[msg.from]) continue;
      replied[msg.from] = true;
      pollers.push_back(msg.from);
    }
    send_boost(out, pollers, 0,
               Bytes{std::uint8_t('r'), static_cast<std::uint8_t>(*ae_y() ? 1 : 0)},
               MsgKind::kBoostResponse);
    return out;
  }
  // Ingest responses; majority of polled answers.
  std::vector<bool> seen(n, false);
  for (const auto& msg : inbox) {
    Reader r(msg.body);
    if (r.u8() != 'r') continue;
    std::uint8_t y = r.u8();
    if (!r.done() || y > 1) continue;
    if (msg.from >= n || seen[msg.from]) continue;
    seen[msg.from] = true;
    votes_[y] += 1;
  }
  if (ae_y().has_value()) votes_[*ae_y() ? 1 : 0] += 1;
  if (votes_[0] + votes_[1] > 0) set_output(votes_[1] > votes_[0]);
  return out;
}

// --- ACD'19-style star boost ---

SendList StarBoostParty::boost_step(std::size_t k, const std::vector<TaggedMsg>& inbox) {
  const std::size_t n = config().tree->params().n;
  const auto& committee = config().tree->supreme_committee();
  SendList out;
  if (k == 0) {
    // Supreme-committee members push the signed value to everyone.
    if (!in_supreme_committee() || !ae_blob().has_value()) return out;
    Writer w;
    w.bytes(*ae_blob());
    w.raw(config().registry->sign(me(), *ae_blob()).view());
    send_boost(out, std::views::iota(PartyId{0}, n), 0, std::move(w).take(),
               MsgKind::kBoostFlood, me());
    if (ae_y().has_value()) set_output(*ae_y());
    return out;
  }
  // Ingest: accept the value backed by a majority of the committee.
  std::vector<bool> seen(n, false);
  for (const auto& msg : inbox) {
    if (std::find(committee.begin(), committee.end(), msg.from) == committee.end()) {
      continue;
    }
    if (msg.from >= n || seen[msg.from]) continue;
    Reader r(msg.body);
    BytesView blob = r.bytes_view();
    BytesView sig_raw = r.view(32);
    if (!r.done()) continue;
    if (!config().registry->verify(msg.from, blob, Digest::from(sig_raw))) continue;
    seen[msg.from] = true;
    committee_votes_[Bytes(blob.begin(), blob.end())] += 1;
  }
  for (const auto& [blob, votes] : committee_votes_) {
    if (votes * 2 > committee.size()) {
      bool y;
      Bytes s;
      if (decode_ys(blob, y, s)) set_output(y);
      break;
    }
  }
  return out;
}

}  // namespace srds
