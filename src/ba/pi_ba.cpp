#include "ba/pi_ba.hpp"

#include <algorithm>

#include "common/serial.hpp"
#include "crypto/prf.hpp"
#include "mpc/aggregation.hpp"

namespace srds {

PiBaParty::PiBaParty(PiBaConfig config, PartyId me, bool input)
    : AeBoostParty(config.ae, me, input), cfg2_(std::move(config)) {
  prf_fanout_ = cfg2_.prf_fanout ? cfg2_.prf_fanout
                                 : cfg2_.ae.tree->params().committee_size;
}

obs::Budget PiBaParty::boost_budget() const {
  // Calibrated against seeded fault-free runs at n in [512, 2048] (see
  // docs/observability.md for the measured margins); the separation test in
  // tests/budget_test.cpp pins the SNARK constant against BGT'13.
  if (cfg2_.scheme && cfg2_.scheme->bare_pki()) {
    return {.c = 19'500, .k = 2, .min_n = 512};  // SNARK-SRDS
  }
  return {.c = 52'000, .k = 2, .min_n = 512};  // OWF-SRDS (sortition proofs)
}

std::size_t PiBaParty::boost_rounds() const {
  const std::size_t h = cfg2_.ae.tree->height();
  // step4 (1) + step5 (h) + step6 (h+1+retries) + step7 (1) + step8 ingest (1).
  return 1 + h + (h + 1 + cfg2_.dissem_retries) + 1 + 1;
}

SendList PiBaParty::boost_step(std::size_t k, const std::vector<TaggedMsg>& inbox) {
  const std::size_t h = cfg2_.ae.tree->height();
  const std::size_t dissem_rounds = h + 1 + cfg2_.dissem_retries;

  if (k == 0) return step_sign_and_send();
  if (k >= 1 && k <= h) return step_aggregate(k, inbox);

  const std::size_t dissem_base = h + 1;
  if (k >= dissem_base && k < dissem_base + dissem_rounds) {
    std::size_t sub = k - dissem_base;
    if (sub == 0) {
      // Root members seed the certified dissemination with (y, s, σ_root).
      std::optional<Bytes> init;
      Bytes sigma;
      if (in_supreme_committee() && ae_blob().has_value()) {
        init = *ae_blob();
        sigma = sigma_root_;
      }
      const SrdsScheme* scheme = cfg2_.scheme.get();
      cert_dissem_ = std::make_unique<CertifiedDissemProto>(
          cfg2_.ae.tree, me(), std::move(init), std::move(sigma),
          [scheme](BytesView value, BytesView cert) {
            return scheme->verify(value, cert);
          },
          cfg2_.certificate_redundancy, cfg2_.dissem_retries);
    }
    std::vector<TaggedMsg> dissem_in;
    for (const auto& msg : inbox) {
      if (msg.instance == kDissemInstance) dissem_in.push_back(msg);
    }
    SendList out;
    send_tagged(out, cert_dissem_->step(sub, dissem_in), kBoostPhase, kDissemInstance,
                MsgKind::kBoostCert);
    if (sub + 1 == dissem_rounds) {
      // Dissemination finished; fix my certified pair if valid.
      if (cert_dissem_->value().has_value() && !cert_dissem_->certificate().empty()) {
        certified_blob_ = cert_dissem_->value();
        certificate_ = cert_dissem_->certificate();
      }
      cert_dissem_.reset();  // its tallies are dead weight from here on
    }
    return out;
  }

  if (k == dissem_base + dissem_rounds) return step_prf_send();
  if (k == dissem_base + dissem_rounds + 1) {
    ingest_prf(inbox);
    return {};
  }
  return {};
}

SendList PiBaParty::step_sign_and_send() {
  SendList out;
  if (!ae_blob().has_value()) return out;  // isolated: nothing to sign with
  const CommTree& tree = *cfg2_.ae.tree;
  for (std::uint64_t vid : tree.virtuals_of(me())) {
    Bytes sig = cfg2_.scheme->sign(vid, *ae_blob());
    if (sig.empty()) continue;  // ⊥ (e.g., OWF-SRDS sortition loser)
    std::size_t leaf = tree.leaf_of_virtual(vid);
    const TreeNode& node = tree.node(leaf);
    // Send to every party assigned to the leaf (its committee), deduped.
    std::vector<PartyId> recipients(node.committee.begin(), node.committee.end());
    std::sort(recipients.begin(), recipients.end());
    recipients.erase(std::unique(recipients.begin(), recipients.end()), recipients.end());
    send_boost(out, recipients, leaf, std::move(sig), MsgKind::kBoostSign);
  }
  return out;
}

void PiBaParty::ingest_aggregation(const std::vector<TaggedMsg>& inbox, std::size_t level) {
  const CommTree& tree = *cfg2_.ae.tree;
  for (const auto& msg : inbox) {
    const std::uint64_t instance = msg.instance;
    if (instance >= tree.node_count()) continue;
    const TreeNode& node = tree.node(instance);
    if (node.level != level) continue;
    // Am I on this node's committee?
    if (std::find(node.committee.begin(), node.committee.end(), me()) ==
        node.committee.end()) {
      continue;
    }
    // Sender legitimacy.
    if (node.is_leaf()) {
      // Base signature: the sender must own the virtual identity it claims.
      IndexRange r;
      if (!cfg2_.scheme->index_range(msg.body, r) || r.min != r.max) continue;
      if (r.min >= tree.virtual_count() || tree.owner_of_virtual(r.min) != msg.from) {
        continue;
      }
    } else {
      // Aggregate candidate: the sender must sit on some child committee.
      bool child_member = false;
      for (std::size_t child : node.children) {
        const auto& cc = tree.node(child).committee;
        if (std::find(cc.begin(), cc.end(), msg.from) != cc.end()) {
          child_member = true;
          break;
        }
      }
      if (!child_member) continue;
    }
    // Kept past this round: copy out of the borrowed inbox.
    node_inputs_[instance].emplace_back(msg.body.begin(), msg.body.end());
  }
}

SendList PiBaParty::step_aggregate(std::size_t level, const std::vector<TaggedMsg>& inbox) {
  ingest_aggregation(inbox, level);
  SendList out;
  if (!ae_blob().has_value()) return out;
  const CommTree& tree = *cfg2_.ae.tree;
  for (std::size_t id : tree.level_nodes(level)) {
    const TreeNode& node = tree.node(id);
    if (std::find(node.committee.begin(), node.committee.end(), me()) ==
        node.committee.end()) {
      continue;
    }
    auto it = node_inputs_.find(id);
    std::vector<Bytes> inputs = (it != node_inputs_.end()) ? std::move(it->second)
                                                           : std::vector<Bytes>{};
    // Fig. 3 step 5c range checks, then f_aggr-sig.
    inputs = node_range_filter(*cfg2_.scheme, tree, node, std::move(inputs));
    Bytes sigma = f_aggr_sig(*cfg2_.scheme, *ae_blob(), inputs);
    if (sigma.empty()) continue;
    if (node.parent == TreeNode::kNoParent) {
      sigma_root_ = std::move(sigma);
    } else {
      const auto& pc = tree.node(node.parent).committee;
      std::vector<PartyId> recipients(pc.begin(), pc.end());
      std::sort(recipients.begin(), recipients.end());
      recipients.erase(std::unique(recipients.begin(), recipients.end()),
                       recipients.end());
      send_boost(out, recipients, node.parent, std::move(sigma), MsgKind::kBoostAggregate);
    }
  }
  return out;
}

SendList PiBaParty::step_prf_send() {
  SendList out;
  if (!certified_blob_.has_value() || certificate_.empty()) return out;
  bool y;
  Bytes s;
  if (!decode_ys(*certified_blob_, y, s)) return out;
  set_output(y);  // certified parties decide now

  Writer w;
  w.bytes(*certified_blob_);
  w.bytes(certificate_);
  Bytes body = std::move(w).take();
  const std::size_t n = cfg2_.ae.tree->params().n;
  send_boost(out, prf_subset(s, me(), n, std::min(prf_fanout_, n)), kPrfInstance,
             std::move(body), MsgKind::kBoostPrf, me());
  return out;
}

void PiBaParty::ingest_prf(const std::vector<TaggedMsg>& inbox) {
  if (output().has_value()) return;
  const std::size_t n = cfg2_.ae.tree->params().n;
  for (const auto& msg : inbox) {
    if (msg.instance != kPrfInstance) continue;
    Reader r(msg.body);
    BytesView blob = r.bytes_view();
    BytesView cert = r.bytes_view();
    if (!r.done()) continue;
    bool y;
    Bytes s;
    if (!decode_ys(blob, y, s)) continue;
    // Fig. 3 step 8: accept only if I am in F_s(sender) and σ verifies.
    if (!prf_subset_contains(s, msg.from, n, std::min(prf_fanout_, n), me())) continue;
    if (!cfg2_.scheme->verify(blob, cert)) continue;
    certificate_.assign(cert.begin(), cert.end());
    certified_blob_.emplace(blob.begin(), blob.end());
    set_output(y);
    return;
  }
}

void PiBaParty::boost_finish() {
  // Nothing further: outputs were set in steps 7/8.
}

void PiBaParty::grace_step(const std::vector<TaggedMsg>& inbox) {
  ingest_prf(inbox);
}

void PiBaParty::decide_with_partial_info() {
  // Only a verified certificate may settle a late decision: certificates
  // are self-certifying and unforgeable, so no two parties can late-decide
  // conflicting values no matter how the network misbehaved. The
  // uncertified almost-everywhere value is NOT safe here — under heavy
  // loss the front end can split, and adopting ae_y could break agreement.
  if (certified_blob_.has_value()) {
    bool y;
    Bytes s;
    if (decode_ys(*certified_blob_, y, s)) set_output(y);
  }
}

}  // namespace srds
