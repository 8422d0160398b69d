#include "mpc/scalable_mpc.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "common/rng.hpp"
#include "common/serial.hpp"
#include "mpc/fhe.hpp"
#include "net/simulator.hpp"
#include "net/subproto.hpp"
#include "tree/comm_tree.hpp"
#include "tree/dissemination.hpp"

namespace srds {

namespace {

constexpr std::uint32_t kPhaseInput = 1;
constexpr std::uint32_t kPhaseAggregate = 2;
constexpr std::uint32_t kPhaseDecrypt = 3;
constexpr std::uint32_t kPhaseDeliver = 4;

struct MpcShared {
  std::shared_ptr<const CommTree> tree;
  std::shared_ptr<FheOracle> oracle;
  // Decryption capabilities by supreme-committee member (in-process
  // plumbing; cooperation is what travels on the wire).
  std::map<PartyId, DecryptionShare> shares;
  std::size_t decrypt_threshold = 0;
};

class MpcParty final : public Party {
 public:
  MpcParty(std::shared_ptr<MpcShared> shared, PartyId me, std::uint64_t input)
      : shared_(std::move(shared)), me_(me), input_(input) {
    const CommTree& tree = *shared_->tree;
    const std::size_t h = tree.height();
    aggregate_start_ = 1;
    decrypt_round_ = aggregate_start_ + h;   // root holds the sum ct here
    deliver_start_ = decrypt_round_ + 2;     // after partial exchange + open
    total_rounds_ = deliver_start_ + (h + 1);
    const auto& sc = tree.supreme_committee();
    in_committee_ = std::find(sc.begin(), sc.end(), me_) != sc.end();
  }

  std::size_t total_rounds() const { return total_rounds_; }

  SendList on_round(std::size_t round, const std::vector<Message>& inbox) override {
    const CommTree& tree = *shared_->tree;
    const std::size_t h = tree.height();
    SendList out;

    // Demux. Bodies borrow `inbox`, which outlives this call.
    std::vector<TaggedMsg> agg_in, dec_in, del_in;
    for (const auto& m : inbox) {
      std::uint32_t phase;
      std::uint64_t instance;
      BytesView body;
      if (!untag_body(m.payload, phase, instance, body)) continue;
      if (phase == kPhaseInput || phase == kPhaseAggregate) {
        agg_in.emplace_back(m.from, body, instance);
      } else if (phase == kPhaseDecrypt) {
        dec_in.emplace_back(m.from, body, instance);
      } else if (phase == kPhaseDeliver) {
        del_in.emplace_back(m.from, body, instance);
      }
    }

    if (round == 0) {
      // Encrypt my input, send to my home leaf's committee.
      Ciphertext ct = shared_->oracle->encrypt(me_, encryptions_++, input_);
      std::size_t leaf = tree.leaf_of_virtual(tree.virtuals_of(me_).front());
      std::vector<PartyId> recipients(tree.node(leaf).committee.begin(),
                                      tree.node(leaf).committee.end());
      std::sort(recipients.begin(), recipients.end());
      recipients.erase(std::unique(recipients.begin(), recipients.end()),
                       recipients.end());
      out.send_all(recipients, tag_body(kPhaseInput, leaf, ct.serialize()), MsgKind::kMpc);
      return out;
    }

    if (round >= aggregate_start_ && round < aggregate_start_ + h) {
      std::size_t level = round - aggregate_start_ + 1;
      ingest_aggregation(agg_in, level);
      aggregate_level(level, out);
      return out;
    }

    if (round == decrypt_round_) {
      // Supreme-committee members announce cooperation (a partial
      // decryption message) to each other.
      if (in_committee_ && root_ct_.has_value()) {
        out.send_all(tree.supreme_committee(), tag_body(kPhaseDecrypt, 0, root_ct_->serialize()),
                     MsgKind::kMpc, me_);
      }
      return out;
    }

    if (round == decrypt_round_ + 1) {
      // Open the result with the cooperating members' shares.
      if (in_committee_ && root_ct_.has_value()) {
        std::vector<DecryptionShare> shares;
        auto mine = shared_->shares.find(me_);
        if (mine != shared_->shares.end()) shares.push_back(mine->second);
        std::set<PartyId> cooperating;
        for (const auto& msg : dec_in) {
          Ciphertext ct;
          if (!Ciphertext::deserialize(msg.body, ct) || !(ct == *root_ct_)) continue;
          if (!cooperating.insert(msg.from).second) continue;
          auto it = shared_->shares.find(msg.from);
          if (it != shared_->shares.end()) shares.push_back(it->second);
        }
        result_ = shared_->oracle->decrypt(*root_ct_, shares);
      }
      return out;
    }

    if (round >= deliver_start_ && round < deliver_start_ + h + 1) {
      std::size_t sub = round - deliver_start_;
      if (sub == 0) {
        std::optional<Bytes> init;
        if (in_committee_ && result_.has_value()) {
          Writer w;
          w.u64(*result_);
          init = std::move(w).take();
        }
        dissem_ = std::make_unique<DisseminationProto>(shared_->tree, me_, std::move(init));
      }
      send_tagged(out, dissem_->step(sub, del_in), kPhaseDeliver, 0, MsgKind::kMpc);
      if (sub == h && dissem_->output().has_value()) {
        Reader r(*dissem_->output());
        std::uint64_t v = r.u64();
        if (r.done()) result_ = v;
      }
      if (sub == h) done_ = true;
      return out;
    }
    return out;
  }

  bool done() const override { return done_; }
  const std::optional<std::uint64_t>& result() const { return result_; }

 private:
  void ingest_aggregation(const std::vector<TaggedMsg>& inbox, std::size_t level) {
    const CommTree& tree = *shared_->tree;
    for (const auto& msg : inbox) {
      const std::uint64_t instance = msg.instance;
      const BytesView body = msg.body;
      if (instance >= tree.node_count()) continue;
      const TreeNode& node = tree.node(instance);
      if (node.level != level) continue;
      if (std::find(node.committee.begin(), node.committee.end(), me_) ==
          node.committee.end()) {
        continue;
      }
      if (node.is_leaf()) {
        Ciphertext ct;
        if (!Ciphertext::deserialize(body, ct) || !shared_->oracle->valid(ct)) continue;
        // One input ciphertext per sender, and only from parties homed here.
        std::size_t home =
            tree.leaf_of_virtual(tree.virtuals_of(msg.from).front());
        if (home != instance) continue;
        node_inputs_[instance].emplace(msg.from, ct);
      } else {
        // Aggregate candidate: the body names the child node it sums (a
        // sender may sit on several sibling committees, so membership alone
        // cannot attribute it — mis-attribution would double-count a
        // subtree). Validate the claimed child and the sender's seat on it.
        Reader br(body);
        std::uint64_t child = br.u64();
        BytesView ct_raw = br.view(Ciphertext::kSize);
        if (!br.done()) continue;
        Ciphertext ct;
        if (!Ciphertext::deserialize(ct_raw, ct) || !shared_->oracle->valid(ct)) continue;
        if (std::find(node.children.begin(), node.children.end(), child) ==
            node.children.end()) {
          continue;
        }
        const auto& cc = tree.node(child).committee;
        if (std::find(cc.begin(), cc.end(), msg.from) == cc.end()) continue;
        child_votes_[{instance, child}][ct] += 1;
      }
    }
  }

  void aggregate_level(std::size_t level, SendList& out) {
    const CommTree& tree = *shared_->tree;
    for (std::size_t id : tree.level_nodes(level)) {
      const TreeNode& node = tree.node(id);
      if (std::find(node.committee.begin(), node.committee.end(), me_) ==
          node.committee.end()) {
        continue;
      }
      std::optional<Ciphertext> sum;
      if (node.is_leaf()) {
        auto it = node_inputs_.find(id);
        if (it == node_inputs_.end()) continue;
        for (const auto& [sender, ct] : it->second) {
          sum = sum ? shared_->oracle->add(*sum, ct) : std::optional<Ciphertext>(ct);
          if (!sum) break;
        }
      } else {
        // Per child: take the majority candidate (honest members agree
        // because homomorphic evaluation is deterministic).
        for (std::size_t child : node.children) {
          auto it = child_votes_.find({id, child});
          if (it == child_votes_.end()) continue;
          const Ciphertext* best = nullptr;
          std::size_t best_votes = 0;
          for (const auto& [ct, votes] : it->second) {
            if (votes > best_votes) {
              best = &ct;
              best_votes = votes;
            }
          }
          if (!best) continue;
          sum = sum ? shared_->oracle->add(*sum, *best)
                    : std::optional<Ciphertext>(*best);
          if (!sum) break;
        }
      }
      if (!sum) continue;
      if (node.parent == TreeNode::kNoParent) {
        root_ct_ = *sum;
      } else {
        Writer bw;
        bw.u64(node.id);  // which child this candidate sums
        bw.raw(sum->serialize());
        const auto& pc = tree.node(node.parent).committee;
        std::vector<PartyId> recipients(pc.begin(), pc.end());
        std::sort(recipients.begin(), recipients.end());
        recipients.erase(std::unique(recipients.begin(), recipients.end()),
                         recipients.end());
        out.send_all(recipients, tag_body(kPhaseAggregate, node.parent, std::move(bw).take()),
                     MsgKind::kMpc);
      }
    }
  }

  struct CtLess {
    bool operator()(const Ciphertext& a, const Ciphertext& b) const {
      return a.id < b.id || (a.id == b.id && a.tag < b.tag);
    }
  };

  std::shared_ptr<MpcShared> shared_;
  PartyId me_;
  std::uint64_t input_;
  std::uint64_t encryptions_ = 0;  // this party's FheOracle::encrypt seq
  bool in_committee_ = false;
  std::size_t aggregate_start_ = 0, decrypt_round_ = 0, deliver_start_ = 0,
              total_rounds_ = 0;
  std::map<std::uint64_t, std::map<PartyId, Ciphertext>> node_inputs_;
  std::map<std::pair<std::uint64_t, std::size_t>, std::map<Ciphertext, std::size_t, CtLess>>
      child_votes_;
  std::optional<Ciphertext> root_ct_;
  std::optional<std::uint64_t> result_;
  std::unique_ptr<DisseminationProto> dissem_;
  bool done_ = false;
};

}  // namespace

MpcRunResult run_scalable_sum_mpc(const MpcRunConfig& config) {
  Rng rng(config.seed ^ 0x6d70632d72756eULL);
  auto shared = std::make_shared<MpcShared>();
  shared->tree =
      std::make_shared<const CommTree>(TreeParams::scaled(config.n), rng.next());
  const auto& sc = shared->tree->supreme_committee();
  shared->decrypt_threshold = sc.size() / 2 + 1;
  shared->oracle = FheOracle::create(rng.next(), shared->decrypt_threshold);
  for (PartyId p : sc) shared->shares.emplace(p, shared->oracle->issue_share(p));

  std::vector<bool> corrupt(config.n, false);
  std::size_t t = static_cast<std::size_t>(config.beta * static_cast<double>(config.n));
  for (auto idx : rng.subset(config.n, t)) corrupt[idx] = true;

  std::vector<std::unique_ptr<Party>> parties(config.n);
  std::size_t total_rounds = 0;
  MpcRunResult result;
  for (PartyId i = 0; i < config.n; ++i) {
    if (corrupt[i]) continue;
    auto party = std::make_unique<MpcParty>(shared, i, config.input_value);
    total_rounds = party->total_rounds();
    parties[i] = std::move(party);
    result.expected_sum += config.input_value;
  }

  Simulator sim(std::move(parties), corrupt, nullptr);
  sim.set_trace_sink(config.trace);
  sim.set_workers(config.workers);
  result.rounds = sim.run(total_rounds + 2);
  result.stats = sim.stats();

  for (PartyId i = 0; i < config.n; ++i) {
    if (corrupt[i]) continue;
    ++result.honest;
    const auto* party = dynamic_cast<const MpcParty*>(sim.party(i));
    if (!party || !party->result().has_value()) continue;
    ++result.decided;
    if (result.output.has_value() && *result.output != *party->result()) {
      result.agreement = false;
    }
    result.output = *party->result();
  }
  return result;
}

}  // namespace srds
