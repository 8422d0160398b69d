// Additional adversarial executions for the committee sub-protocols:
// inconsistent coin-toss dealers, multi-value Dolev-Strong floods, and
// committee BA under equivocation.
#include <gtest/gtest.h>

#include <set>

#include "common/serial.hpp"
#include "consensus/coin_toss.hpp"
#include "consensus/committee_ba.hpp"
#include "consensus/dolev_strong.hpp"
#include "crypto/sha256.hpp"
#include "sim_helpers.hpp"

namespace srds {
namespace {

using testing::hosted;
using testing::make_subproto_sim;

struct Fixture {
  std::size_t n = 9;
  std::vector<PartyId> members{0, 1, 2, 3, 4, 5, 6, 7, 8};
  std::size_t t = 2;
  SimSigRegistryPtr registry = std::make_shared<SimSigRegistry>(9, 1234);
};

/// Crafts valid Dolev-Strong bodies (mirrors the protocol's wire format).
Bytes ds_body(const Fixture& fx, const Bytes& domain, std::size_t sender_idx,
              const Bytes& value, const std::vector<PartyId>& signers) {
  Writer target;
  target.bytes(domain);
  target.u64(sender_idx);
  target.bytes(value);
  Digest digest = sha256_tagged("ds-sign", target.data());
  Writer w;
  w.bytes(value);
  w.u32(static_cast<std::uint32_t>(signers.size()));
  for (PartyId s : signers) {
    w.u64(s);
    w.raw(fx.registry->sign(s, digest.view()).view());
  }
  return std::move(w).take();
}

/// Floods the committee with MANY distinct signed values from a corrupt
/// sender (stress for the "track at most two extracted values" logic).
class MultiValueFlooder final : public Adversary {
 public:
  MultiValueFlooder(Fixture fx, Bytes domain) : fx_(std::move(fx)), domain_(std::move(domain)) {}

  std::vector<Message> on_round(std::size_t round, const std::vector<Message>&,
                                const std::vector<SendList>&) override {
    if (round > fx_.t) return {};
    std::vector<Message> out;
    PartyId sender = fx_.members[0];
    for (int v = 0; v < 12; ++v) {
      Bytes value = to_bytes("flood-" + std::to_string(v) + "-" + std::to_string(round));
      Bytes body = ds_body(fx_, domain_, 0, value, {sender});
      for (PartyId to : fx_.members) {
        if (to != sender) out.push_back(Message{sender, to, tag_body(0, 0, body)});
      }
    }
    return out;
  }

 private:
  Fixture fx_;
  Bytes domain_;
};

TEST(DolevStrongAdversarial, MultiValueFloodYieldsConsistentBottom) {
  Fixture fx;
  Bytes domain = to_bytes("flood-test");
  std::vector<bool> corrupt(fx.n, false);
  corrupt[0] = true;
  auto factory = [&](PartyId i) -> std::unique_ptr<SubProtocol> {
    return std::make_unique<DolevStrongProto>(fx.registry, fx.members, 0, fx.t, domain, i,
                                              std::nullopt);
  };
  auto sim = make_subproto_sim(fx.n, corrupt,
                               factory, std::make_unique<MultiValueFlooder>(fx, domain));
  sim->run(16);
  for (PartyId i : fx.members) {
    if (corrupt[i]) continue;
    auto* ds = hosted<DolevStrongProto>(*sim, i);
    ASSERT_NE(ds, nullptr);
    EXPECT_FALSE(ds->output().has_value()) << "member " << i;
  }
}

/// A corrupt coin-toss dealer that distributes shares privately but then
/// broadcasts a commitment vector that matches only half of them, trying
/// to split the honest members' reconstruction.
class InconsistentDealer final : public Adversary {
 public:
  explicit InconsistentDealer(Fixture fx) : fx_(std::move(fx)), rng_(99) {}

  std::vector<Message> on_round(std::size_t round, const std::vector<Message>&,
                                const std::vector<SendList>&) override {
    std::vector<Message> out;
    if (round != 0) return out;
    // Send garbage "private shares" to every member under the coin-toss
    // share framing (kind 1), from corrupt member 0.
    PartyId dealer = fx_.members[0];
    for (PartyId to : fx_.members) {
      if (to == dealer) continue;
      Writer w;
      w.u8(1);  // kKindShare
      w.u64(rng_.next() % 1000);
      w.raw(rng_.bytes(16));
      out.push_back(Message{dealer, to, tag_body(0, 0, std::move(w).take())});
    }
    return out;
  }

 private:
  Fixture fx_;
  Rng rng_;
};

TEST(CoinTossAdversarial, InconsistentDealerStillYieldsAgreedCoin) {
  Fixture fx;
  std::vector<bool> corrupt(fx.n, false);
  corrupt[0] = true;
  auto factory = [&](PartyId i) -> std::unique_ptr<SubProtocol> {
    return std::make_unique<CoinTossProto>(fx.registry, fx.members, fx.t,
                                           to_bytes("adv-coin"), i, 5000 + i);
  };
  auto sim = make_subproto_sim(fx.n, corrupt, factory,
                               std::make_unique<InconsistentDealer>(fx));
  sim->run(64);
  std::set<Bytes> coins;
  for (PartyId i : fx.members) {
    if (corrupt[i]) continue;
    auto* ct = hosted<CoinTossProto>(*sim, i);
    ASSERT_NE(ct, nullptr);
    ASSERT_TRUE(ct->output().has_value()) << "member " << i;
    coins.insert(*ct->output());
  }
  EXPECT_EQ(coins.size(), 1u) << "honest members derived different coins";
}

/// Committee BA where the corrupt members run honest-looking equivocation:
/// two different inputs broadcast to two halves via crafted DS round-0
/// messages (agreement must survive).
class BaEquivocator final : public Adversary {
 public:
  explicit BaEquivocator(Fixture fx) : fx_(std::move(fx)) {}

  std::vector<Message> on_round(std::size_t round, const std::vector<Message>&,
                                const std::vector<SendList>&) override {
    if (round != 0) return {};
    std::vector<Message> out;
    PartyId sender = fx_.members[1];
    std::size_t sender_idx = 1;
    // The committee-BA frames DS bodies inside a parallel-instance wrapper
    // keyed by the sender index, with the domain derived from ("test-ba2",
    // sender_idx).
    Writer domain;
    domain.bytes(to_bytes("test-ba2"));
    domain.u64(sender_idx);
    Bytes dom = std::move(domain).take();
    for (std::size_t k = 0; k < fx_.members.size(); ++k) {
      PartyId to = fx_.members[k];
      if (to == sender) continue;
      Bytes value = (k % 2 == 0) ? Bytes{1} : Bytes{0};
      Bytes body = ds_body(fx_, dom, sender_idx, value, {sender});
      Writer wrapped;
      wrapped.u32(static_cast<std::uint32_t>(sender_idx));
      wrapped.raw(body);
      out.push_back(Message{sender, to, tag_body(0, 0, std::move(wrapped).take())});
    }
    return out;
  }

 private:
  Fixture fx_;
};

TEST(CommitteeBaAdversarial, EquivocatingMemberCannotSplitDecision) {
  Fixture fx;
  std::vector<bool> corrupt(fx.n, false);
  corrupt[1] = true;
  auto factory = [&](PartyId i) -> std::unique_ptr<SubProtocol> {
    return std::make_unique<CommitteeBaProto>(fx.registry, fx.members, fx.t,
                                              to_bytes("test-ba2"), i, Bytes{1});
  };
  auto sim = make_subproto_sim(fx.n, corrupt, factory,
                               std::make_unique<BaEquivocator>(fx));
  sim->run(32);
  std::set<Bytes> outputs;
  for (PartyId i : fx.members) {
    if (corrupt[i]) continue;
    auto* ba = hosted<CommitteeBaProto>(*sim, i);
    ASSERT_NE(ba, nullptr);
    ASSERT_TRUE(ba->output().has_value());
    outputs.insert(*ba->output());
  }
  EXPECT_EQ(outputs.size(), 1u);
  EXPECT_EQ(*outputs.begin(), Bytes{1});  // honest majority input wins
}

}  // namespace
}  // namespace srds
