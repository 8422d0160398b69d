// Tests for the certified dissemination sub-protocol (π_ba step 6):
// self-certifying values, sparse certificate redundancy, forged-certificate
// resistance.
#include <gtest/gtest.h>

#include <memory>

#include "ba/certified_dissem.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "net/subproto.hpp"
#include "sim_helpers.hpp"

namespace srds {
namespace {

using testing::hosted;
using testing::make_subproto_sim;

/// Toy validator: σ is valid iff σ == SHA-256("cert" || value).
Bytes make_cert(const Bytes& value) {
  return sha256_tagged("cert", value).to_bytes();
}

bool toy_validate(BytesView value, BytesView sigma) {
  return Bytes(sigma.begin(), sigma.end()) ==
         sha256_tagged("cert", value).to_bytes();
}

std::unique_ptr<Simulator> cd_sim(std::shared_ptr<const CommTree> tree,
                                  const std::vector<bool>& corrupt, const Bytes& value,
                                  const Bytes& sigma, std::size_t redundancy,
                                  std::unique_ptr<Adversary> adv) {
  auto factory = [&](PartyId i) -> std::unique_ptr<SubProtocol> {
    const auto& sc = tree->supreme_committee();
    std::optional<Bytes> init;
    Bytes sig;
    if (std::find(sc.begin(), sc.end(), i) != sc.end()) {
      init = value;
      sig = sigma;
    }
    return std::make_unique<CertifiedDissemProto>(tree, i, init, sig, toy_validate,
                                                  redundancy);
  };
  return make_subproto_sim(tree->params().n, corrupt, factory, std::move(adv));
}

TEST(CertifiedDissem, EveryoneGetsValueAndCertificate) {
  const std::size_t n = 128;
  auto tree = std::make_shared<const CommTree>(TreeParams::scaled(n), 1);
  Bytes value = to_bytes("y=1|s=...");
  auto sim = cd_sim(tree, std::vector<bool>(n, false), value, make_cert(value), 3, nullptr);
  sim->run(64);
  std::size_t with_cert = 0;
  for (PartyId i = 0; i < n; ++i) {
    auto* cd = hosted<CertifiedDissemProto>(*sim, i);
    ASSERT_NE(cd, nullptr);
    ASSERT_TRUE(cd->value().has_value()) << "party " << i;
    EXPECT_EQ(*cd->value(), value);
    if (!cd->certificate().empty()) ++with_cert;
  }
  // Sparse redundancy: everyone votes correctly, and the overwhelming
  // majority also ends holding the certificate itself.
  EXPECT_GE(with_cert * 10, n * 9);
}

TEST(CertifiedDissem, HigherRedundancyMoreCertificates) {
  const std::size_t n = 128;
  auto tree = std::make_shared<const CommTree>(TreeParams::scaled(n), 2);
  Rng rng(3);
  std::vector<bool> corrupt(n, false);
  for (auto idx : rng.subset(n, n / 4)) corrupt[idx] = true;
  Bytes value = to_bytes("v");

  auto count_certs = [&](std::size_t redundancy) {
    auto sim = cd_sim(tree, corrupt, value, make_cert(value), redundancy, nullptr);
    sim->run(64);
    std::size_t certs = 0;
    for (PartyId i = 0; i < n; ++i) {
      if (corrupt[i]) continue;
      auto* cd = hosted<CertifiedDissemProto>(*sim, i);
      if (cd && !cd->certificate().empty()) ++certs;
    }
    return certs;
  };
  EXPECT_GE(count_certs(4), count_certs(1));
}

TEST(CertifiedDissem, BytesScaleWithRedundancy) {
  const std::size_t n = 128;
  auto tree = std::make_shared<const CommTree>(TreeParams::scaled(n), 4);
  Bytes value = to_bytes("v");
  Bytes big_cert = make_cert(value);

  auto bytes_at = [&](std::size_t redundancy) {
    auto sim = cd_sim(tree, std::vector<bool>(n, false), value, big_cert, redundancy,
                      nullptr);
    sim->run(64);
    return sim->stats().total_bytes();
  };
  // More redundancy = more certificate copies on the wire.
  EXPECT_GT(bytes_at(6), bytes_at(1));
}

/// Adversary pushing a forged certificate for a conflicting value.
class ForgedCertAdversary final : public Adversary {
 public:
  ForgedCertAdversary(std::shared_ptr<const CommTree> tree, std::vector<bool> corrupt)
      : tree_(std::move(tree)), corrupt_(std::move(corrupt)) {}

  std::vector<Message> on_round(std::size_t round, const std::vector<Message>&,
                                const std::vector<SendList>&) override {
    std::vector<Message> out;
    const std::size_t h = tree_->height();
    if (round >= h) return out;
    Bytes evil = to_bytes("EVIL");
    Bytes fake = Rng(round).bytes(32);  // cannot match SHA-256("cert"||evil)
    std::size_t level = h - round;
    for (std::size_t id : tree_->level_nodes(level)) {
      const TreeNode& node = tree_->node(id);
      for (PartyId member : node.committee) {
        if (!corrupt_[member]) continue;
        if (level > 1) {
          for (std::size_t child : node.children) {
            Writer w;
            w.u8(0);
            w.u64(child);
            w.bytes(evil);
            w.bytes(fake);
            Bytes body = std::move(w).take();
            for (PartyId p : tree_->node(child).committee) {
              out.push_back(Message{member, p, tag_body(0, 0, body)});
            }
          }
        } else {
          Writer w;
          w.u8(1);
          w.u64(id);
          w.bytes(evil);
          w.bytes(fake);
          Bytes body = std::move(w).take();
          for (std::uint64_t v = node.vmin; v <= node.vmax; ++v) {
            out.push_back(Message{member, tree_->owner_of_virtual(v),
                                  tag_body(0, 0, body)});
          }
        }
      }
    }
    return out;
  }

 private:
  std::shared_ptr<const CommTree> tree_;
  std::vector<bool> corrupt_;
};

TEST(CertifiedDissem, ForgedCertificatesNeverAccepted) {
  const std::size_t n = 128;
  auto tree = std::make_shared<const CommTree>(TreeParams::scaled(n), 5);
  Rng rng(6);
  std::vector<bool> corrupt(n, false);
  for (auto idx : rng.subset(n, n / 5)) corrupt[idx] = true;
  Bytes value = to_bytes("truth");
  auto adv = std::make_unique<ForgedCertAdversary>(tree, corrupt);
  auto sim = cd_sim(tree, corrupt, value, make_cert(value), 3, std::move(adv));
  sim->run(64);
  for (PartyId i = 0; i < n; ++i) {
    if (corrupt[i]) continue;
    auto* cd = hosted<CertifiedDissemProto>(*sim, i);
    ASSERT_NE(cd, nullptr);
    if (!cd->certificate().empty()) {
      // Any certificate a party holds must validate for its value.
      ASSERT_TRUE(cd->value().has_value());
      EXPECT_TRUE(toy_validate(*cd->value(), cd->certificate())) << "party " << i;
      EXPECT_EQ(*cd->value(), value) << "party " << i;
    }
  }
}

TEST(CertifiedDissem, EmptyInitialCertificateStillDisseminatesValue) {
  const std::size_t n = 64;
  auto tree = std::make_shared<const CommTree>(TreeParams::scaled(n), 7);
  Bytes value = to_bytes("uncertified");
  auto sim = cd_sim(tree, std::vector<bool>(n, false), value, Bytes{}, 3, nullptr);
  sim->run(64);
  for (PartyId i = 0; i < n; ++i) {
    auto* cd = hosted<CertifiedDissemProto>(*sim, i);
    ASSERT_NE(cd, nullptr);
    ASSERT_TRUE(cd->value().has_value());
    EXPECT_EQ(*cd->value(), value);
    EXPECT_TRUE(cd->certificate().empty());
  }
}

}  // namespace
}  // namespace srds
