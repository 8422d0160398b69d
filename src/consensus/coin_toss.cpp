#include "consensus/coin_toss.hpp"

#include <algorithm>

#include "common/serial.hpp"
#include "consensus/dolev_strong.hpp"
#include "consensus/field.hpp"
#include "crypto/commit.hpp"
#include "crypto/sha256.hpp"
#include "obs/prof.hpp"

namespace srds {

namespace {

constexpr std::uint8_t kKindBlockA = 0;
constexpr std::uint8_t kKindShare = 1;
constexpr std::uint8_t kKindBlockB = 2;

Bytes share_commit_message(std::uint64_t y) {
  Writer w;
  w.u64(y);
  return std::move(w).take();
}

/// Parallel Dolev-Strong block where member s broadcasts `my_input` (only
/// used for my own instance).
std::unique_ptr<ParallelProto> make_ds_block(const SimSigRegistryPtr& registry,
                                             const std::vector<PartyId>& members, std::size_t t,
                                             const Bytes& domain, std::uint8_t block_id,
                                             PartyId me, const Bytes& my_input) {
  std::vector<std::unique_ptr<SubProtocol>> instances;
  instances.reserve(members.size());
  for (std::size_t s = 0; s < members.size(); ++s) {
    Writer w;
    w.bytes(domain);
    w.u8(block_id);
    w.u64(s);
    std::optional<Bytes> input;
    if (members[s] == me) input = my_input;
    instances.push_back(std::make_unique<DolevStrongProto>(registry, members, s, t,
                                                           std::move(w).take(), me,
                                                           std::move(input)));
  }
  return std::make_unique<ParallelProto>(std::move(instances));
}

}  // namespace

CoinTossProto::CoinTossProto(SimSigRegistryPtr registry, std::vector<PartyId> members,
                             std::size_t t, Bytes domain, PartyId me, std::uint64_t local_seed)
    : registry_(std::move(registry)),
      members_(std::move(members)),
      t_(t),
      domain_(std::move(domain)),
      me_(me),
      rng_(local_seed),
      received_(members_.size()) {
  auto it = std::find(members_.begin(), members_.end(), me_);
  my_idx_ = static_cast<std::size_t>(it - members_.begin());

  const std::size_t c = members_.size();
  my_r_ = rng_.below(Gf61::kP);
  my_shares_ = shamir_share(my_r_, t_, c, rng_);
  my_rhos_.reserve(c);
  for (std::size_t j = 0; j < c; ++j) my_rhos_.push_back(rng_.bytes(16));

  // Block A input: my share-commitment vector.
  Writer commitments;
  commitments.u32(static_cast<std::uint32_t>(c));
  for (std::size_t j = 0; j < c; ++j) {
    commitments.raw(commit(share_commit_message(my_shares_[j].y), my_rhos_[j]).value.view());
  }
  block_a_ = make_ds_block(registry_, members_, t_, domain_, kKindBlockA, me_,
                           commitments.data());
}

Outbox CoinTossProto::step(std::size_t subround, const std::vector<TaggedMsg>& inbox) {
  const std::size_t block_rounds = t_ + 2;

  // Demux inbox by kind.
  std::vector<TaggedMsg> a_msgs, b_msgs;
  for (const auto& msg : inbox) {
    Reader r(msg.body);
    std::uint8_t kind = r.u8();
    if (!r.ok()) continue;
    BytesView inner = r.view(r.remaining());
    if (kind == kKindBlockA) {
      a_msgs.emplace_back(msg.from, inner, msg.instance);
    } else if (kind == kKindBlockB) {
      b_msgs.emplace_back(msg.from, inner, msg.instance);
    } else if (kind == kKindShare && subround == 1) {
      // Private share delivered by a dealer in round 0.
      auto it = std::find(members_.begin(), members_.end(), msg.from);
      if (it == members_.end()) continue;
      std::size_t dealer = static_cast<std::size_t>(it - members_.begin());
      Reader sr(inner);
      std::uint64_t y = sr.u64();
      Bytes rho = sr.raw(16);
      if (!sr.done()) continue;
      received_[dealer] = ReceivedShare{true, y, std::move(rho)};
    }
  }

  if (subround < block_rounds) {
    // Block A: commitment broadcasts (+ private shares in round 0).
    Outbox out = block_a_->step(subround, a_msgs);
    out.frame(std::array{kKindBlockA});
    if (subround == 0) {
      for (std::size_t j = 0; j < members_.size(); ++j) {
        if (members_[j] == me_) {
          received_[my_idx_] = ReceivedShare{true, my_shares_[j].y, my_rhos_[j]};
          continue;
        }
        Writer w;
        w.reserve(1 + 8 + my_rhos_[j].size() + kFrameHeadroom);
        w.u8(kKindShare);
        w.u64(my_shares_[j].y);
        w.raw(my_rhos_[j]);
        out.send(members_[j], std::move(w).take());
      }
    }
    return out;
  }

  // Block B: reveal all received shares.
  if (subround == block_rounds) {
    Writer reveal;
    reveal.u32(static_cast<std::uint32_t>(received_.size()));
    for (const auto& rs : received_) {
      reveal.u8(rs.has ? 1 : 0);
      reveal.u64(rs.y);
      reveal.raw(rs.has ? rs.rho : Bytes(16, 0));
    }
    block_b_ = make_ds_block(registry_, members_, t_, domain_, kKindBlockB, me_,
                             reveal.data());
  }
  Outbox out = block_b_->step(subround - block_rounds, b_msgs);
  out.frame(std::array{kKindBlockB});

  if (subround + 1 == rounds()) decide();
  return out;
}

void CoinTossProto::decide() {
  PROF_SCOPE(obs::ProfSiteId::kConsensusCoinDecide);
  const std::size_t c = members_.size();
  const std::size_t need = std::min(2 * t_ + 1, c);

  // Parse every member's block-B reveal vector (nullopt if DS failed).
  std::vector<std::optional<std::vector<ReceivedShare>>> reveals(c);
  for (std::size_t j = 0; j < c; ++j) {
    const auto* ds = dynamic_cast<const DolevStrongProto*>(block_b_->child(j));
    if (!ds || !ds->output().has_value()) continue;
    Reader r(*ds->output());
    std::uint32_t count = r.u32();
    if (count != c) continue;
    std::vector<ReceivedShare> vec(c);
    bool ok = true;
    for (std::uint32_t i = 0; i < count; ++i) {
      vec[i].has = r.u8() != 0;
      vec[i].y = r.u64();
      vec[i].rho = r.raw(16);
      if (!r.ok()) {
        ok = false;
        break;
      }
    }
    if (ok && r.done()) reveals[j] = std::move(vec);
  }

  // One code per distinct set of valid share positions; in a fault-free
  // toss every dealer has the same set.
  std::vector<ShamirCode> codes;
  Writer contributions;
  for (std::size_t dealer = 0; dealer < c; ++dealer) {
    std::uint64_t contribution = 0;
    const auto* ds = dynamic_cast<const DolevStrongProto*>(block_a_->child(dealer));
    std::vector<Digest> commitments;
    bool have_commitments = false;
    if (ds && ds->output().has_value()) {
      Reader r(*ds->output());
      std::uint32_t count = r.u32();
      if (count == c) {
        commitments.reserve(c);
        bool ok = true;
        for (std::uint32_t j = 0; j < count; ++j) {
          Bytes raw = r.raw(32);
          if (!r.ok()) {
            ok = false;
            break;
          }
          commitments.push_back(Digest::from(raw));
        }
        have_commitments = ok && r.done();
      }
    }
    if (have_commitments) {
      // Member j's share sits at x = j + 1.
      std::vector<std::uint64_t> xs, ys;
      for (std::size_t j = 0; j < c; ++j) {
        if (!reveals[j].has_value()) continue;
        const auto& rs = (*reveals[j])[dealer];
        if (!rs.has) continue;
        if (commit_open(Commitment{commitments[j]}, share_commit_message(rs.y), rs.rho)) {
          xs.push_back(j + 1);
          ys.push_back(rs.y);
        }
      }
      if (xs.size() >= need) {
        auto code = std::find_if(codes.begin(), codes.end(),
                                 [&](const ShamirCode& k) { return k.xs() == xs; });
        if (code == codes.end()) code = codes.insert(code, ShamirCode(xs, t_));
        if (code->consistent(ys)) contribution = code->secret(ys).value_or(0);
      }
    }
    contributions.u64(contribution);
  }
  output_ = sha256_tagged("coin", contributions.data()).to_bytes();
}

}  // namespace srds
