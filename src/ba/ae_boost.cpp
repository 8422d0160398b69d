#include "ba/ae_boost.hpp"

#include <algorithm>

#include "common/serial.hpp"

namespace srds {

Bytes encode_ys(bool y, BytesView s) {
  Writer w;
  w.u8(y ? 1 : 0);
  w.bytes(s);
  return std::move(w).take();
}

bool decode_ys(BytesView blob, bool& y, Bytes& s) {
  Reader r(blob);
  y = r.u8() != 0;
  s = r.bytes();
  return r.done() && s.size() == 32;
}

AeBoostParty::AeBoostParty(AeConfig config, PartyId me, bool input)
    : cfg_(std::move(config)), me_(me), input_(input) {
  const auto& committee = cfg_.tree->supreme_committee();
  in_committee_ = std::find(committee.begin(), committee.end(), me_) != committee.end();
  committee_t_ = (committee.size() - 1) / 3;

  const std::size_t ba_rounds = committee_t_ + 2;
  const std::size_t ct_rounds = 2 * (committee_t_ + 2);
  const std::size_t dissem_rounds = cfg_.tree->height() + 1;

  inject_rounds_ = cfg_.broadcaster.has_value() ? 1 : 0;
  ba_start_ = inject_rounds_;
  ct_start_ = ba_start_ + ba_rounds;
  dissem_start_ = ct_start_ + ct_rounds;
  boost_start_ = dissem_start_ + dissem_rounds;

  if (in_committee_ && !cfg_.broadcaster.has_value()) {
    // BA mode: the committee BA exists from the start with my input. In
    // broadcast mode it is created after the sender's injection round.
    make_committee_protocols(input_);
  } else if (in_committee_) {
    ct_ = std::make_unique<CoinTossProto>(cfg_.registry, committee, committee_t_,
                                          to_bytes("pi-ba/f_ct"), me_,
                                          cfg_.seed * 0x10001ULL + me_);
  }
}

void AeBoostParty::make_committee_protocols(bool ba_input_bit) {
  const auto& committee = cfg_.tree->supreme_committee();
  Bytes ba_input{static_cast<std::uint8_t>(ba_input_bit ? 1 : 0)};
  ba_ = std::make_unique<CommitteeBaProto>(cfg_.registry, committee, committee_t_,
                                           to_bytes("pi-ba/f_ba"), me_, ba_input);
  if (!ct_) {
    ct_ = std::make_unique<CoinTossProto>(cfg_.registry, committee, committee_t_,
                                          to_bytes("pi-ba/f_ct"), me_,
                                          cfg_.seed * 0x10001ULL + me_);
  }
}

SendList AeBoostParty::on_round(std::size_t round, const std::vector<Message>& inbox) {
  // Demux by phase tag. Bodies borrow `inbox`, which outlives this call.
  std::vector<TaggedMsg> ba_in, ct_in, dissem_in, boost_in;
  for (const auto& m : inbox) {
    std::uint32_t phase;
    std::uint64_t instance;
    BytesView body;
    if (!untag_body(m.payload, phase, instance, body)) {
      malformed_ += 1;
      continue;
    }
    switch (phase) {
      case 1: ba_in.emplace_back(m.from, body, instance); break;
      case 2: ct_in.emplace_back(m.from, body, instance); break;
      case 3: dissem_in.emplace_back(m.from, body, instance); break;
      case kBoostPhase: boost_in.emplace_back(m.from, body, instance); break;
      default: break;
    }
  }

  SendList out;
  auto emit = [&](std::uint32_t phase, Outbox sends) {
    MsgKind kind = MsgKind::kUnknown;
    switch (phase) {
      case 1: kind = MsgKind::kCommitteeBa; break;
      case 2: kind = MsgKind::kCoinToss; break;
      case 3: kind = MsgKind::kDissem; break;
      default: break;
    }
    send_tagged(out, std::move(sends), phase, 0, kind);
  };

  // P0 (broadcast mode only): the sender injects its bit into the supreme
  // committee; committee members form their BA input from it next round.
  if (cfg_.broadcaster.has_value()) {
    if (round == 0 && me_ == *cfg_.broadcaster) {
      const Bytes bit{static_cast<std::uint8_t>(input_ ? 1 : 0)};
      out.send_all(cfg_.tree->supreme_committee(), tag_body(4, 0, bit), MsgKind::kInject, me_);
      if (in_committee_) injected_bit_ = input_;
    }
    if (round == 1 && in_committee_) {
      for (const auto& m : inbox) {
        std::uint32_t phase;
        std::uint64_t instance;
        BytesView body;
        if (untag_body(m.payload, phase, instance, body) && phase == 4 &&
            m.from == *cfg_.broadcaster && body.size() == 1) {
          injected_bit_ = body[0] != 0;
        }
      }
      make_committee_protocols(injected_bit_.value_or(false));
    }
  }

  // P1: committee BA.
  if (ba_ && round >= ba_start_ && round < ba_start_ + ba_->rounds()) {
    emit(1, ba_->step(round - ba_start_, ba_in));
  }
  // P2: coin toss.
  if (ct_ && round >= ct_start_ && round < ct_start_ + ct_->rounds()) {
    emit(2, ct_->step(round - ct_start_, ct_in));
  }
  // P3: dissemination (constructed lazily; committee members seed it with
  // their agreed (y, s)).
  if (round == dissem_start_) {
    std::optional<Bytes> init;
    if (in_committee_ && ba_ && ct_ && ba_->output().has_value() &&
        ct_->output().has_value()) {
      bool y = !ba_->output()->empty() && (*ba_->output())[0] != 0;
      init = encode_ys(y, *ct_->output());
    }
    dissem_ = std::make_unique<DisseminationProto>(cfg_.tree, me_, std::move(init));
  }
  if (dissem_ && round >= dissem_start_ && round < dissem_start_ + dissem_->rounds()) {
    emit(3, dissem_->step(round - dissem_start_, dissem_in));
    if (round + 1 == dissem_start_ + dissem_->rounds()) {
      finish_ae_phase();
      dissem_.reset();  // its tallies are dead weight through the boost
    }
  }

  // Boost phase. The subclass's round budget must include a final
  // ingest-only step (messages sent in its step k arrive at step k+1).
  const std::size_t boost_end = boost_start_ + boost_rounds();
  if (round >= boost_start_ && round < boost_end) {
    out.append(boost_step(round - boost_start_, boost_in));
    if (round + 1 == boost_end) {
      boost_finish();
      if (cfg_.grace_rounds == 0) done_ = true;
    }
  }

  // Grace window: keep ingesting late boost traffic; at the very end, a
  // still-undecided party falls back to partial information rather than
  // ending the run undecided (graceful degradation under network faults).
  if (cfg_.grace_rounds > 0 && round >= boost_end && round < total_rounds()) {
    grace_step(boost_in);
    if (round + 1 == total_rounds()) {
      if (!output_.has_value()) decide_with_partial_info();
      done_ = true;
    }
  }
  return out;
}

void AeBoostParty::finish_ae_phase() {
  if (!dissem_ || !dissem_->output().has_value()) return;
  bool y;
  Bytes s;
  if (!decode_ys(*dissem_->output(), y, s)) return;
  ae_y_ = y;
  ae_seed_ = s;
  ae_blob_ = *dissem_->output();
}

}  // namespace srds
