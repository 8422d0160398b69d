// Wire-format robustness: every parser that consumes network bytes must
// survive arbitrary garbage without crashing and without false accepts.
// These sweeps drive random and structure-adjacent mutations through every
// deserializer and through live sub-protocol inboxes.
#include <gtest/gtest.h>

#include <memory>

#include "ba/certified_dissem.hpp"
#include "ba/runner.hpp"
#include "common/rng.hpp"
#include "consensus/coin_toss.hpp"
#include "consensus/dolev_strong.hpp"
#include "crypto/merkle.hpp"
#include "crypto/multisig.hpp"
#include "crypto/wots.hpp"
#include "mpc/fhe.hpp"
#include "srds/owf_srds.hpp"
#include "srds/snark_srds.hpp"
#include "svc/frame.hpp"
#include "tree/dissemination.hpp"

namespace srds {
namespace {

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Bytes random_garbage(Rng& rng) { return rng.bytes(rng.below(400)); }

  /// Truncations and single-byte flips of a valid wire blob.
  std::vector<Bytes> mutations(const Bytes& valid, Rng& rng) {
    std::vector<Bytes> out;
    if (valid.empty()) return out;
    out.push_back(Bytes(valid.begin(), valid.begin() + valid.size() / 2));
    out.push_back(Bytes(valid.begin(), valid.end() - 1));
    Bytes flipped = valid;
    flipped[rng.below(flipped.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    out.push_back(std::move(flipped));
    Bytes extended = valid;
    extended.push_back(0x55);
    out.push_back(std::move(extended));
    return out;
  }
};

TEST_P(WireFuzz, StructDeserializersNeverCrash) {
  Rng rng(GetParam() * 77 + 1);
  for (int trial = 0; trial < 40; ++trial) {
    Bytes junk = random_garbage(rng);
    WotsSignature wots;
    (void)WotsSignature::deserialize(junk, wots);
    MerklePath path;
    (void)MerklePath::deserialize(junk, path);
    Multisig ms;
    (void)Multisig::deserialize(junk, ms);
    Ciphertext ct;
    (void)Ciphertext::deserialize(junk, ct);
  }
  SUCCEED();
}

TEST_P(WireFuzz, MutatedWotsSignaturesRejected) {
  Rng rng(GetParam() * 77 + 2);
  auto kp = wots_keygen(rng.bytes(32));
  Bytes m = to_bytes("fuzz");
  Bytes valid = wots_sign(kp, m).serialize();
  for (const Bytes& mut : mutations(valid, rng)) {
    WotsSignature sig;
    if (WotsSignature::deserialize(mut, sig)) {
      EXPECT_FALSE(wots_verify(kp.verification_key, m, sig));
    }
  }
}

TEST_P(WireFuzz, MutatedSrdsBlobsRejected) {
  Rng rng(GetParam() * 77 + 3);
  SnarkSrdsParams p;
  p.n_signers = 24;
  p.backend = BaseSigBackend::kCompact;
  SnarkSrds scheme(p, GetParam());
  for (std::size_t i = 0; i < 24; ++i) scheme.keygen(i);
  scheme.finalize_keys();
  Bytes m = to_bytes("fuzz");
  std::vector<Bytes> sigs;
  for (std::size_t i = 0; i < 24; ++i) sigs.push_back(scheme.sign(i, m));
  Bytes agg = scheme.aggregate(m, sigs);
  ASSERT_TRUE(scheme.verify(m, agg));
  for (const Bytes& mut : mutations(agg, rng)) {
    EXPECT_FALSE(scheme.verify(m, mut));
  }
  for (const Bytes& mut : mutations(sigs[0], rng)) {
    EXPECT_TRUE(scheme.aggregate1(m, {mut}).empty());
  }
}

TEST_P(WireFuzz, SubProtocolInboxesSurviveGarbage) {
  Rng rng(GetParam() * 77 + 4);
  auto tree = std::make_shared<const CommTree>(TreeParams::scaled(64), 5);
  auto registry = std::make_shared<const SimSigRegistry>(64, 6);
  std::vector<PartyId> members{0, 1, 2, 3, 4, 5, 6};

  DolevStrongProto ds(registry, members, 0, 2, to_bytes("fz"), 1, std::nullopt);
  CoinTossProto ct(registry, members, 2, to_bytes("fz"), 1, 7);
  DisseminationProto dis(tree, 1, std::nullopt);
  CertifiedDissemProto cd(tree, 1, std::nullopt, {},
                          [](BytesView, BytesView) { return false; }, 3);

  for (std::size_t round = 0; round < 12; ++round) {
    // The frames outlive the steps that borrow them.
    std::vector<PartyId> senders;
    std::vector<Bytes> frames;
    for (int k = 0; k < 6; ++k) {
      senders.push_back(static_cast<PartyId>(rng.below(64)));
      frames.push_back(random_garbage(rng));
    }
    std::vector<TaggedMsg> inbox;
    for (int k = 0; k < 6; ++k) inbox.emplace_back(senders[k], frames[k]);
    if (round < ds.rounds()) (void)ds.step(round, inbox);
    if (round < ct.rounds()) (void)ct.step(round, inbox);
    if (round < dis.rounds()) (void)dis.step(round, inbox);
    if (round < cd.rounds()) (void)cd.step(round, inbox);
  }
  // Garbage must never produce an accepted output.
  EXPECT_FALSE(ds.output().has_value());
  EXPECT_FALSE(dis.output().has_value());
  EXPECT_TRUE(cd.certificate().empty());
}

TEST_P(WireFuzz, OwfSchemeSurvivesStructuredGarbage) {
  Rng rng(GetParam() * 77 + 5);
  OwfSrdsParams p;
  p.n_signers = 40;
  p.expected_signers = 12;
  p.backend = BaseSigBackend::kCompact;
  OwfSrds scheme(p, GetParam() + 1);
  for (std::size_t i = 0; i < 40; ++i) scheme.keygen(i);
  scheme.finalize_keys();
  Bytes m = to_bytes("fuzz");
  for (int trial = 0; trial < 25; ++trial) {
    Bytes junk = random_garbage(rng);
    if (!junk.empty()) junk[0] = 1;  // force the aggregate tag byte
    EXPECT_FALSE(scheme.verify(m, junk));
    IndexRange r;
    (void)scheme.index_range(junk, r);
    (void)scheme.base_count(junk);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Range<std::uint64_t>(0, 8));

// Chaos fuzz: randomized FaultPlan schedules driven through full BA runs.
// The invariants are absolute — whatever the plan drops, delays, duplicates,
// partitions or crashes, the run must not crash and no two honest parties
// may ever decide different values. (Availability is NOT asserted here; a
// hostile-enough plan may legitimately leave parties undecided.)
class ChaosFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  FaultPlan random_plan(Rng& rng, std::size_t n) {
    FaultPlan plan;
    plan.seed = rng.next();
    plan.drop_prob = static_cast<double>(rng.below(31)) / 100.0;  // 0..0.30
    if (rng.below(2) == 0) {
      plan.delay_prob = static_cast<double>(rng.below(26)) / 100.0;
      plan.max_delay = 1 + rng.below(3);
    }
    if (rng.below(2) == 0) {
      plan.duplicate_prob = static_cast<double>(rng.below(16)) / 100.0;
    }
    if (rng.below(2) == 0) {
      PartitionWindow w;
      w.from_round = rng.below(12);
      w.until_round = w.from_round + 2 + rng.below(10);
      for (PartyId p : rng.subset(n, 2 + rng.below(n / 4))) w.group.push_back(p);
      plan.partitions.push_back(w);
    }
    for (std::size_t c = rng.below(4); c > 0; --c) {
      plan.crashes.push_back(
          CrashFault{static_cast<PartyId>(rng.below(n)), rng.below(20)});
    }
    return plan;
  }
};

TEST_P(ChaosFuzz, RandomFaultPlansNeverBreakAgreement) {
  Rng rng(GetParam() * 131 + 9);
  const std::size_t n = 48;
  // Certificate-carrying protocols: late decisions are gated on verified
  // certificates, so agreement is unconditional by construction; the fuzz
  // checks the implementation honors that under arbitrary schedules.
  const BoostProtocol protos[] = {BoostProtocol::kPiBaSnark, BoostProtocol::kStar};
  for (int trial = 0; trial < 3; ++trial) {
    FaultPlan plan = random_plan(rng, n);
    BaRunConfig cfg;
    cfg.n = n;
    cfg.beta = 0.1;
    cfg.seed = rng.next();
    cfg.protocol = protos[trial % 2];
    cfg.faults = plan;
    auto r = run_ba(cfg);  // must not crash/throw
    EXPECT_TRUE(r.agreement)
        << protocol_name(cfg.protocol) << " seed=" << plan.seed
        << " drop=" << plan.drop_prob << " delay=" << plan.delay_prob
        << " dup=" << plan.duplicate_prob
        << " partitions=" << plan.partitions.size()
        << " crashes=" << plan.crashes.size();
    EXPECT_LE(r.decided, r.honest);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosFuzz, ::testing::Range<std::uint64_t>(0, 6));

// Campaign fuzz: randomized attack-campaign schedules (kind x corruption
// rate, optionally overlaid with drop faults and churn windows) driven
// through full SNARK-SRDS runs. Safety is absolute: whatever the adaptive
// adversary seizes within its budget, no two finally-honest parties may
// decide differently — a hostile-enough campaign may only cost liveness.
class CampaignFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CampaignFuzz, RandomCampaignSchedulesNeverBreakSnarkAgreement) {
  Rng rng(GetParam() * 173 + 5);
  const std::size_t n = 48;
  const CampaignKind kinds[] = {CampaignKind::kTakeover, CampaignKind::kEclipse,
                                CampaignKind::kPartitionHeal};
  for (int trial = 0; trial < 3; ++trial) {
    BaRunConfig cfg;
    cfg.n = n;
    cfg.beta = 0.0;
    cfg.seed = rng.next();
    cfg.protocol = BoostProtocol::kPiBaSnark;
    cfg.campaign = kinds[rng.below(3)];
    cfg.corruption_rate = static_cast<double>(rng.below(41)) / 100.0;  // 0..0.40
    if (rng.below(2) == 0) {
      FaultPlan plan;
      plan.seed = rng.next();
      plan.drop_prob = static_cast<double>(rng.below(11)) / 100.0;
      if (rng.below(2) == 0) {
        std::size_t from = rng.below(8);
        plan.churn.push_back(ChurnWindow{static_cast<PartyId>(rng.below(n)), from,
                                         from + 1 + rng.below(6)});
      }
      cfg.faults = plan;
    }
    auto r = run_ba(cfg);  // must not crash/throw
    EXPECT_TRUE(r.agreement)
        << campaign_name(cfg.campaign) << " rate=" << cfg.corruption_rate
        << " seed=" << cfg.seed << " faults=" << cfg.faults.has_value();
    EXPECT_LE(r.adaptively_corrupted, r.corruption_budget);
    EXPECT_LE(r.decided, r.honest);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CampaignFuzz, ::testing::Range<std::uint64_t>(0, 6));

// Service frame codec fuzz: the svc daemon's front door parses bytes from
// untrusted transport clients (not simulated parties), so its decoder gets
// the same treatment as the party-facing deserializers — random garbage,
// truncation, duplication and reordering must never crash it, and valid
// frames around the damage must still come through wherever the length
// prefix keeps the stream in sync.
class FrameFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::vector<svc::Frame> sample_frames() {
    return {
        svc::make_hello(),
        svc::make_hello_ack(3, 8),
        svc::make_submit(3, 1, true),
        svc::make_decision(3, 1, false, true, 68, 9),
        svc::make_reject(3, 2, 40),
        svc::make_close(3),
        svc::make_error(3, 2, "diagnostic"),
    };
  }
};

TEST_P(FrameFuzz, DecoderSurvivesRandomGarbage) {
  Rng rng(GetParam() * 131 + 7);
  for (int trial = 0; trial < 50; ++trial) {
    svc::FrameDecoder dec;
    dec.feed(rng.bytes(rng.below(600)));
    while (dec.next().has_value()) {
    }
    // No crash, and the accounting stays coherent: a poisoned stream was
    // counted at least once.
    if (dec.poisoned()) {
      EXPECT_GE(dec.malformed(), 1u);
    }
  }
}

TEST_P(FrameFuzz, TruncationIsCountedOrLeavesFrameIncomplete) {
  Rng rng(GetParam() * 137 + 11);
  for (const svc::Frame& f : sample_frames()) {
    const Bytes wire = svc::encode_frame(f);
    for (int trial = 0; trial < 8; ++trial) {
      const std::size_t cut = rng.below(wire.size());
      svc::FrameDecoder dec;
      dec.feed(BytesView(wire.data(), cut));
      // A truncated frame must never be surfaced as a complete one.
      EXPECT_FALSE(dec.next().has_value());
      // Completing the bytes later must always recover the frame (the
      // decoder is chunk-boundary agnostic).
      dec.feed(BytesView(wire.data() + cut, wire.size() - cut));
      auto got = dec.next();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->type, f.type);
      EXPECT_EQ(got->seq, f.seq);
      EXPECT_EQ(got->payload, f.payload);
    }
  }
}

TEST_P(FrameFuzz, DuplicationAndReorderDecodePerFrame) {
  Rng rng(GetParam() * 139 + 13);
  for (int trial = 0; trial < 20; ++trial) {
    // Build a shuffled multiset of frames: duplicates and arbitrary order
    // are a transport-level reality the codec must be indifferent to (the
    // session layer, not the decoder, classifies duplicates).
    std::vector<svc::Frame> frames = sample_frames();
    frames.push_back(frames[rng.below(frames.size())]);  // duplicate one
    rng.shuffle(frames);

    Bytes wire;
    for (const svc::Frame& f : frames) {
      Bytes one = svc::encode_frame(f);
      wire.insert(wire.end(), one.begin(), one.end());
    }
    svc::FrameDecoder dec;
    // Feed in random chunk sizes.
    std::size_t pos = 0;
    while (pos < wire.size()) {
      const std::size_t len = std::min<std::size_t>(1 + rng.below(23), wire.size() - pos);
      dec.feed(BytesView(wire.data() + pos, len));
      pos += len;
    }
    std::vector<svc::Frame> got;
    while (auto f = dec.next()) got.push_back(*f);
    ASSERT_EQ(got.size(), frames.size());
    EXPECT_EQ(dec.malformed(), 0u);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(got[i].type, frames[i].type) << i;
      EXPECT_EQ(got[i].session, frames[i].session) << i;
      EXPECT_EQ(got[i].seq, frames[i].seq) << i;
      EXPECT_EQ(got[i].payload, frames[i].payload) << i;
    }
  }
}

TEST_P(FrameFuzz, CorruptedStreamNeverFalselyAccepts) {
  Rng rng(GetParam() * 149 + 17);
  const std::vector<svc::Frame> frames = sample_frames();
  for (int trial = 0; trial < 40; ++trial) {
    Bytes wire;
    for (const svc::Frame& f : frames) {
      Bytes one = svc::encode_frame(f);
      wire.insert(wire.end(), one.begin(), one.end());
    }
    // Flip a few random bytes anywhere in the stream.
    for (int flips = 0; flips < 3; ++flips) {
      wire[rng.below(wire.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    svc::FrameDecoder dec;
    dec.feed(wire);
    std::size_t yielded = 0;
    while (auto f = dec.next()) {
      ++yielded;
      // Whatever survived must be structurally valid (a known type: the
      // decoder promises returned frames are parseable).
      EXPECT_GE(static_cast<std::uint8_t>(f->type),
                static_cast<std::uint8_t>(svc::FrameType::kHello));
      EXPECT_LE(static_cast<std::uint8_t>(f->type),
                static_cast<std::uint8_t>(svc::FrameType::kError));
    }
    EXPECT_LE(yielded, frames.size() + 3);  // flips cannot mint extra frames
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameFuzz, ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace srds
