// Unit and property tests for src/crypto.
#include <gtest/gtest.h>

#include <set>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/commit.hpp"
#include "crypto/hmac.hpp"
#include "crypto/merkle.hpp"
#include "crypto/multisig.hpp"
#include "crypto/prf.hpp"
#include "crypto/prg.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernels.hpp"
#include "crypto/simsig.hpp"
#include "crypto/wots.hpp"

namespace srds {
namespace {

// --- SHA-256: FIPS 180-4 / RFC 6234 test vectors ---

TEST(Sha256, EmptyInput) {
  EXPECT_EQ(to_hex(sha256(Bytes{}).view()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256(to_bytes("abc")).view()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(sha256(to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")).view()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 ctx;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.finish().view()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    Bytes data = rng.bytes(1 + rng.below(300));
    Sha256 ctx;
    std::size_t cut = rng.below(data.size());
    ctx.update(BytesView{data.data(), cut});
    ctx.update(BytesView{data.data() + cut, data.size() - cut});
    EXPECT_EQ(ctx.finish(), sha256(data));
  }
}

TEST(Sha256, TaggedDomainSeparation) {
  Bytes m = to_bytes("msg");
  EXPECT_NE(sha256_tagged("a", m), sha256_tagged("b", m));
  EXPECT_NE(sha256_tagged("a", m), sha256(m));
}

// --- SHA-256 kernels: the scalar reference against SHA-NI ---
//
// sha256() runs on whichever kernel the CPU supports; these tests pin each
// kernel through crypto/sha256_kernels.hpp. The scalar legs always run; the
// SHA-NI legs skip on CPUs without the SHA extensions.

using Kernel = decltype(&sha256_kernels::compress_scalar);

Digest hash_with(Kernel kernel, BytesView data) {
  return sha256_kernels::PinnedSha256(kernel).update(data).finish();
}

#define SKIP_WITHOUT_SHANI()                                                 \
  if (!sha256_kernels::shani_available())                                    \
  GTEST_SKIP() << "CPU lacks SHA-NI (cpuid 'sha'): sha256() runs on the "     \
                  "scalar kernel, which the scalar legs cover"

struct KnownAnswer {
  std::string msg;
  const char* hex;
};

// FIPS 180-4 vectors plus padding-edge lengths (digests from an independent
// SHA-256 implementation).
std::vector<KnownAnswer> known_answers() {
  return {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopq"
       "rlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
      // Padding edges: at 55 bytes the length field just fits the last
      // block, at 56 it spills into another one (likewise 119/120).
      {std::string(55, 'a'), "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {std::string(56, 'a'), "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {std::string(57, 'a'), "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6"},
      {std::string(63, 'a'), "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {std::string(64, 'a'), "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {std::string(65, 'a'), "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
      {std::string(119, 'a'), "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {std::string(120, 'a'), "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
}

void expect_known_answers(Kernel kernel) {
  for (const auto& v : known_answers()) {
    EXPECT_EQ(to_hex(hash_with(kernel, to_bytes(v.msg)).view()), v.hex)
        << "message length " << v.msg.size();
  }
}

// Every split point of every length 0..300, against a one-shot hash.
void expect_splits_match_one_shot(Kernel kernel, Kernel reference) {
  Bytes data = Rng(21).bytes(301);
  for (std::size_t len = 0; len <= 300; ++len) {
    BytesView msg{data.data(), len};
    const Digest want = hash_with(reference, msg);
    for (std::size_t cut = 0; cut <= len; ++cut) {
      sha256_kernels::PinnedSha256 ctx(kernel);
      ctx.update(msg.first(cut));
      ctx.update(msg.subspan(cut));
      ASSERT_EQ(ctx.finish(), want) << "length " << len << " split at " << cut;
    }
  }
}

TEST(Sha256Kernels, ScalarMatchesKnownAnswers) {
  expect_known_answers(&sha256_kernels::compress_scalar);
}

TEST(Sha256Kernels, ScalarIncrementalMatchesOneShotAtEverySplit) {
  expect_splits_match_one_shot(&sha256_kernels::compress_scalar,
                               &sha256_kernels::compress_scalar);
}

TEST(Sha256Kernels, DispatchedMatchesScalarEveryLength) {
  Bytes data = Rng(22).bytes(301);
  for (std::size_t len = 0; len <= 300; ++len) {
    BytesView msg{data.data(), len};
    ASSERT_EQ(sha256(msg), hash_with(&sha256_kernels::compress_scalar, msg)) << "length " << len;
  }
}

TEST(Sha256Kernels, ShaNiMatchesKnownAnswers) {
  SKIP_WITHOUT_SHANI();
  expect_known_answers(&sha256_kernels::compress_shani);
}

TEST(Sha256Kernels, ShaNiMatchesScalarEveryLengthAndOffset) {
  SKIP_WITHOUT_SHANI();
  Bytes data = Rng(23).bytes(300 + 16);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      BytesView msg{data.data() + offset, len};
      ASSERT_EQ(hash_with(&sha256_kernels::compress_shani, msg),
                hash_with(&sha256_kernels::compress_scalar, msg))
          << "length " << len << " at offset " << offset;
    }
  }
}

TEST(Sha256Kernels, ShaNiIncrementalMatchesScalarAtEverySplit) {
  SKIP_WITHOUT_SHANI();
  expect_splits_match_one_shot(&sha256_kernels::compress_shani,
                               &sha256_kernels::compress_scalar);
}

// --- HMAC: RFC 4231 test vectors ---

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, to_bytes("Hi There")).view()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?")).view()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231LongKey) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First")).view()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeyedObjectIsReusable) {
  // mac() starts from the stored midstates and never advances them.
  const HmacSha256 h(Bytes(20, 0x0b));
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(to_hex(h.mac(to_bytes("Hi There")).view()),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    EXPECT_EQ(h.mac(Bytes(200, 0x42)), hmac_sha256(Bytes(20, 0x0b), Bytes(200, 0x42)));
  }
}

// --- PRG ---

TEST(Prg, DeterministicAndSeedSeparated) {
  Bytes seed1(32, 1), seed2(32, 2);
  EXPECT_EQ(Prg(seed1).next(64), Prg(seed1).next(64));
  EXPECT_NE(Prg(seed1).next(64), Prg(seed2).next(64));
}

TEST(Prg, RandomAccessMatchesStream) {
  Bytes seed(32, 7);
  Prg stream(seed);
  Bytes first64 = stream.next(64);
  Prg ra(seed);
  Bytes b0 = ra.block(0).to_bytes();
  Bytes b1 = ra.block(1).to_bytes();
  Bytes joined = concat(b0, b1);
  EXPECT_EQ(first64, joined);
}

TEST(Prg, OddSizedReads) {
  Bytes seed(32, 9);
  Prg a(seed), b(seed);
  Bytes x = a.next(7);
  Bytes y = a.next(10);
  Bytes z = concat(x, y);
  EXPECT_EQ(z, b.next(17));
}

// --- PRF subset (paper Fig. 3 step 7) ---

TEST(PrfSubset, DeterministicSortedUnique) {
  Bytes seed = Rng(1).bytes(32);
  auto s1 = prf_subset(seed, 5, 100, 10);
  auto s2 = prf_subset(seed, 5, 100, 10);
  EXPECT_EQ(s1, s2);
  ASSERT_EQ(s1.size(), 10u);
  EXPECT_TRUE(std::is_sorted(s1.begin(), s1.end()));
  for (auto v : s1) EXPECT_LT(v, 100u);
}

TEST(PrfSubset, DifferentIndexDifferentSubset) {
  Bytes seed = Rng(2).bytes(32);
  EXPECT_NE(prf_subset(seed, 1, 1000, 8), prf_subset(seed, 2, 1000, 8));
}

TEST(PrfSubset, MembershipConsistent) {
  Bytes seed = Rng(3).bytes(32);
  auto s = prf_subset(seed, 9, 64, 6);
  for (std::size_t j = 0; j < 64; ++j) {
    bool in = std::binary_search(s.begin(), s.end(), j);
    EXPECT_EQ(prf_subset_contains(seed, 9, 64, 6, j), in);
  }
}

TEST(PrfSubset, FullSet) {
  Bytes seed = Rng(4).bytes(32);
  auto s = prf_subset(seed, 0, 5, 5);
  EXPECT_EQ(s, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// --- Merkle ---

class MerkleSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleSizes, AllPathsVerify) {
  std::size_t n = GetParam();
  std::vector<Digest> leaves;
  Rng rng(100 + n);
  for (std::size_t i = 0; i < n; ++i) leaves.push_back(Digest::from(rng.bytes(32)));
  MerkleTree tree(leaves);
  for (std::size_t i = 0; i < n; ++i) {
    auto p = tree.path(i);
    EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[i], p, n)) << "leaf " << i;
  }
}

TEST_P(MerkleSizes, WrongLeafRejected) {
  std::size_t n = GetParam();
  std::vector<Digest> leaves;
  Rng rng(200 + n);
  for (std::size_t i = 0; i < n; ++i) leaves.push_back(Digest::from(rng.bytes(32)));
  MerkleTree tree(leaves);
  Digest bogus = Digest::from(rng.bytes(32));
  auto p = tree.path(0);
  EXPECT_FALSE(MerkleTree::verify(tree.root(), bogus, p, n));
}

INSTANTIATE_TEST_SUITE_P(LeafCounts, MerkleSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 100));

TEST(Merkle, WrongIndexRejected) {
  std::vector<Digest> leaves;
  Rng rng(5);
  for (int i = 0; i < 8; ++i) leaves.push_back(Digest::from(rng.bytes(32)));
  MerkleTree tree(leaves);
  auto p = tree.path(3);
  p.leaf_index = 4;
  EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[3], p, 8));
}

TEST(Merkle, PathDepthMismatchRejected) {
  std::vector<Digest> leaves;
  Rng rng(6);
  for (int i = 0; i < 8; ++i) leaves.push_back(Digest::from(rng.bytes(32)));
  MerkleTree tree(leaves);
  auto p = tree.path(0);
  p.siblings.pop_back();
  EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[0], p, 8));
}

TEST(Merkle, PathSerializationRoundTrip) {
  std::vector<Digest> leaves;
  Rng rng(7);
  for (int i = 0; i < 12; ++i) leaves.push_back(Digest::from(rng.bytes(32)));
  MerkleTree tree(leaves);
  auto p = tree.path(5);
  Bytes ser = p.serialize();
  MerklePath q;
  ASSERT_TRUE(MerklePath::deserialize(ser, q));
  EXPECT_EQ(q.leaf_index, p.leaf_index);
  EXPECT_EQ(q.siblings, p.siblings);
  EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[5], q, 12));
}

TEST(Merkle, DeserializeRejectsGarbage) {
  MerklePath p;
  EXPECT_FALSE(MerklePath::deserialize(Bytes{1, 2, 3}, p));
}

TEST(Merkle, EmptyThrows) {
  EXPECT_THROW(MerkleTree(std::vector<Digest>{}), std::invalid_argument);
}

TEST(Merkle, RootDependsOnOrder) {
  Rng rng(8);
  Digest a = Digest::from(rng.bytes(32)), b = Digest::from(rng.bytes(32));
  EXPECT_NE(MerkleTree({a, b}).root(), MerkleTree({b, a}).root());
}

// --- WOTS ---

TEST(Wots, SignVerify) {
  auto kp = wots_keygen(Rng(11).bytes(32));
  Bytes m = to_bytes("wots message");
  auto sig = wots_sign(kp, m);
  EXPECT_TRUE(wots_verify(kp.verification_key, m, sig));
}

TEST(Wots, WrongMessageRejected) {
  auto kp = wots_keygen(Rng(12).bytes(32));
  auto sig = wots_sign(kp, to_bytes("a"));
  EXPECT_FALSE(wots_verify(kp.verification_key, to_bytes("b"), sig));
}

TEST(Wots, WrongKeyRejected) {
  auto kp1 = wots_keygen(Rng(13).bytes(32));
  auto kp2 = wots_keygen(Rng(14).bytes(32));
  auto sig = wots_sign(kp1, to_bytes("m"));
  EXPECT_FALSE(wots_verify(kp2.verification_key, to_bytes("m"), sig));
}

TEST(Wots, TamperedChainRejected) {
  auto kp = wots_keygen(Rng(15).bytes(32));
  auto sig = wots_sign(kp, to_bytes("m"));
  sig.chain_values[30].v[5] ^= 0x40;
  EXPECT_FALSE(wots_verify(kp.verification_key, to_bytes("m"), sig));
}

TEST(Wots, SerializationRoundTrip) {
  auto kp = wots_keygen(Rng(16).bytes(32));
  Bytes m = to_bytes("x");
  auto sig = wots_sign(kp, m);
  Bytes ser = sig.serialize();
  EXPECT_EQ(ser.size(), WotsSignature::kSerializedSize);
  WotsSignature back;
  ASSERT_TRUE(WotsSignature::deserialize(ser, back));
  EXPECT_TRUE(wots_verify(kp.verification_key, m, back));
}

class WotsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WotsFuzz, RandomMessagesRoundTrip) {
  Rng rng(GetParam() * 1000 + 17);
  auto kp = wots_keygen(rng.bytes(32));
  Bytes m = rng.bytes(1 + rng.below(200));
  auto sig = wots_sign(kp, m);
  EXPECT_TRUE(wots_verify(kp.verification_key, m, sig));
  Bytes m2 = m;
  m2[rng.below(m2.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
  EXPECT_FALSE(wots_verify(kp.verification_key, m2, sig));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WotsFuzz, ::testing::Range<std::uint64_t>(0, 12));

// --- Multisig (BGT'13 baseline stand-in) ---

TEST(Multisig, AggregateAndVerify) {
  MultisigRegistry reg(10, 42);
  Bytes m = to_bytes("block 7");
  std::vector<std::size_t> signers{1, 3, 4, 8};
  std::vector<MultisigTag> tags;
  for (auto i : signers) tags.push_back(reg.sign(i, m));
  Multisig ms = MultisigRegistry::aggregate(10, signers, tags);
  EXPECT_TRUE(reg.verify(m, ms));
  EXPECT_EQ(ms.signer_count(), 4u);
}

TEST(Multisig, SeededTagsArePinned) {
  // Recorded before signing moved onto precomputed HMAC midstates: the
  // scheme's tags and verdicts are unchanged by that.
  MultisigRegistry reg(300, 2013);
  const Bytes m = to_bytes("bgt13 block");
  EXPECT_EQ(to_hex(BytesView{reg.sign(299, m).v.data(), 48}), "acd266f6f4dcffd7da50958e55dff02a66237fb7f3aaa7aeeac4d7141cadcf3d25e83e5b2dfa4e463f2434dcc6204950");
  std::vector<std::size_t> signers;
  std::vector<MultisigTag> tags;
  for (std::size_t i = 0; i < 300; i += 3) {
    signers.push_back(i);
    tags.push_back(reg.sign(i, m));
  }
  Multisig ms = MultisigRegistry::aggregate(300, signers, tags);
  EXPECT_EQ(to_hex(BytesView{ms.tag.v.data(), 48}), "c1e949822c238cdb5ca33b1c1596e51f2dceb87c986fca3d136296354875df8fa9e45c40d46b7d0e184f1e0b19721da8");
  EXPECT_TRUE(reg.verify(m, ms));
  EXPECT_FALSE(reg.verify(to_bytes("bgt13 block!"), ms));
}

TEST(Multisig, WrongBitmapRejected) {
  MultisigRegistry reg(10, 42);
  Bytes m = to_bytes("m");
  Multisig ms = MultisigRegistry::aggregate(10, {1, 2}, {reg.sign(1, m), reg.sign(2, m)});
  ms.signers[5] = true;  // claim a signer who did not sign
  EXPECT_FALSE(reg.verify(m, ms));
}

TEST(Multisig, MergeDisjoint) {
  MultisigRegistry reg(8, 1);
  Bytes m = to_bytes("m");
  Multisig a = MultisigRegistry::aggregate(8, {0, 1}, {reg.sign(0, m), reg.sign(1, m)});
  Multisig b = MultisigRegistry::aggregate(8, {5}, {reg.sign(5, m)});
  ASSERT_TRUE(MultisigRegistry::merge(a, b));
  EXPECT_EQ(a.signer_count(), 3u);
  EXPECT_TRUE(reg.verify(m, a));
}

TEST(Multisig, MergeOverlapRejected) {
  MultisigRegistry reg(8, 1);
  Bytes m = to_bytes("m");
  Multisig a = MultisigRegistry::aggregate(8, {2}, {reg.sign(2, m)});
  Multisig b = MultisigRegistry::aggregate(8, {2}, {reg.sign(2, m)});
  EXPECT_FALSE(MultisigRegistry::merge(a, b));
}

TEST(Multisig, DuplicateSignerThrows) {
  MultisigRegistry reg(4, 1);
  Bytes m = to_bytes("m");
  EXPECT_THROW(
      MultisigRegistry::aggregate(4, {1, 1}, {reg.sign(1, m), reg.sign(1, m)}),
      std::invalid_argument);
}

TEST(Multisig, WireSizeGrowsLinearlyInN) {
  // The paper's §1.2 point: the signer set costs Θ(n) bits.
  Multisig small, big;
  small.signers.assign(64, false);
  big.signers.assign(4096, false);
  EXPECT_GT(big.wire_size(), small.wire_size() + 4096 / 8 - 64 / 8 - 1);
}

TEST(Multisig, SerializationRoundTrip) {
  MultisigRegistry reg(20, 9);
  Bytes m = to_bytes("ser");
  Multisig ms = MultisigRegistry::aggregate(20, {0, 7, 19},
                                            {reg.sign(0, m), reg.sign(7, m), reg.sign(19, m)});
  Bytes ser = ms.serialize();
  EXPECT_EQ(ser.size(), ms.wire_size());
  Multisig back;
  ASSERT_TRUE(Multisig::deserialize(ser, back));
  EXPECT_EQ(back.signers, ms.signers);
  EXPECT_TRUE(reg.verify(m, back));
}

// --- Commitments ---

TEST(Commit, OpenCorrectly) {
  Bytes r = Rng(1).bytes(32);
  Bytes m = to_bytes("coin share");
  auto c = commit(m, r);
  EXPECT_TRUE(commit_open(c, m, r));
}

TEST(Commit, WrongMessageOrRandomnessRejected) {
  Bytes r = Rng(2).bytes(32);
  Bytes r2 = Rng(3).bytes(32);
  Bytes m = to_bytes("m");
  auto c = commit(m, r);
  EXPECT_FALSE(commit_open(c, to_bytes("m'"), r));
  EXPECT_FALSE(commit_open(c, m, r2));
}

TEST(Commit, HidingShape) {
  // Commitments to the same message under different randomness differ.
  Bytes m = to_bytes("m");
  EXPECT_NE(commit(m, Rng(4).bytes(32)).value, commit(m, Rng(5).bytes(32)).value);
}

// --- SimSig ---

TEST(SimSig, SignVerify) {
  SimSigRegistry reg(5, 77);
  Bytes m = to_bytes("ds round 2");
  auto s = reg.sign(3, m);
  EXPECT_TRUE(reg.verify(3, m, s));
  EXPECT_FALSE(reg.verify(2, m, s));
  EXPECT_FALSE(reg.verify(3, to_bytes("other"), s));
}

TEST(SimSig, OutOfRange) {
  SimSigRegistry reg(5, 77);
  EXPECT_THROW(reg.sign(5, to_bytes("m")), std::out_of_range);
  EXPECT_FALSE(reg.verify(9, to_bytes("m"), SimSig{}));
}

}  // namespace
}  // namespace srds
