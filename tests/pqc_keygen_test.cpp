#include <gtest/gtest.h>

#include <string>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/pqc_keygen.hpp"
#include "crypto/salt.hpp"
#include "hash/keccak.hpp"

namespace rbc::crypto {
namespace {

template <typename Keygen>
class KeygenTest : public ::testing::Test {
 protected:
  Keygen keygen;
};

using KeygenTypes =
    ::testing::Types<Aes128Keygen, SaberLikeKeygen, DilithiumLikeKeygen,
                     KyberLikeKeygen, WotsKeygen>;
TYPED_TEST_SUITE(KeygenTest, KeygenTypes);

TYPED_TEST(KeygenTest, Deterministic) {
  Xoshiro256 rng(1);
  const Seed256 seed = Seed256::random(rng);
  EXPECT_EQ(this->keygen(seed), this->keygen(seed));
}

TYPED_TEST(KeygenTest, SeedSensitivity) {
  Xoshiro256 rng(2);
  const Seed256 seed = Seed256::random(rng);
  // A single flipped bit must change the public key (the property the RBC
  // search relies on to discriminate candidates).
  for (int bit : {0, 100, 255}) {
    EXPECT_NE(this->keygen(seed), this->keygen(with_flipped_bit(seed, bit)));
  }
}

TYPED_TEST(KeygenTest, NonEmptyAndStableSize) {
  Xoshiro256 rng(3);
  const auto pk1 = this->keygen(Seed256::random(rng));
  const auto pk2 = this->keygen(Seed256::random(rng));
  EXPECT_FALSE(pk1.empty());
  EXPECT_EQ(pk1.size(), pk2.size());
}

TEST(KeygenSizes, MatchSchemeShapes) {
  Xoshiro256 rng(4);
  const Seed256 seed = Seed256::random(rng);
  // AES: two ciphertext blocks.
  EXPECT_EQ(Aes128Keygen{}(seed).size(), 32u);
  // SABER-like: 32-byte seed_A + 2 polys * 256 coeffs * 2 bytes.
  EXPECT_EQ(SaberLikeKeygen{}(seed).size(), 32u + 2u * 256u * 2u);
  // Dilithium-like: 32-byte seed_A + 6 polys * 256 coeffs * 3 bytes.
  EXPECT_EQ(DilithiumLikeKeygen{}(seed).size(), 32u + 6u * 256u * 3u);
  // Kyber-like: 32-byte seed_A + 3 polys * 256 coeffs * 2 bytes.
  EXPECT_EQ(KyberLikeKeygen{}(seed).size(), 32u + 3u * 256u * 2u);
  // WOTS+: a single compressed 32-byte root.
  EXPECT_EQ(WotsKeygen{}(seed).size(), 32u);
}

TEST(KeygenDispatch, MatchesPolicyObjects) {
  Xoshiro256 rng(5);
  const Seed256 seed = Seed256::random(rng);
  EXPECT_EQ(generate_public_key(seed, KeygenAlgo::kAes128),
            Aes128Keygen{}(seed));
  EXPECT_EQ(generate_public_key(seed, KeygenAlgo::kSaberLike),
            SaberLikeKeygen{}(seed));
  EXPECT_EQ(generate_public_key(seed, KeygenAlgo::kDilithiumLike),
            DilithiumLikeKeygen{}(seed));
  EXPECT_EQ(generate_public_key(seed, KeygenAlgo::kKyberLike),
            KyberLikeKeygen{}(seed));
  EXPECT_EQ(generate_public_key(seed, KeygenAlgo::kWots), WotsKeygen{}(seed));
}

// Known-answer tests: any rework of the ring, the sampler or the sponge must
// leave every public key byte-identical. The digest is SHA3-256 over the
// concatenated public keys of 64 seeds drawn from Xoshiro256(7); the pinned
// prefix is the leading bytes of the first seed's key (past the 32-byte
// seed_A of the lattice schemes, so it covers polynomial output too).
struct KeygenKat {
  KeygenAlgo algo;
  const char* digest_prefix;     // first 8 digest bytes
  const char* first_key_prefix;  // first 48 key bytes (all of a 32-byte key)
};

constexpr KeygenKat kKats[] = {
    {KeygenAlgo::kAes128, "10377e8565f2fc21",
     "2c798b1e66f0c043f868b0e7b8ba6f4355c36f947f773f519fcb90cd13969fb4"},
    {KeygenAlgo::kSaberLike, "3758e76599cd446e",
     "cc34fdf67c8d263f3a9a8b57ace6cd80cbc09f9d926a829d4e140897b6bf4f47"
     "16012a00c7029a03ff00fd0210028e03"},
    {KeygenAlgo::kDilithiumLike, "49d6456ed949b457",
     "61f407ffbab6fb1cafa320887cc5fa1981fed47c811630d80fcb05a02c6acc00"
     "cdd650539f1240bb0d4c3b7bc0731d78"},
    {KeygenAlgo::kKyberLike, "bcd72f6557c097aa",
     "043711235b53832454793c2854bc2481db9e100aebe4b9a64a44b02e9bacc9b8"
     "2c05040436074607ae04e6046f048705"},
    {KeygenAlgo::kWots, "6f49478b0370a7a3",
     "d0153d412dfc29ed1138a7ccd873ff5c3cab7c853ee3b890141654c872f0f5a2"},
};

TEST(KeygenKat, SixtyFourSeedDigestsAndFirstKeys) {
  for (const auto& kat : kKats) {
    Xoshiro256 rng(7);
    Bytes all;
    Bytes first;
    for (int i = 0; i < 64; ++i) {
      const Bytes pk = generate_public_key(Seed256::random(rng), kat.algo);
      if (i == 0) first = pk;
      all.insert(all.end(), pk.begin(), pk.end());
    }
    const auto digest = hash::sha3_256(all);
    EXPECT_EQ(to_hex(ByteSpan{digest.bytes.data(), 8}), kat.digest_prefix)
        << to_string(kat.algo);
    const std::size_t pinned = std::min<std::size_t>(first.size(), 48);
    EXPECT_EQ(to_hex(ByteSpan{first.data(), pinned}), kat.first_key_prefix)
        << to_string(kat.algo);
  }
}

TEST(KeygenAlgoNames, AreStable) {
  EXPECT_EQ(to_string(KeygenAlgo::kAes128), "AES-128");
  EXPECT_EQ(to_string(KeygenAlgo::kSaberLike), "LightSABER-like");
  EXPECT_EQ(to_string(KeygenAlgo::kDilithiumLike), "Dilithium3-like");
  EXPECT_EQ(to_string(KeygenAlgo::kKyberLike), "Kyber768-like");
  EXPECT_EQ(to_string(KeygenAlgo::kWots), "WOTS+-like (SPHINCS+)");
}

TEST(WotsKeygenCost, IsAboutAThousandHashes) {
  // The property that makes WOTS the starkest legacy-vs-salted contrast:
  // one keygen costs kChains * kChainLen SHA3 calls (~1072).
  EXPECT_EQ(WotsKeygen::kChains * WotsKeygen::kChainLen, 1072);
}

TEST(SaltPolicy, RoundTrip) {
  Xoshiro256 rng(6);
  const Seed256 seed = Seed256::random(rng);
  const SaltPolicy salt(97, Seed256::random(rng));
  EXPECT_EQ(salt.invert(salt.apply(seed)), seed);
}

TEST(SaltPolicy, ChangesSeed) {
  Xoshiro256 rng(7);
  const Seed256 seed = Seed256::random(rng);
  const SaltPolicy salt;  // default rotation
  EXPECT_NE(salt.apply(seed), seed);
}

TEST(SaltPolicy, InjectiveOnSamples) {
  Xoshiro256 rng(8);
  const SaltPolicy salt(33);
  const Seed256 a = Seed256::random(rng);
  const Seed256 b = Seed256::random(rng);
  EXPECT_NE(salt.apply(a), salt.apply(b));
}

TEST(SaltPolicy, BreaksDigestKeyCorrespondence) {
  // The public key generated from the salted seed must differ from the one
  // generated from the raw seed — otherwise salting adds nothing.
  Xoshiro256 rng(9);
  const Seed256 seed = Seed256::random(rng);
  const SaltPolicy salt;
  Aes128Keygen keygen;
  EXPECT_NE(keygen(salt.apply(seed)), keygen(seed));
}

TEST(SaltPolicy, NormalizesRotationCount) {
  Xoshiro256 rng(10);
  const Seed256 seed = Seed256::random(rng);
  EXPECT_EQ(SaltPolicy(97 + 256).apply(seed), SaltPolicy(97).apply(seed));
  EXPECT_EQ(SaltPolicy(-159).apply(seed), SaltPolicy(97).apply(seed));
}

TEST(SaltPolicy, EqualityComparesConfiguration) {
  EXPECT_EQ(SaltPolicy(97), SaltPolicy(97));
  EXPECT_FALSE(SaltPolicy(97) == SaltPolicy(98));
}

}  // namespace
}  // namespace rbc::crypto
