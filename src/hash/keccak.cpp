#include "hash/keccak.hpp"

#include <bit>
#include <cstring>

namespace rbc::hash {

using detail::kKeccakRoundConstants;

namespace {
thread_local u64 tls_permutations = 0;
}  // namespace

u64 keccak_permutations() noexcept { return tls_permutations; }

// Unrolled on a local copy of the state: every lane index is a constant, so
// the compiler keeps the 25 lanes in registers. rho and pi are folded into
// one step (b[pi(x, y)] = rotl(a[x, y] ^ d[x], rho[x, y]), the table in
// keccak.hpp spelled out); kKeccakRho stays the reference for the
// multi-lane kernels.
void keccak_f1600(u64 state[25]) noexcept {
  ++tls_permutations;
  u64 a[25];
  std::memcpy(a, state, sizeof(a));
  for (int round = 0; round < 24; ++round) {
    // theta
    const u64 c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20];
    const u64 c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21];
    const u64 c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22];
    const u64 c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23];
    const u64 c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24];
    const u64 d0 = c4 ^ std::rotl(c1, 1);
    const u64 d1 = c0 ^ std::rotl(c2, 1);
    const u64 d2 = c1 ^ std::rotl(c3, 1);
    const u64 d3 = c2 ^ std::rotl(c4, 1);
    const u64 d4 = c3 ^ std::rotl(c0, 1);

    // theta applied, then rho + pi
    const u64 b0 = a[0] ^ d0;
    const u64 b1 = std::rotl(a[6] ^ d1, 44);
    const u64 b2 = std::rotl(a[12] ^ d2, 43);
    const u64 b3 = std::rotl(a[18] ^ d3, 21);
    const u64 b4 = std::rotl(a[24] ^ d4, 14);
    const u64 b5 = std::rotl(a[3] ^ d3, 28);
    const u64 b6 = std::rotl(a[9] ^ d4, 20);
    const u64 b7 = std::rotl(a[10] ^ d0, 3);
    const u64 b8 = std::rotl(a[16] ^ d1, 45);
    const u64 b9 = std::rotl(a[22] ^ d2, 61);
    const u64 b10 = std::rotl(a[1] ^ d1, 1);
    const u64 b11 = std::rotl(a[7] ^ d2, 6);
    const u64 b12 = std::rotl(a[13] ^ d3, 25);
    const u64 b13 = std::rotl(a[19] ^ d4, 8);
    const u64 b14 = std::rotl(a[20] ^ d0, 18);
    const u64 b15 = std::rotl(a[4] ^ d4, 27);
    const u64 b16 = std::rotl(a[5] ^ d0, 36);
    const u64 b17 = std::rotl(a[11] ^ d1, 10);
    const u64 b18 = std::rotl(a[17] ^ d2, 15);
    const u64 b19 = std::rotl(a[23] ^ d3, 56);
    const u64 b20 = std::rotl(a[2] ^ d2, 62);
    const u64 b21 = std::rotl(a[8] ^ d3, 55);
    const u64 b22 = std::rotl(a[14] ^ d4, 39);
    const u64 b23 = std::rotl(a[15] ^ d0, 41);
    const u64 b24 = std::rotl(a[21] ^ d1, 2);

    // chi
    a[0] = b0 ^ (~b1 & b2);
    a[1] = b1 ^ (~b2 & b3);
    a[2] = b2 ^ (~b3 & b4);
    a[3] = b3 ^ (~b4 & b0);
    a[4] = b4 ^ (~b0 & b1);
    a[5] = b5 ^ (~b6 & b7);
    a[6] = b6 ^ (~b7 & b8);
    a[7] = b7 ^ (~b8 & b9);
    a[8] = b8 ^ (~b9 & b5);
    a[9] = b9 ^ (~b5 & b6);
    a[10] = b10 ^ (~b11 & b12);
    a[11] = b11 ^ (~b12 & b13);
    a[12] = b12 ^ (~b13 & b14);
    a[13] = b13 ^ (~b14 & b10);
    a[14] = b14 ^ (~b10 & b11);
    a[15] = b15 ^ (~b16 & b17);
    a[16] = b16 ^ (~b17 & b18);
    a[17] = b17 ^ (~b18 & b19);
    a[18] = b18 ^ (~b19 & b15);
    a[19] = b19 ^ (~b15 & b16);
    a[20] = b20 ^ (~b21 & b22);
    a[21] = b21 ^ (~b22 & b23);
    a[22] = b22 ^ (~b23 & b24);
    a[23] = b23 ^ (~b24 & b20);
    a[24] = b24 ^ (~b20 & b21);

    // iota
    a[0] ^= kKeccakRoundConstants[round];
  }
  std::memcpy(state, a, sizeof(a));
}

KeccakSponge::KeccakSponge(std::size_t rate_bytes, u8 suffix) noexcept
    : rate_(rate_bytes), suffix_(suffix) {
  reset();
}

void KeccakSponge::reset() noexcept {
  std::memset(state_, 0, sizeof(state_));
  absorb_pos_ = 0;
  squeeze_pos_ = 0;
  squeezing_ = false;
}

void KeccakSponge::absorb(ByteSpan data) noexcept {
  // Bulk XOR-absorb: whole 64-bit lanes where the chunk allows (Keccak lanes
  // are little-endian, so a raw word XOR is the correct injection), byte ops
  // only at the ragged ends.
  auto* state_bytes = reinterpret_cast<u8*>(state_);
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t take =
        std::min(data.size() - off, rate_ - absorb_pos_);
    const u8* src = data.data() + off;
    u8* dst = state_bytes + absorb_pos_;
    std::size_t i = 0;
    for (; i + 8 <= take; i += 8) {
      u64 lane, word;
      std::memcpy(&lane, dst + i, 8);
      std::memcpy(&word, src + i, 8);
      lane ^= word;
      std::memcpy(dst + i, &lane, 8);
    }
    for (; i < take; ++i) dst[i] ^= src[i];
    absorb_pos_ += take;
    off += take;
    if (absorb_pos_ == rate_) {
      keccak_f1600(state_);
      absorb_pos_ = 0;
    }
  }
}

void KeccakSponge::squeeze(MutByteSpan out) noexcept {
  auto* state_bytes = reinterpret_cast<u8*>(state_);
  if (!squeezing_) {
    // pad10*1 with the domain suffix merged into the first pad byte.
    state_bytes[absorb_pos_] ^= suffix_;
    state_bytes[rate_ - 1] ^= 0x80;
    keccak_f1600(state_);
    squeezing_ = true;
    squeeze_pos_ = 0;
  }
  std::size_t off = 0;
  while (off < out.size()) {
    if (squeeze_pos_ == rate_) {
      keccak_f1600(state_);
      squeeze_pos_ = 0;
    }
    const std::size_t take =
        std::min(out.size() - off, rate_ - squeeze_pos_);
    std::memcpy(out.data() + off, state_bytes + squeeze_pos_, take);
    squeeze_pos_ += take;
    off += take;
  }
}

Digest224 sha3_224(ByteSpan data) noexcept {
  KeccakSponge sponge(144, 0x06);
  sponge.absorb(data);
  Digest224 d;
  sponge.squeeze(MutByteSpan{d.bytes.data(), d.bytes.size()});
  return d;
}

Digest384 sha3_384(ByteSpan data) noexcept {
  KeccakSponge sponge(104, 0x06);
  sponge.absorb(data);
  Digest384 d;
  sponge.squeeze(MutByteSpan{d.bytes.data(), d.bytes.size()});
  return d;
}

Digest256 sha3_256(ByteSpan data) noexcept {
  KeccakSponge sponge(136, 0x06);
  sponge.absorb(data);
  Digest256 d;
  sponge.squeeze(MutByteSpan{d.bytes.data(), d.bytes.size()});
  return d;
}

Digest512 sha3_512(ByteSpan data) noexcept {
  KeccakSponge sponge(72, 0x06);
  sponge.absorb(data);
  Digest512 d;
  sponge.squeeze(MutByteSpan{d.bytes.data(), d.bytes.size()});
  return d;
}

Digest256 sha3_256_seed(const Seed256& seed) noexcept {
  // §3.2.2 fixed-input specialization. SHA3-256 rate is 136 bytes; a 32-byte
  // message always occupies lanes 0..3 of the single absorbed block, the
  // 0x06 domain/pad byte lands at byte 32 (lane 4, byte 0) and the final
  // 0x80 pad bit at byte 135 (lane 16, byte 7). The remaining capacity lanes
  // stay zero, so the whole absorb phase is four stores and two constants.
  u64 state[25];
  state[0] = seed.word(0);
  state[1] = seed.word(1);
  state[2] = seed.word(2);
  state[3] = seed.word(3);
  state[4] = 0x06ULL;
  for (int i = 5; i < 16; ++i) state[i] = 0;
  state[16] = 0x8000000000000000ULL;
  for (int i = 17; i < 25; ++i) state[i] = 0;

  keccak_f1600(state);

  Digest256 d;
  std::memcpy(d.bytes.data(), state, 32);
  return d;
}

}  // namespace rbc::hash
