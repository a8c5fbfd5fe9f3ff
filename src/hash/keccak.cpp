#include "hash/keccak.hpp"

#include <bit>
#include <cstring>

namespace rbc::hash {

using detail::kKeccakRho;
using detail::kKeccakRoundConstants;

namespace {
thread_local u64 tls_permutations = 0;
}  // namespace

u64 keccak_permutations() noexcept { return tls_permutations; }

void keccak_f1600(u64 a[25]) noexcept {
  ++tls_permutations;
  for (int round = 0; round < 24; ++round) {
    // theta
    u64 c[5], d[5];
    for (int x = 0; x < 5; ++x)
      c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
    for (int x = 0; x < 5; ++x)
      d[x] = c[(x + 4) % 5] ^ std::rotl(c[(x + 1) % 5], 1);
    for (int i = 0; i < 25; ++i) a[i] ^= d[i % 5];

    // rho + pi
    u64 b[25];
    for (int x = 0; x < 5; ++x) {
      for (int y = 0; y < 5; ++y) {
        const int src = x + 5 * y;
        const int dst = y + 5 * ((2 * x + 3 * y) % 5);
        b[dst] = std::rotl(a[src], kKeccakRho[src]);
      }
    }

    // chi
    for (int y = 0; y < 5; ++y) {
      for (int x = 0; x < 5; ++x) {
        a[x + 5 * y] =
            b[x + 5 * y] ^ (~b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
      }
    }

    // iota
    a[0] ^= kKeccakRoundConstants[round];
  }
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
  for (auto& byte : out) {
    if (squeeze_pos_ == rate_) {
      keccak_f1600(state_);
      squeeze_pos_ = 0;
    }
    byte = state_bytes[squeeze_pos_++];
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
