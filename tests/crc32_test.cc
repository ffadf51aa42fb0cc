#include "common/crc32.h"

#include <array>
#include <random>
#include <string>

#include <gtest/gtest.h>

namespace udm {
namespace {

TEST(Crc32Test, KnownVectors) {
  // The canonical CRC-32/IEEE check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc"), 0x352441C2u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "udm-microclusters 2\ndims 3 clusters 2\n";
  const uint32_t one_shot = Crc32(data);
  uint32_t running = 0;
  for (size_t i = 0; i < data.size(); i += 7) {
    running = Crc32(data.substr(i, 7), running);
  }
  EXPECT_EQ(running, one_shot);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data = "a perfectly ordinary checkpoint payload";
  const uint32_t before = Crc32(data);
  data[10] ^= 0x01;
  EXPECT_NE(Crc32(data), before);
}

TEST(Crc32Test, HexRoundTrip) {
  for (uint32_t crc : {0x00000000u, 0xCBF43926u, 0xFFFFFFFFu, 0x0000ABCDu}) {
    const std::string hex = Crc32Hex(crc);
    EXPECT_EQ(hex.size(), 8u);
    uint32_t parsed = 0;
    ASSERT_TRUE(ParseCrc32Hex(hex, &parsed)) << hex;
    EXPECT_EQ(parsed, crc);
  }
}

TEST(Crc32Test, ParseRejectsMalformedHex) {
  uint32_t crc = 0;
  EXPECT_FALSE(ParseCrc32Hex("", &crc));
  EXPECT_FALSE(ParseCrc32Hex("1234567", &crc));    // too short
  EXPECT_FALSE(ParseCrc32Hex("123456789", &crc));  // too long
  EXPECT_FALSE(ParseCrc32Hex("1234567g", &crc));   // non-hex
  EXPECT_FALSE(ParseCrc32Hex("cbf43926", nullptr));
  EXPECT_TRUE(ParseCrc32Hex("CBF43926", &crc));    // upper case accepted
  EXPECT_EQ(crc, 0xCBF43926u);
}

/// The bytewise table-driven CRC the slicing-by-8 loop replaced.
uint32_t BytewiseCrc32(std::string_view data, uint32_t seed = 0) {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    table[i] = crc;
  }
  uint32_t crc = ~seed;
  for (unsigned char byte : data) {
    crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFFu];
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  std::mt19937_64 rng(3);
  std::string buffer(4096 + 16, '\0');
  for (char& c : buffer) c = static_cast<char>(rng());
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      const std::string_view data(buffer.data() + offset, length);
      ASSERT_EQ(Crc32(data), BytewiseCrc32(data))
          << "offset " << offset << " length " << length;
    }
  }
  for (int i = 0; i < 500; ++i) {
    const size_t offset = rng() % 16;
    const size_t length = rng() % 4097;
    const uint32_t seed = static_cast<uint32_t>(rng());
    const std::string_view data(buffer.data() + offset, length);
    ASSERT_EQ(Crc32(data, seed), BytewiseCrc32(data, seed))
        << "offset " << offset << " length " << length;
  }
}

}  // namespace
}  // namespace udm
