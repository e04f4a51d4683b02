#include "pbs/common/bitio.h"

#include <cassert>
#include <cstring>

namespace pbs {

void BitWriter::WriteBits(uint64_t value, int bits) {
  if (bits <= 0) return;
  if (bits < 64) value &= (uint64_t{1} << bits) - 1;
  int written = 0;
  while (written < bits) {
    size_t byte_index = bit_size_ / 8;
    int bit_offset = static_cast<int>(bit_size_ % 8);
    if (byte_index == bytes_.size()) bytes_.push_back(0);
    int room = 8 - bit_offset;
    int take = bits - written < room ? bits - written : room;
    uint8_t chunk = static_cast<uint8_t>((value >> written) & ((1u << take) - 1));
    bytes_[byte_index] |= static_cast<uint8_t>(chunk << bit_offset);
    bit_size_ += take;
    written += take;
  }
}

void BitWriter::WriteVarint(uint64_t value) {
  while (true) {
    uint64_t group = value & 0x7F;
    value >>= 7;
    WriteBits(group, 7);
    WriteBit(value != 0);
    if (value == 0) break;
  }
}

void BitWriter::AlignToByte() {
  const int slack = static_cast<int>(bit_size_ % 8);
  if (slack != 0) WriteBits(0, 8 - slack);
}

void BitWriter::WriteBytes(const uint8_t* data, size_t size) {
  assert(bit_size_ % 8 == 0 && "WriteBytes requires byte alignment");
  bytes_.insert(bytes_.end(), data, data + size);
  bit_size_ += size * 8;
}

std::vector<uint8_t> BitWriter::TakeBytes() {
  std::vector<uint8_t> out = std::move(bytes_);
  bytes_.clear();
  bit_size_ = 0;
  return out;
}

uint64_t BitReader::ReadBits(int bits) {
  if (bits <= 0) return 0;
  if (pos_ + static_cast<size_t>(bits) > size_bits_) {
    overflowed_ = true;
    pos_ = size_bits_;
    return 0;
  }
  uint64_t value = 0;
  int read = 0;
  while (read < bits) {
    size_t byte_index = pos_ / 8;
    int bit_offset = static_cast<int>(pos_ % 8);
    int room = 8 - bit_offset;
    int take = bits - read < room ? bits - read : room;
    uint64_t chunk = (data_[byte_index] >> bit_offset) & ((1u << take) - 1);
    value |= chunk << read;
    pos_ += take;
    read += take;
  }
  return value;
}

void BitReader::AlignToByte() {
  const int slack = static_cast<int>(pos_ % 8);
  if (slack != 0) ReadBits(8 - slack);
}

bool BitReader::ReadBytes(uint8_t* out, size_t size) {
  assert(pos_ % 8 == 0 && "ReadBytes requires byte alignment");
  if (pos_ + size * 8 > size_bits_) {
    overflowed_ = true;
    pos_ = size_bits_;
    return false;
  }
  // memcpy's pointers must be non-null even for size 0, and an empty
  // body's buffer may be.
  if (size != 0) std::memcpy(out, data_ + pos_ / 8, size);
  pos_ += size * 8;
  return true;
}

uint64_t BitReader::ReadVarint() {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    uint64_t group = ReadBits(7);
    value |= group << shift;
    shift += 7;
    if (!ReadBit() || overflowed_ || shift >= 64) break;
  }
  return value;
}

}  // namespace pbs
