// SWAR primitives for the tag-partitioned flow memory.
//
// The flow memory keeps a dense array of 1-byte occupancy tags parallel
// to the fat payload slots: tag 0 means the slot is empty, anything else
// is 0x80 | the top 7 bits of the slot's placement hash. A probe chain
// is then resolved word-at-a-time over the tag array — one L1-resident
// 8-byte load covers 8 slots — and the 64-byte payload lines are touched
// only for slots whose tag already matches. These helpers are the
// branch-free byte-lane tests that make that scan one subtract, one
// and-not and one mask per group (the classic "haszero" SWAR idiom).
//
// Borrow caveat, relied on by the flow memory and pinned down by the
// tag-probe unit tests: the subtraction runs across the whole word, so a
// lane ABOVE a true zero lane can be falsely marked. Lanes below the
// lowest marked lane are always exact, which is all a linear probe needs
// — the chain is a contiguous occupied run, so only matches BELOW the
// first empty lane are ever accepted, and the first marked empty lane is
// always a true empty.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

namespace nd::flowmem {

/// Slots examined per tag-word load; also the tag array's mirror pad so
/// a group starting at the last slot reads wrapped tags contiguously.
inline constexpr std::size_t kTagGroupWidth = 8;

/// One unaligned tag-group load. The mirror pad guarantees `slot` up to
/// slots-1 reads 8 valid bytes; memcpy keeps it strict-aliasing clean
/// and compiles to a single mov.
[[nodiscard]] inline std::uint64_t load_group(const std::uint8_t* tags,
                                              std::size_t slot) {
  std::uint64_t word;
  std::memcpy(&word, tags + slot, sizeof(word));
  return word;
}

/// Occupancy tag for a placement hash: high bit set so it can never be
/// 0 (empty), low 7 bits from the TOP of the hash — the slot index uses
/// the bottom bits, so tag collisions stay independent of slot
/// collisions.
[[nodiscard]] inline constexpr std::uint8_t tag_of(std::uint64_t hash) {
  return static_cast<std::uint8_t>(0x80U | (hash >> 57));
}

/// High bit of every byte lane; the occupied lanes of a tag group are
/// exactly `group & kLaneHighBits`, since every occupied tag has bit 7
/// set and an empty one is 0 (no borrow caveat: nothing is subtracted).
inline constexpr std::uint64_t kLaneHighBits = 0x8080808080808080ULL;

[[nodiscard]] inline constexpr std::uint64_t broadcast_byte(
    std::uint8_t byte) {
  return 0x0101010101010101ULL * byte;
}

/// High bit of every byte lane whose value is 0 (subject to the borrow
/// caveat above: the lowest marked lane is exact).
[[nodiscard]] inline constexpr std::uint64_t zero_lanes(std::uint64_t word) {
  return (word - 0x0101010101010101ULL) & ~word & kLaneHighBits;
}

/// High bit of every byte lane equal to `byte` (same caveat; callers
/// confirm a candidate lane with a full key comparison, so a false
/// positive costs one compare and a false negative cannot occur).
[[nodiscard]] inline constexpr std::uint64_t match_lanes(std::uint64_t word,
                                                        std::uint8_t byte) {
  return zero_lanes(word ^ broadcast_byte(byte));
}

/// Byte index (0..7) of the lowest marked lane of a nonzero lane mask.
[[nodiscard]] inline constexpr std::size_t first_lane(std::uint64_t lanes) {
  return static_cast<std::size_t>(std::countr_zero(lanes)) / 8;
}

/// Keep only the lanes strictly below the lowest lane of `bound`
/// (everything when `bound` is 0). Used to discard tag matches past the
/// first empty slot — a linear-probe chain never crosses an empty.
[[nodiscard]] inline constexpr std::uint64_t lanes_below_first(
    std::uint64_t lanes, std::uint64_t bound) {
  return bound == 0 ? lanes : lanes & ((bound & (~bound + 1ULL)) - 1ULL);
}

}  // namespace nd::flowmem
