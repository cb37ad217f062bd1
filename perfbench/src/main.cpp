// perfbench_tool — the benchmark's in-process half; perfbench/run.py
// calls it.
//
//   perfbench_tool info
//       Build fingerprint: build type and the active SIMD and CRC tiers.
//   perfbench_tool clock --iterations N
//       Host speed probe: seconds for N steps of a dependent xorshift
//       chain. It calls no repository code.
//   perfbench_tool reference --in P --algorithm A --entries E
//                  --threshold T --interval S [--shards M] --style
//                  measure|collect [--rounds R] --out F
//       Expected export of a workload, by the library's batch path.
//   perfbench_tool split --in F
//       One JSON line per report in an export file.
//   perfbench_tool replay --reports D0,D1,... --rounds R
//       collector_replay's load generator (reads ports on stdin).
//   perfbench_tool layers --in P --algorithm A --entries E --threshold T
//                  --interval S --shards N --shipped plain|sharded
//                  --seconds S --trace-out F --batch-export F
//                  --merged-export F
//       The traced layer run.
//
// Exit codes: 0 success, 1 runtime failure, 2 bad arguments.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>

#include "commands.hpp"
#include "common/cpu_features.hpp"
#include "common/crc32.hpp"

namespace {

// Per thread, so a count taken around a call on one thread is not
// disturbed by pool or collector threads allocating meanwhile.
thread_local std::uint64_t t_allocations = 0;

void* counted_allocate(std::size_t size) {
  ++t_allocations;
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_allocate(size); }
void* operator new[](std::size_t size) { return counted_allocate(size); }
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept {
  std::free(block);
}

namespace perfbench {

std::uint64_t allocations() { return t_allocations; }

}  // namespace perfbench

namespace {

int cmd_clock(const perfbench::Flags& flags) {
  const std::uint64_t iterations = flags.number("iterations");
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t state = 88172645463325252ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  // Printing the state keeps the chain from being optimised away.
  std::printf("{\"seconds\": %.9f, \"state\": %llu}\n", elapsed.count(),
              static_cast<unsigned long long>(state));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_tool <info|clock|reference|split|"
                 "replay|layers> [--flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Flags flags(argc, argv, 2);
    if (command == "info") {
      std::printf(
          "{\"build_type\": \"%s\", \"simd\": \"%s\", \"crc\": \"%s\"}\n",
          PERFBENCH_BUILD_TYPE,
          nd::common::simd_name(nd::common::active_simd()),
          nd::common::crc32_impl_name());
      return 0;
    }
    if (command == "clock") return cmd_clock(flags);
    if (command == "reference") return cmd_reference(flags);
    if (command == "split") return cmd_split(flags);
    if (command == "replay") return cmd_replay(flags);
    if (command == "layers") return cmd_layers(flags);
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    return 2;
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "perfbench_tool %s: %s\n", command.c_str(),
                 error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_tool %s: %s\n", command.c_str(),
                 error.what());
    return 1;
  }
}
