// AVX2 engine for the lockstep batch chase. This translation unit is the
// ONLY one compiled with -mavx2 (see CMakeLists.txt), so the rest of the
// library stays runnable on any x86-64; chaseBatch() dispatches here at
// runtime via cpuid (batch_chase.cpp). When the compiler cannot target
// AVX2 (or on non-x86) the stubs at the bottom keep the symbol defined
// and the dispatcher reports SIMD as unavailable.
#include "route/batch_chase.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace meshrt {

namespace detail {
bool chaseBatchAvx2Compiled() { return true; }
}  // namespace detail

namespace {

// Lane results pack (status << 24) | hops into one epi32 so retirement
// is a single blend and each in-flight chunk costs three registers
// (cur, active, result) — hop counts stay < 2^24 for any realistic
// mesh, statuses are tiny.
constexpr int kStatusShift = 24;

/// W 8-lane chunks chased in one step loop: the per-step gather is a
/// serial dependent chain (its load feeds the next step's address), so
/// a single chunk runs at gather latency — W independent chains keep W
/// gathers in flight and amortize that latency across 8*W queries. A
/// chunk whose lanes all retired early just runs fully-masked no-ops
/// until the slowest sibling finishes; the shared step counter is what
/// lets the hop bound stay the only loop bound.
///
/// A lane retires at its first minimal node; the destination carries
/// the bit too, so there is no separate at-destination compare. A
/// retired lane's `cur` stops where it retired, so the writeback adds
/// that node's Manhattan distance to the step count and turns a total
/// above maxSteps into Diverged, as the full walk would.
template <int W>
void chaseChunks(const PackedRouteColumn& column, __m256i deltaTab,
                 std::size_t maxSteps, const NodeId* sources,
                 ServeStatus* status, std::int32_t* hops) {
  const auto* nib = reinterpret_cast<const int*>(column.nibbleBytes());
  const __m256i noRouteNib = _mm256_set1_epi32(0x7);  // == kNoRouteNibble
  const __m256i nibMask = _mm256_set1_epi32(0xF);
  const __m256i lowBit = _mm256_set1_epi32(1);
  const __m256i noRouteRes = _mm256_set1_epi32(
      static_cast<int>(ServeStatus::NoRoute) << kStatusShift);

  __m256i cur[W], active[W], res[W];
  for (int k = 0; k < W; ++k) {
    cur[k] = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(sources + 8 * k));
    active[k] = _mm256_set1_epi32(-1);
    res[k] = _mm256_set1_epi32(static_cast<int>(ServeStatus::Diverged)
                               << kStatusShift);
  }
  // Same retire order as the scalar engine: minimal (the destination
  // included), then no-route, then the masked advance; the step cap is
  // the single loop bound (packed_column.h).
  for (std::size_t step = 0;; ++step) {
    const __m256i deliveredRes = _mm256_set1_epi32(
        (static_cast<int>(ServeStatus::Delivered) << kStatusShift) |
        static_cast<int>(step));
    __m256i anyActive = _mm256_setzero_si256();

    // One masked 32-bit gather resolves 8 lanes' packed bytes (scale 1:
    // cur >> 1 IS the byte offset; the column pads 3 bytes so the
    // widest load at the last entry stays in bounds). Inactive lanes
    // load nothing and read as 0.
    __m256i raw[W];
    for (int k = 0; k < W; ++k) {
      const __m256i byteOff = _mm256_srli_epi32(cur[k], 1);
      const __m256i word = _mm256_mask_i32gather_epi32(
          _mm256_setzero_si256(), nib, byteOff, active[k], 1);
      const __m256i shift =
          _mm256_slli_epi32(_mm256_and_si256(cur[k], lowBit), 2);
      raw[k] = _mm256_and_si256(_mm256_srlv_epi32(word, shift), nibMask);
      // Nibbles above 7 carry kMinimalBit (inactive lanes read 0).
      const __m256i minimal = _mm256_cmpgt_epi32(raw[k], noRouteNib);
      res[k] = _mm256_blendv_epi8(res[k], deliveredRes, minimal);
      active[k] = _mm256_andnot_si256(minimal, active[k]);
      const __m256i noRoute = _mm256_and_si256(
          _mm256_cmpeq_epi32(raw[k], noRouteNib), active[k]);
      res[k] = _mm256_blendv_epi8(res[k], noRouteRes, noRoute);
      active[k] = _mm256_andnot_si256(noRoute, active[k]);
      anyActive = _mm256_or_si256(anyActive, active[k]);
    }
    if (step >= maxSteps || _mm256_testz_si256(anyActive, anyActive)) {
      break;
    }

    for (int k = 0; k < W; ++k) {
      const __m256i delta = _mm256_permutevar8x32_epi32(deltaTab, raw[k]);
      cur[k] = _mm256_add_epi32(cur[k],
                                _mm256_and_si256(delta, active[k]));
    }
  }

  alignas(32) std::int32_t out[8];
  alignas(32) NodeId at[8];
  for (int k = 0; k < W; ++k) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(out), res[k]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(at), cur[k]);
    for (std::size_t l = 0; l < 8; ++l) {
      auto st = static_cast<ServeStatus>(
          static_cast<std::uint32_t>(out[l]) >> kStatusShift);
      if (st == ServeStatus::Delivered) {
        const std::size_t total =
            static_cast<std::size_t>(out[l] & ((1 << kStatusShift) - 1)) +
            static_cast<std::size_t>(column.distanceToDest(at[l]));
        if (total <= maxSteps) {
          hops[8 * k + l] = static_cast<std::int32_t>(total);
        } else {
          st = ServeStatus::Diverged;
        }
      }
      status[8 * k + l] = st;
    }
  }
}

}  // namespace

void chaseBatchAvx2(const PackedRouteColumn& column, const NodeId* sources,
                    std::size_t count, std::size_t maxSteps,
                    ServeStatus* status, std::int32_t* hops) {
  const NodeId width = column.width();
  // permutevar8x32 lane table for the per-direction id deltas; slots
  // 4..7 are never selected by an active lane (active raw entries are
  // Dir values 0..3), 0 keeps the arithmetic harmless regardless.
  const __m256i deltaTab =
      _mm256_setr_epi32(1, -1, width, -width, 0, 0, 0, 0);

  std::size_t base = 0;
  for (; base + 32 <= count; base += 32) {
    chaseChunks<4>(column, deltaTab, maxSteps, sources + base,
                   status + base, hops + base);
  }
  for (; base + 8 <= count; base += 8) {
    chaseChunks<1>(column, deltaTab, maxSteps, sources + base,
                   status + base, hops + base);
  }
  if (base < count) {
    chaseBatchScalar(column, sources + base, count - base, maxSteps,
                     status + base, hops + base);
  }
}

}  // namespace meshrt

#else  // !__AVX2__

namespace meshrt {

namespace detail {
bool chaseBatchAvx2Compiled() { return false; }
}  // namespace detail

void chaseBatchAvx2(const PackedRouteColumn& column, const NodeId* sources,
                    std::size_t count, std::size_t maxSteps,
                    ServeStatus* status, std::int32_t* hops) {
  chaseBatchScalar(column, sources, count, maxSteps, status, hops);
}

}  // namespace meshrt

#endif
