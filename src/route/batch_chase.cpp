#include "route/batch_chase.h"

#include <algorithm>

namespace meshrt {

namespace {
constexpr std::size_t kLanes = 8;
}

void chaseBatchScalar(const PackedRouteColumn& column, const NodeId* sources,
                      std::size_t count, std::size_t maxSteps,
                      ServeStatus* status, std::int32_t* hops) {
  const std::uint8_t* nib = column.nibbleBytes();
  const NodeId width = column.width();
  // Indexed by the raw 3-bit entry; 4..7 are only ever read for lanes
  // about to retire as NoRoute, where the step must be a no-op.
  const NodeId idStep[8] = {1, -1, width, -width, 0, 0, 0, 0};
  for (std::size_t base = 0; base < count; base += kLanes) {
    const std::size_t lanes = std::min(kLanes, count - base);
    NodeId cur[kLanes];
    bool active[kLanes];
    std::size_t live = lanes;
    for (std::size_t l = 0; l < lanes; ++l) {
      cur[l] = sources[base + l];
      active[l] = true;
      status[base + l] = ServeStatus::Diverged;  // until the lane retires
    }
    // The iteration order mirrors the scalar chaseColumn exactly: the
    // minimal check (the destination carries the bit, so it is also the
    // at-destination check), then the no-route entry check, then the
    // advance. A lane at a minimal node after `step` steps delivers at
    // step + distanceToDest, so it retires Delivered when that fits
    // under maxSteps and Diverged otherwise, as the full walk would; a
    // lane going no-route at step == maxSteps still retires with that
    // status (only lanes that would ALSO outlive a nodeCount-bounded
    // scalar chase stay Diverged; see the hop-bound argument in
    // packed_column.h).
    for (std::size_t step = 0;; ++step) {
      for (std::size_t l = 0; l < lanes; ++l) {
        if (!active[l]) continue;
        const auto i = static_cast<std::size_t>(cur[l]);
        const std::uint8_t raw =
            static_cast<std::uint8_t>((nib[i >> 1] >> ((i & 1) * 4)) & 0xF);
        if (raw & PackedRouteColumn::kMinimalBit) {
          const std::size_t total =
              step + static_cast<std::size_t>(column.distanceToDest(cur[l]));
          if (total <= maxSteps) {
            status[base + l] = ServeStatus::Delivered;
            hops[base + l] = static_cast<std::int32_t>(total);
          }
          active[l] = false;
          --live;
        } else if (raw & 0x4) {
          status[base + l] = ServeStatus::NoRoute;
          active[l] = false;
          --live;
        } else if (step < maxSteps) {
          cur[l] += idStep[raw];
        }
      }
      if (live == 0 || step >= maxSteps) break;
    }
  }
}

bool chaseBatchSimdAvailable() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool ok =
      detail::chaseBatchAvx2Compiled() && __builtin_cpu_supports("avx2");
  return ok;
#else
  return false;
#endif
}

}  // namespace meshrt
