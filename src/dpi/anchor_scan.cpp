#include "dpi/anchor_scan.hpp"

namespace rtcc::dpi {

void scan_anchors(rtcc::util::BytesView payload, const ScanOptions& opts,
                  std::vector<AnchorHit>& out) {
  std::vector<AnchorMasks> masks;
  const AnchorBlockFn kernel = anchor_block_fn();
  if (kernel != nullptr) stage_anchor_masks(payload, opts, kernel, masks);
  for_each_anchor(payload, opts, kernel != nullptr ? masks.data() : nullptr,
                  [&out](std::uint32_t offset, std::uint8_t mask) {
                    out.push_back({offset, mask});
                  });
}

}  // namespace rtcc::dpi
