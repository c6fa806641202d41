#ifndef BOUNCER_CORE_POLICY_STATE_TABLE_H_
#define BOUNCER_CORE_POLICY_STATE_TABLE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/core/types.h"

namespace bouncer {

/// Flat-indexed per-(tenant, type) policy state: one logical slab of
/// cache-line-padded cells addressed by `tenant * num_types + type`, the
/// layout that keeps per-tenant admission bookkeeping O(1) and
/// cache-friendly at 10k+ tenants where a hash map would rehash, chase
/// pointers, and contend on a shared lock.
///
/// Growth is what makes the flat layout survive unbounded tenant arrival:
/// the slab is physically a short array of chunk pointers, where chunk 0
/// covers the first `base_tenants` tenants and every later chunk doubles
/// the covered range (the same geometry TenantRegistry uses for its
/// metadata). The tenant index alone determines its chunk (a bit-width
/// computation, no search), so addressing is O(1); a new tenant's first
/// touch allocates its chunk — rows of `num_types` contiguous cells — and
/// publishes it with a single compare-exchange. Nothing is ever copied or
/// rehashed: cells are typically striped/atomic counters, and moving a
/// counter under concurrent writers would silently drop updates, so cell
/// addresses are stable for the table's lifetime by construction.
///
/// `Cell` must be default-constructible to its zero state (atomic members
/// with default member initializers) and is destroyed in place; typical
/// cells are `alignas(kCacheLineSize)` so tenants never false-share.
template <typename Cell>
class PolicyStateTable {
 public:
  /// `num_types` fixes the row width (immutable, like the query-type
  /// registry after configuration); `base_tenants` sizes chunk 0.
  explicit PolicyStateTable(size_t num_types, size_t base_tenants = 1024)
      : num_types_(num_types < 1 ? 1 : num_types),
        base_(base_tenants < 1 ? 1 : base_tenants) {}

  ~PolicyStateTable() {
    for (auto& chunk : chunks_) {
      delete[] chunk.load(std::memory_order_acquire);
    }
  }

  PolicyStateTable(const PolicyStateTable&) = delete;
  PolicyStateTable& operator=(const PolicyStateTable&) = delete;

  /// The cell of (tenant, type), allocating the tenant's chunk on first
  /// touch. Lock-free; `type` must be < num_types.
  Cell& At(TenantId tenant, size_t type = 0) {
    size_t chunk, offset;
    Locate(tenant, &chunk, &offset);
    Cell* cells = chunks_[chunk].load(std::memory_order_acquire);
    if (cells == nullptr) cells = AllocateChunk(chunk);
    return cells[offset * num_types_ + type];
  }

  /// Read-only access that never allocates: null when no request of this
  /// tenant's chunk range has been seen (state walkers skip such rows).
  const Cell* Find(TenantId tenant, size_t type = 0) const {
    size_t chunk, offset;
    Locate(tenant, &chunk, &offset);
    const Cell* cells = chunks_[chunk].load(std::memory_order_acquire);
    return cells == nullptr ? nullptr : cells + offset * num_types_ + type;
  }

  size_t num_types() const { return num_types_; }

 private:
  /// 30 doubling chunks cover base_ << 29 tenants — far beyond the
  /// registry's max_tenants cap for any sane base.
  static constexpr size_t kMaxChunks = 30;

  void Locate(size_t tenant, size_t* chunk, size_t* offset) const {
    if (tenant < base_) {
      *chunk = 0;
      *offset = tenant;
      return;
    }
    size_t c = 0;
    for (size_t range = tenant / base_; range != 0; range >>= 1) ++c;
    *chunk = c >= kMaxChunks ? kMaxChunks - 1 : c;
    *offset = tenant - (base_ << (*chunk - 1));
  }

  Cell* AllocateChunk(size_t chunk) {
    const size_t rows = chunk == 0 ? base_ : base_ << (chunk - 1);
    Cell* fresh = new Cell[rows * num_types_];
    Cell* expected = nullptr;
    if (chunks_[chunk].compare_exchange_strong(expected, fresh,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
      return fresh;
    }
    delete[] fresh;  // Lost the publication race; adopt the winner's.
    return expected;
  }

  const size_t num_types_;
  const size_t base_;
  std::array<std::atomic<Cell*>, kMaxChunks> chunks_{};
};

}  // namespace bouncer

#endif  // BOUNCER_CORE_POLICY_STATE_TABLE_H_
