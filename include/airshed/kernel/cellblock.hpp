// airshed::kernel — cell-batched structure-of-arrays execution primitives.
//
// The hot numerics (Young-Boris chemistry, vertical diffusion, transport
// sweeps) integrate one cell at a time through std::span indirection. This
// module supplies the batched alternative: a CellBlock gathers a contiguous
// run of cells into a species-major n_species x block panel (64-byte
// aligned, lane stride padded to a full vector width) so the per-species
// inner loops run over contiguous doubles the compiler can vectorize.
//
// Bit-identity contract: the blocked entry points built on these panels
// (YoungBorisSolver::integrate_block, VerticalTransport::advance_columns,
// the blocked transport layers) execute, per lane, exactly the scalar
// sequence of floating-point operations. Lanes that diverge in control flow
// (their own substep size, their own corrector convergence) are handled by
// masked blends, never by changing a lane's arithmetic. The scalar path is
// the reference oracle; results match bit for bit at every block size.
#pragma once

#include <sys/mman.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "airshed/util/array.hpp"
#include "airshed/util/error.hpp"

namespace airshed::kernel {

/// Panel alignment: one cache line, also the widest vector register.
inline constexpr std::size_t kAlign = 64;
/// Lane strides round up to this many doubles (kAlign / sizeof(double)) so
/// every panel row starts on an aligned boundary.
inline constexpr std::size_t kLaneRound = kAlign / sizeof(double);

/// Lane stride for a block of `width` cells.
constexpr std::size_t padded_lanes(std::size_t width) {
  return (width + kLaneRound - 1) / kLaneRound * kLaneRound;
}

// Function multiversioning for the dense lane loops: the default build
// targets baseline x86-64 (SSE2, two doubles per vector) for portability,
// so the hot elementwise kernels carry runtime-dispatched AVX2/AVX-512
// clones picked by CPU at load time. Wider vectors change nothing but the
// lane grouping — each lane's operation sequence is untouched, and the
// kernel translation units compile with -ffp-contract=off so no clone can
// contract mul+add into FMA — so every clone is bit-identical to the
// baseline one (and to the scalar oracle).
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define AIRSHED_LANE_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define AIRSHED_LANE_CLONES
#endif

/// Aligned buffers of at least this many bytes map their own pages
/// (mmap/munmap) instead of going through malloc. glibc raises its dynamic
/// mmap threshold to the size of every mapped chunk it frees, so slabs
/// freed at the end of each run (solver scratch of a batch attempt) would
/// otherwise come back from a heap that never shrinks.
inline constexpr std::size_t kMapBytes = std::size_t{64} << 10;

namespace detail {
struct AlignedDelete {
  std::size_t bytes = 0;
  void operator()(double* p) const noexcept {
    if (bytes >= kMapBytes) {
      ::munmap(p, bytes);
    } else {
      ::operator delete[](p, std::align_val_t{kAlign});
    }
  }
};
}  // namespace detail

using AlignedBuffer = std::unique_ptr<double[], detail::AlignedDelete>;

/// Allocates `count` doubles on a kAlign boundary (uninitialized, or
/// zero-filled pages when the buffer is mapped).
inline AlignedBuffer aligned_doubles(std::size_t count) {
  const std::size_t bytes = count * sizeof(double);
  if (bytes >= kMapBytes) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return AlignedBuffer(static_cast<double*>(p), detail::AlignedDelete{bytes});
  }
  return AlignedBuffer(
      static_cast<double*>(::operator new[](bytes, std::align_val_t{kAlign})),
      detail::AlignedDelete{bytes});
}

/// Bump allocator over 64-byte-aligned slabs: the reusable scratch arena
/// behind the blocked solvers. Allocation requests round up to kLaneRound
/// doubles (keeping every returned pointer aligned); reset() and reserve()
/// rewind to empty without releasing memory, so after the first time step
/// the hot loop never touches the system allocator. A caller that knows
/// its footprint reserves it, and the arena is one exact slab; otherwise
/// pointers stay valid until the next rewind even if the arena grows
/// mid-use (growth adds a slab, it never moves existing ones).
class Arena {
 public:
  Arena() = default;

  double* alloc(std::size_t count) {
    count = padded_lanes(count);
    if (slabs_.empty() || used_ + count > slabs_[current_].doubles) {
      next_slab(count);
    }
    double* p = slabs_[current_].data.get() + used_;
    used_ += count;
    return p;
  }

  /// Rewinds to empty. If use ever spilled into a second slab, the slabs
  /// are consolidated into one of the total size, so steady state is a
  /// single slab and zero allocation.
  void reset() {
    if (slabs_.size() > 1) {
      std::size_t total = 0;
      for (const Slab& s : slabs_) total += s.doubles;
      slabs_.clear();
      slabs_.push_back(Slab{aligned_doubles(total), total});
    }
    current_ = 0;
    used_ = 0;
  }

  /// Rewinds to empty and makes one slab hold `count` doubles: an arena
  /// that is smaller, or split over several slabs, is replaced by a single
  /// slab of exactly `count` (rounded like alloc). A larger single slab is
  /// kept, so reserving the same or a smaller footprint never allocates.
  void reserve(std::size_t count) {
    count = padded_lanes(count);
    if (slabs_.size() != 1 || slabs_[0].doubles < count) {
      slabs_.clear();
      slabs_.push_back(Slab{aligned_doubles(count), count});
    }
    current_ = 0;
    used_ = 0;
  }

  std::size_t slabs() const { return slabs_.size(); }

  std::size_t capacity() const {
    std::size_t total = 0;
    for (const Slab& s : slabs_) total += s.doubles;
    return total;
  }

 private:
  struct Slab {
    AlignedBuffer data;
    std::size_t doubles = 0;
  };

  void next_slab(std::size_t need) {
    // Grow geometrically so repeated small overflows converge quickly.
    const std::size_t want = std::max(need, std::max<std::size_t>(
                                                capacity(), kMinSlabDoubles));
    if (!slabs_.empty() && current_ + 1 < slabs_.size() &&
        slabs_[current_ + 1].doubles >= need) {
      ++current_;
    } else {
      slabs_.push_back(Slab{aligned_doubles(want), want});
      current_ = slabs_.size() - 1;
    }
    used_ = 0;
  }

  static constexpr std::size_t kMinSlabDoubles = 4096;

  std::vector<Slab> slabs_;
  std::size_t current_ = 0;
  std::size_t used_ = 0;
};

/// Species-major SoA panel of one block of cells: row s holds the
/// concentrations of species s for cells [first, first + width), padded to
/// stride() lanes (tail lanes replicate the last real cell so dense
/// arithmetic over the full stride stays in normal floating-point range).
class CellBlock {
 public:
  CellBlock(int n_species, int max_width)
      : n_species_(n_species),
        max_width_(max_width),
        stride_(padded_lanes(static_cast<std::size_t>(max_width))),
        data_(aligned_doubles(static_cast<std::size_t>(n_species) * stride_)) {
    AIRSHED_REQUIRE(n_species >= 1 && max_width >= 1,
                    "CellBlock needs at least one species and one lane");
  }

  int species() const { return n_species_; }
  int width() const { return width_; }
  int max_width() const { return max_width_; }
  /// Lane stride of every row (multiple of kLaneRound, >= width()).
  std::size_t stride() const { return stride_; }

  double* data() { return data_.get(); }
  const double* data() const { return data_.get(); }
  double* row(int s) { return data_.get() + static_cast<std::size_t>(s) * stride_; }
  const double* row(int s) const {
    return data_.get() + static_cast<std::size_t>(s) * stride_;
  }

  /// Gathers cells [first, first + width) of one layer: per species a
  /// contiguous subrange copy out of the (species, layer, nodes) field.
  void gather(const ConcentrationField& conc, std::size_t layer,
              std::size_t first, int width) {
    AIRSHED_REQUIRE(width >= 1 && width <= max_width_,
                    "CellBlock gather width out of range");
    AIRSHED_REQUIRE(conc.dim0() == static_cast<std::size_t>(n_species_),
                    "CellBlock species count does not match field");
    AIRSHED_REQUIRE(first + static_cast<std::size_t>(width) <= conc.dim2(),
                    "CellBlock gather range out of bounds");
    width_ = width;
    const std::size_t w = static_cast<std::size_t>(width);
    for (int s = 0; s < n_species_; ++s) {
      const double* src = conc.slice(s, layer).data() + first;
      double* dst = row(s);
      for (std::size_t i = 0; i < w; ++i) dst[i] = src[i];
      for (std::size_t i = w; i < stride_; ++i) dst[i] = src[w - 1];
    }
  }

  /// Scatters the block back: the inverse contiguous copies (tail lanes
  /// are dropped).
  void scatter(ConcentrationField& conc, std::size_t layer,
               std::size_t first) const {
    AIRSHED_REQUIRE(width_ >= 1, "CellBlock scatter before gather");
    AIRSHED_REQUIRE(first + static_cast<std::size_t>(width_) <= conc.dim2(),
                    "CellBlock scatter range out of bounds");
    const std::size_t w = static_cast<std::size_t>(width_);
    for (int s = 0; s < n_species_; ++s) {
      const double* src = row(s);
      double* dst = conc.slice(s, layer).data() + first;
      for (std::size_t i = 0; i < w; ++i) dst[i] = src[i];
    }
  }

 private:
  int n_species_;
  int max_width_;
  int width_ = 0;
  std::size_t stride_;
  AlignedBuffer data_;
};

/// Non-finite values detected at a block commit. Unlike the solvers' plain
/// NumericalError (a convergence failure inside one integrator), this names
/// exactly where poisoned state entered the committed field — (hour, block,
/// species, cell) — so a batch supervisor can quarantine the one scenario
/// instead of debugging a NaN that surfaced hours later. In the model,
/// block() is the ordinal of the chemistry panel in column order; panel
/// borders move with the thread count and the panel cap, so cell() (the
/// grid point) is the locator to key on: when one grid point is poisoned
/// it names that point at every thread count and cap.
class NumericsError : public NumericalError {
 public:
  NumericsError(int hour, int block, int species, std::size_t cell)
      : NumericalError("non-finite concentration committed at hour " +
                       std::to_string(hour) + ", cell block " +
                       std::to_string(block) + ", species " +
                       std::to_string(species) + ", cell " +
                       std::to_string(cell)),
        hour_(hour),
        block_(block),
        species_(species),
        cell_(cell) {}

  int hour() const { return hour_; }
  int block() const { return block_; }
  int species() const { return species_; }
  std::size_t cell() const { return cell_; }

 private:
  int hour_ = -1;
  int block_ = -1;
  int species_ = -1;
  std::size_t cell_ = 0;
};

/// Block-commit tripwire: scans cells [first, first + width) of every
/// species and layer and throws NumericsError at the first NaN/Inf. Called
/// once per (block, step) after vertical transport writes the block back,
/// so poisoned state is caught at the commit that produced it. Cost is one
/// predictable read pass over data already hot in cache.
inline void check_block_finite(const ConcentrationField& conc,
                               std::size_t first, std::size_t width, int hour,
                               int block) {
  const std::size_t species = conc.dim0();
  const std::size_t layers = conc.dim1();
  for (std::size_t s = 0; s < species; ++s) {
    for (std::size_t k = 0; k < layers; ++k) {
      const double* lane = conc.slice(s, k).data() + first;
      for (std::size_t i = 0; i < width; ++i) {
        if (!std::isfinite(lane[i])) {
          throw NumericsError(hour, block, static_cast<int>(s), first + i);
        }
      }
    }
  }
}

/// Numeric profile of the lane-parallel (SIMD) chemistry kernels.
enum class LaneMode {
  /// Bit-identical to the scalar oracle: kernels compiled with
  /// -ffp-contract=off, per-lane exact scalar operation sequence.
  strict,
  /// FMA-contracted kernels with a division-free convergence test:
  /// faster, results within a documented relative bound of strict
  /// (docs/BENCHMARKS.md), not bit-reproducible across vector ISAs.
  tolerance,
};

/// Knobs of the blocked kernels the model runs, carried in ModelOptions.
/// With LaneMode::strict every kernel is bit-identical to its scalar
/// reference at every block size and thread count, so the knobs only trade
/// speed; LaneMode::tolerance trades a bounded relative error for more.
struct KernelOptions {
  /// Panel cap: the most columns one chemistry/vertical SoA panel holds
  /// (its lane count; the panel stride is this rounded up to kLaneRound).
  /// Each pool thread integrates its column range as near-equal panels of
  /// at most this width. 200 is measured (BENCH_kernel_soa.json): wider
  /// panels amortize per-round control overhead, and a lane stride that is
  /// a power of two (128, 256) runs 9-41% slower than its neighbours
  /// (120/136, 248/264), consistent with the species rows of a panel
  /// aliasing onto a few cache sets.
  int block = 200;
  /// Species per transport inner block (amortizes element/line loads).
  int species_block = 8;
  /// Detect NaN/Inf at chemistry block commit (check_block_finite) and
  /// raise a typed NumericsError naming (hour, block, species, cell).
  bool tripwire = true;
  /// Numeric profile of the lane-parallel chemistry kernels.
  LaneMode lane_mode = LaneMode::strict;

  friend bool operator==(const KernelOptions&, const KernelOptions&) = default;
};

}  // namespace airshed::kernel
