// Gas-phase reaction mechanism: reaction table, rate-constant evaluation,
// and production/loss assembly for the hybrid ODE solver.
//
// The reaction set is a condensed CB-IV style photochemical mechanism
// (NOx / O3 photostationary cycle, HOx radical chemistry, carbonyl and
// aromatic oxidation, PAN and N2O5 reservoirs, isoprene, SO2 oxidation);
// 77 reactions over the 35 species in species.hpp. Its one source is the
// constexpr table in cb4_table.hpp: cb4_condensed() is a runtime loop over
// those rows, and the cell-batched production/loss kernel unrolls the same
// rows at compile time. Rates use either Arrhenius form
// k = A (T/300)^B exp(-C/T) or photolysis form k = J * sun, where `sun` is
// the meteorology's photolysis factor (0 at night).
//
// Units: ppm and minutes (k in 1/min or 1/(ppm min)).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "airshed/chem/species.hpp"

namespace airshed {

/// Rate-constant description for one reaction.
struct RateCoeff {
  enum class Kind : std::uint8_t { Arrhenius, Photolysis };
  Kind kind = Kind::Arrhenius;
  double a = 0.0;  ///< Arrhenius pre-exponential (1/min or 1/(ppm min))
  double b = 0.0;  ///< temperature exponent on (T/300)
  double c = 0.0;  ///< activation temperature (K); k ~ exp(-c/T)
  double j = 0.0;  ///< photolysis rate at overhead sun (1/min)
};

/// One elementary (or lumped) reaction: up to two reactants, products with
/// stoichiometric coefficients. Negative product coefficients express the
/// carbon-bond convention of net consumption (e.g. "- PAR").
struct Reaction {
  std::string label;
  std::vector<Species> reactants;                 // size 1 or 2
  std::vector<std::pair<Species, double>> products;
  RateCoeff rate;
};

/// An immutable reaction mechanism over the fixed 35-species registry.
class Mechanism {
 public:
  explicit Mechanism(std::vector<Reaction> reactions);

  /// The condensed CB-IV style mechanism used by Airshed.
  /// Conserves nitrogen and sulfur atoms exactly (tests rely on this).
  static const Mechanism& cb4_condensed();

  int species_count() const { return kSpeciesCount; }
  std::size_t reaction_count() const { return reactions_.size(); }
  std::span<const Reaction> reactions() const { return reactions_; }

  /// Evaluates all rate constants for temperature `temp_k` and photolysis
  /// scaling `sun` in [0, 1]. `k_out` must have reaction_count() entries.
  void compute_rates(double temp_k, double sun, std::span<double> k_out) const;

  /// Assembles production P (ppm/min) and loss frequency L (1/min) for every
  /// species from concentrations `c` (ppm) and rate constants `k`.
  /// Negative product coefficients contribute to L (net consumption).
  void production_loss(std::span<const double> c, std::span<const double> k,
                       std::span<double> p_out, std::span<double> l_out) const;

  /// Cell-batched production_loss over an SoA panel of `lanes` cells:
  /// `c`/`p_out`/`l_out` are species-major (kSpeciesCount rows of `stride`
  /// doubles), `k` is reaction-major (reaction_count() rows of `stride`,
  /// one rate column per lane). Every lane executes exactly the scalar
  /// production_loss operation sequence, so each output column is
  /// bit-identical to a scalar call on that cell. A mechanism whose
  /// reactions match the cb4_table.hpp rows runs the compile-time unrolled
  /// lane kernel; any other mechanism runs the scalar body lane by lane.
  /// The panels must not alias; rows should be kAlign-aligned for speed.
  void production_loss_block(const double* c, const double* k, double* p_out,
                             double* l_out, std::size_t lanes,
                             std::size_t stride) const;

  /// FMA-contracted twin of production_loss_block (same per-lane operation
  /// sequence, but the lane kernel is compiled with -ffp-contract=fast so
  /// FMA-capable clones fuse mul+add). Backs the tolerance profile of the
  /// blocked Young-Boris solver; NOT bit-identical to the scalar path —
  /// results agree to the documented relative bound (docs/BENCHMARKS.md).
  void production_loss_block_fast(const double* c, const double* k,
                                  double* p_out, double* l_out,
                                  std::size_t lanes,
                                  std::size_t stride) const;

  /// Approximate floating-point work of one production_loss + compute_rates
  /// evaluation; used by the work-trace accounting.
  double flops_per_evaluation() const { return flops_per_eval_; }

  /// Net change in nitrogen atoms per unit reaction advancement; exactly 0
  /// for every reaction of cb4_condensed() (checked by tests).
  double nitrogen_balance(const Reaction& r) const;
  /// Net change in sulfur atoms per unit reaction advancement.
  double sulfur_balance(const Reaction& r) const;

 private:
  /// The scalar production_loss body over strided columns: species i of
  /// the cell is c[i * stride], rate r is k[r * stride]. stride 1 is the
  /// scalar oracle; the block fallback calls it once per lane.
  void production_loss_strided(const double* c, const double* k,
                               double* p_out, double* l_out,
                               std::size_t stride) const;

  std::vector<Reaction> reactions_;
  double flops_per_eval_ = 0.0;
  /// True when the reactants and products equal the cb4_table.hpp rows, so
  /// the block entry points may run the unrolled lane kernel.
  bool cb4_kernel_ = false;

  // Precompiled flat tables for the scalar production/loss loop (built
  // once in the constructor): reactant indices per reaction (-1 = unary)
  // and a CSR layout of product (species, coefficient) pairs.
  std::vector<int> reactant1_, reactant2_;
  std::vector<int> prod_begin_;
  std::vector<int> prod_species_;
  std::vector<double> prod_coef_;
};

}  // namespace airshed
