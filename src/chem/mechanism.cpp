#include "airshed/chem/mechanism.hpp"

#include <cmath>
#include <cstddef>
#include <utility>

#include "airshed/chem/cb4_table.hpp"
#include "airshed/kernel/cellblock.hpp"
#include "airshed/util/error.hpp"

namespace airshed {
namespace {

/// True when `rs` has the reactants and products of the cb4_table.hpp rows,
/// in order — everything the compiled lane kernel bakes in. Labels and
/// rate parameters do not enter production/loss.
bool matches_cb4_table(const std::vector<Reaction>& rs) {
  if (rs.size() != cb4::kReactions.size()) return false;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const Reaction& r = rs[i];
    const cb4::Row& row = cb4::kReactions[i];
    if (r.reactants.size() != row.n_reactants ||
        r.products.size() != row.n_products) {
      return false;
    }
    for (std::size_t j = 0; j < row.n_reactants; ++j) {
      if (r.reactants[j] != row.reactants[j]) return false;
    }
    for (std::size_t t = 0; t < row.n_products; ++t) {
      if (r.products[t].first != row.products[t].species ||
          r.products[t].second != row.products[t].coef) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

Mechanism::Mechanism(std::vector<Reaction> reactions)
    : reactions_(std::move(reactions)) {
  AIRSHED_REQUIRE(!reactions_.empty(), "mechanism needs reactions");
  for (const Reaction& r : reactions_) {
    AIRSHED_REQUIRE(r.reactants.size() >= 1 && r.reactants.size() <= 2,
                    "reactions must have 1 or 2 reactants");
  }
  // Rough flop count of one full rate + production/loss evaluation:
  // rate constants (exp/pow amortized ~8 flops), rate = k * c1 [* c2]
  // (~3), and scatter to P/L (~3 per product term).
  double flops = 0.0;
  for (const Reaction& r : reactions_) {
    flops += 8.0 + 3.0 * static_cast<double>(r.reactants.size()) +
             3.0 * static_cast<double>(r.products.size());
  }
  flops_per_eval_ = flops + 4.0 * kSpeciesCount;

  // Precompile the flat tables used by production_loss.
  reactant1_.reserve(reactions_.size());
  reactant2_.reserve(reactions_.size());
  prod_begin_.reserve(reactions_.size() + 1);
  prod_begin_.push_back(0);
  for (const Reaction& r : reactions_) {
    reactant1_.push_back(index_of(r.reactants[0]));
    reactant2_.push_back(r.reactants.size() == 2 ? index_of(r.reactants[1])
                                                 : -1);
    for (const auto& [sp, coef] : r.products) {
      prod_species_.push_back(index_of(sp));
      prod_coef_.push_back(coef);
    }
    prod_begin_.push_back(static_cast<int>(prod_species_.size()));
  }
  cb4_kernel_ = matches_cb4_table(reactions_);
}

void Mechanism::compute_rates(double temp_k, double sun,
                              std::span<double> k_out) const {
  AIRSHED_REQUIRE(k_out.size() == reactions_.size(),
                  "rate output has wrong size");
  AIRSHED_REQUIRE(temp_k > 150.0 && temp_k < 400.0,
                  "temperature outside tropospheric range");
  for (std::size_t i = 0; i < reactions_.size(); ++i) {
    const RateCoeff& rc = reactions_[i].rate;
    if (rc.kind == RateCoeff::Kind::Photolysis) {
      k_out[i] = rc.j * sun;
    } else {
      double k = rc.a;
      if (rc.b != 0.0) k *= std::pow(temp_k / 300.0, rc.b);
      if (rc.c != 0.0) k *= std::exp(-rc.c / temp_k);
      k_out[i] = k;
    }
  }
}

void Mechanism::production_loss(std::span<const double> c,
                                std::span<const double> k,
                                std::span<double> p_out,
                                std::span<double> l_out) const {
  AIRSHED_ASSERT(c.size() == static_cast<std::size_t>(kSpeciesCount) &&
                     p_out.size() == c.size() && l_out.size() == c.size() &&
                     k.size() == reactions_.size(),
                 "production_loss: bad spans");
  production_loss_strided(c.data(), k.data(), p_out.data(), l_out.data(), 1);
}

void Mechanism::production_loss_strided(const double* c, const double* k,
                                        double* p_out, double* l_out,
                                        std::size_t stride) const {
  constexpr double kTiny = 1e-30;  // floor for negative-product loss terms

  for (int s = 0; s < kSpeciesCount; ++s) {
    p_out[s * stride] = 0.0;
    l_out[s * stride] = 0.0;
  }

  const std::size_t nr = reactions_.size();
  for (std::size_t i = 0; i < nr; ++i) {
    const std::size_t a = static_cast<std::size_t>(reactant1_[i]) * stride;
    const double ki = k[i * stride];
    double rate;
    if (reactant2_[i] < 0) {
      // Loss frequency of the single reactant is the rate constant itself.
      l_out[a] += ki;
      rate = ki * c[a];
    } else {
      const std::size_t b = static_cast<std::size_t>(reactant2_[i]) * stride;
      l_out[a] += ki * c[b];
      l_out[b] += ki * c[a];
      rate = ki * c[a] * c[b];
    }
    const int pe = prod_begin_[i + 1];
    for (int t = prod_begin_[i]; t < pe; ++t) {
      const std::size_t s = static_cast<std::size_t>(prod_species_[t]) * stride;
      const double coef = prod_coef_[t];
      if (coef >= 0.0) {
        p_out[s] += coef * rate;
      } else {
        // Carbon-bond net-consumption term (e.g. "- PAR"): expressed as an
        // extra loss frequency so the hybrid solver keeps c >= 0.
        l_out[s] += (-coef) * rate / (c[s] > kTiny ? c[s] : kTiny);
      }
    }
  }
}

namespace {

// The CB4 lane kernel, compiled here with the kernel strict flags so every
// clone is bit-identical to the scalar path (see pl_lanes.inl).
#include "pl_lanes.inl"

}  // namespace

void Mechanism::production_loss_block(const double* c, const double* k,
                                      double* p_out, double* l_out,
                                      std::size_t lanes,
                                      std::size_t stride) const {
  AIRSHED_ASSERT(lanes >= 1 && lanes <= stride,
                 "production_loss_block: bad lane count");
  if (cb4_kernel_) {
    pl_cb4_lanes(c, k, p_out, l_out, lanes, stride);
    return;
  }
  for (std::size_t j = 0; j < lanes; ++j) {
    production_loss_strided(c + j, k + j, p_out + j, l_out + j, stride);
  }
}

double Mechanism::nitrogen_balance(const Reaction& r) const {
  double net = 0.0;
  for (const auto& [sp, coef] : r.products) net += coef * nitrogen_atoms(sp);
  for (Species sp : r.reactants) net -= nitrogen_atoms(sp);
  return net;
}

double Mechanism::sulfur_balance(const Reaction& r) const {
  double net = 0.0;
  for (const auto& [sp, coef] : r.products) net += coef * sulfur_atoms(sp);
  for (Species sp : r.reactants) net -= sulfur_atoms(sp);
  return net;
}

namespace {

/// Arrhenius coefficient anchored at 298 K: k(298) = k298, activation
/// temperature c; so a = k298 * exp(c / 298).
RateCoeff arr298(double k298, double c, double b) {
  RateCoeff rc;
  rc.kind = RateCoeff::Kind::Arrhenius;
  rc.c = c;
  rc.b = b;
  rc.a = k298 * std::exp(c / 298.0) / std::pow(298.0 / 300.0, b);
  return rc;
}

RateCoeff phot(double j_noon) {
  RateCoeff rc;
  rc.kind = RateCoeff::Kind::Photolysis;
  rc.j = j_noon;
  return rc;
}

std::vector<Reaction> build_cb4_condensed() {
  std::vector<Reaction> rs;
  rs.reserve(cb4::kReactions.size());
  for (const cb4::Row& row : cb4::kReactions) {
    Reaction r;
    r.label = std::string(row.label);
    r.reactants.assign(row.reactants.begin(),
                       row.reactants.begin() + row.n_reactants);
    for (std::size_t t = 0; t < row.n_products; ++t) {
      r.products.emplace_back(row.products[t].species, row.products[t].coef);
    }
    const cb4::RateParams& rp = row.rate;
    r.rate = rp.kind == RateCoeff::Kind::Photolysis
                 ? phot(rp.j_noon)
                 : arr298(rp.k298, rp.c, rp.b);
    rs.push_back(std::move(r));
  }
  return rs;
}

}  // namespace

const Mechanism& Mechanism::cb4_condensed() {
  static const Mechanism instance(build_cb4_condensed());
  return instance;
}

}  // namespace airshed
