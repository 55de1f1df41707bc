// The condensed CB-IV reaction table — the one source of the mechanism.
//
// Every row is a compile-time constant: label, reactants, (species,
// coefficient) products in table order, and the literature rate
// parameters (Arrhenius anchored at 298 K, or photolysis at overhead sun).
// Mechanism::cb4_condensed() is built by a runtime loop over these rows,
// and the lane-parallel production/loss kernel (src/chem/pl_lanes.inl)
// unrolls the same rows at compile time, so the two cannot drift apart.
//
// Units: ppm and minutes (k in 1/min or 1/(ppm min)); c in K.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <string_view>

#include "airshed/chem/mechanism.hpp"
#include "airshed/chem/species.hpp"

namespace airshed::cb4 {

/// Literature rate parameters of one row. Arrhenius rows give k(298 K),
/// the activation temperature c and the exponent b on (T/300); photolysis
/// rows give the noon frequency j_noon.
struct RateParams {
  RateCoeff::Kind kind = RateCoeff::Kind::Arrhenius;
  double k298 = 0.0;
  double c = 0.0;
  double b = 0.0;
  double j_noon = 0.0;
};

/// One product term: species and stoichiometric coefficient (negative for
/// the carbon-bond net-consumption convention, e.g. "- PAR").
struct Term {
  Species species = Species::NO;
  double coef = 0.0;
};

/// Most product terms on any row (O_OLE).
inline constexpr std::size_t kMaxProducts = 8;

/// One table row. Only the first n_reactants / n_products entries count.
struct Row {
  std::string_view label;
  std::array<Species, 2> reactants{};
  std::size_t n_reactants = 0;
  std::array<Term, kMaxProducts> products{};
  std::size_t n_products = 0;
  RateParams rate;
};

constexpr RateParams arr298(double k298, double c = 0.0, double b = 0.0) {
  return {RateCoeff::Kind::Arrhenius, k298, c, b, 0.0};
}

constexpr RateParams phot(double j_noon) {
  return {RateCoeff::Kind::Photolysis, 0.0, 0.0, 0.0, j_noon};
}

/// Row builder; more than two reactants or kMaxProducts products is a
/// compile error (out-of-range write in a constant expression).
constexpr Row rxn(std::string_view label, std::initializer_list<Species> rs,
                  std::initializer_list<Term> ps, RateParams rate) {
  Row r;
  r.label = label;
  r.n_reactants = rs.size();
  r.n_products = ps.size();
  r.rate = rate;
  std::size_t i = 0;
  for (Species s : rs) r.reactants[i++] = s;
  i = 0;
  for (const Term& t : ps) r.products[i++] = t;
  return r;
}

/// The condensed CB-IV mechanism, in evaluation order.
inline constexpr auto kReactions = [] {
  using S = Species;
  return std::to_array<Row>({
    // --- Inorganic NOx / O3 / HOx core ---------------------------------
    rxn("NO2_hv", {S::NO2}, {{S::NO, 1}, {S::O, 1}}, phot(0.533)),
    rxn("O_O2_M", {S::O}, {{S::O3, 1}}, arr298(4.2e6, -1175)),
    rxn("O3_NO", {S::O3, S::NO}, {{S::NO2, 1}}, arr298(26.6, 1370)),
    rxn("O_NO2_a", {S::O, S::NO2}, {{S::NO, 1}}, arr298(1.37e4)),
    rxn("O_NO2_b", {S::O, S::NO2}, {{S::NO3, 1}}, arr298(2.31e3, -687)),
    rxn("O_NO", {S::O, S::NO}, {{S::NO2, 1}}, arr298(2.44e3, -602)),
    rxn("NO2_O3", {S::NO2, S::O3}, {{S::NO3, 1}}, arr298(4.77e-2, 2450)),
    rxn("O3_hv_O", {S::O3}, {{S::O, 1}}, phot(2.0e-2)),
    rxn("O3_hv_O1D", {S::O3}, {{S::O1D, 1}}, phot(2.6e-3)),
    rxn("O1D_M", {S::O1D}, {{S::O, 1}}, arr298(4.5e9)),
    rxn("O1D_H2O", {S::O1D}, {{S::OH, 2}}, arr298(5.1e8)),
    rxn("O3_OH", {S::O3, S::OH}, {{S::HO2, 1}}, arr298(1.0e2, 940)),
    rxn("O3_HO2", {S::O3, S::HO2}, {{S::OH, 1}}, arr298(3.0, 580)),

    // --- NO3 / N2O5 night chemistry ------------------------------------
    rxn("NO3_hv", {S::NO3}, {{S::NO2, 0.89}, {S::O, 0.89}, {S::NO, 0.11}},
        phot(33.9)),
    rxn("NO3_NO", {S::NO3, S::NO}, {{S::NO2, 2}}, arr298(4.42e4, -250)),
    rxn("NO3_NO2_a", {S::NO3, S::NO2}, {{S::NO, 1}, {S::NO2, 1}},
        arr298(0.59, 1230)),
    rxn("NO3_NO2_b", {S::NO3, S::NO2}, {{S::N2O5, 1}},
        arr298(1.85e3, -256)),
    rxn("N2O5_H2O", {S::N2O5}, {{S::HNO3, 2}}, arr298(3.8e-2)),
    rxn("N2O5_decomp", {S::N2O5}, {{S::NO3, 1}, {S::NO2, 1}},
        arr298(2.76, 10897)),

    // --- HONO / HNO3 / PNA ---------------------------------------------
    rxn("OH_NO", {S::OH, S::NO}, {{S::HONO, 1}}, arr298(9.8e3, -806)),
    rxn("HONO_hv", {S::HONO}, {{S::OH, 1}, {S::NO, 1}}, phot(0.18)),
    rxn("OH_HONO", {S::OH, S::HONO}, {{S::NO2, 1}}, arr298(9.77e3)),
    rxn("OH_NO2", {S::OH, S::NO2}, {{S::HNO3, 1}}, arr298(1.68e4, -560)),
    rxn("OH_HNO3", {S::OH, S::HNO3}, {{S::NO3, 1}}, arr298(2.18e2, -778)),
    rxn("HO2_NO", {S::HO2, S::NO}, {{S::OH, 1}, {S::NO2, 1}},
        arr298(1.23e4, -240)),
    rxn("HO2_NO2", {S::HO2, S::NO2}, {{S::PNA, 1}}, arr298(2.08e3, -749)),
    rxn("PNA_decomp", {S::PNA}, {{S::HO2, 1}, {S::NO2, 1}},
        arr298(5.1, 10121)),
    rxn("OH_PNA", {S::OH, S::PNA}, {{S::NO2, 1}}, arr298(6.83e3, -380)),

    // --- Peroxide ------------------------------------------------------
    rxn("HO2_HO2", {S::HO2, S::HO2}, {{S::H2O2, 1}}, arr298(4.14e3, -1150)),
    rxn("H2O2_hv", {S::H2O2}, {{S::OH, 2}}, phot(1.0e-3)),
    rxn("OH_H2O2", {S::OH, S::H2O2}, {{S::HO2, 1}}, arr298(2.52e3, 187)),

    // --- CO / formaldehyde / acetaldehyde / PAN ------------------------
    rxn("OH_CO", {S::OH, S::CO}, {{S::HO2, 1}}, arr298(3.22e2)),
    rxn("FORM_OH", {S::FORM, S::OH}, {{S::HO2, 1}, {S::CO, 1}},
        arr298(1.5e4)),
    rxn("FORM_hv_rad", {S::FORM}, {{S::HO2, 2}, {S::CO, 1}}, phot(2.9e-3)),
    rxn("FORM_hv_mol", {S::FORM}, {{S::CO, 1}}, phot(6.5e-3)),
    rxn("FORM_O", {S::FORM, S::O}, {{S::OH, 1}, {S::HO2, 1}, {S::CO, 1}},
        arr298(2.37e2, 1550)),
    rxn("FORM_NO3", {S::FORM, S::NO3},
        {{S::HNO3, 1}, {S::HO2, 1}, {S::CO, 1}}, arr298(0.93)),
    rxn("ALD2_O", {S::ALD2, S::O}, {{S::C2O3, 1}, {S::OH, 1}},
        arr298(6.36e2, 986)),
    rxn("ALD2_OH", {S::ALD2, S::OH}, {{S::C2O3, 1}}, arr298(2.4e4, -250)),
    rxn("ALD2_NO3", {S::ALD2, S::NO3}, {{S::C2O3, 1}, {S::HNO3, 1}},
        arr298(3.7)),
    rxn("ALD2_hv", {S::ALD2},
        {{S::FORM, 1}, {S::HO2, 2}, {S::CO, 1}, {S::XO2, 1}}, phot(6.0e-4)),
    rxn("C2O3_NO", {S::C2O3, S::NO},
        {{S::NO2, 1}, {S::XO2, 1}, {S::FORM, 1}, {S::HO2, 1}},
        arr298(1.6e4, -180)),
    rxn("C2O3_NO2", {S::C2O3, S::NO2}, {{S::PAN, 1}}, arr298(8.4e3, -380)),
    rxn("PAN_decomp", {S::PAN}, {{S::C2O3, 1}, {S::NO2, 1}},
        arr298(2.2e-2, 13500)),
    rxn("C2O3_C2O3", {S::C2O3, S::C2O3},
        {{S::FORM, 2}, {S::XO2, 2}, {S::HO2, 2}}, arr298(3.7e3)),
    rxn("C2O3_HO2", {S::C2O3, S::HO2},
        {{S::FORM, 0.79}, {S::XO2, 0.79}, {S::HO2, 0.79}, {S::OH, 0.79}},
        arr298(9.6e3)),
    rxn("OH_CH4", {S::OH}, {{S::FORM, 1}, {S::XO2, 1}, {S::HO2, 1}},
        arr298(11.6, 1710)),

    // --- Paraffin / olefin / ethene chemistry --------------------------
    rxn("PAR_OH", {S::PAR, S::OH},
        {{S::XO2, 0.87}, {S::XO2N, 0.13}, {S::HO2, 0.11}, {S::ALD2, 0.11},
         {S::ROR, 0.76}, {S::PAR, -0.11}},
        arr298(1.2e3)),
    rxn("ROR_decomp", {S::ROR},
        {{S::ALD2, 1.1}, {S::XO2, 0.96}, {S::HO2, 0.94}, {S::XO2N, 0.04},
         {S::PAR, -2.1}},
        arr298(6.0e4, 8000)),
    rxn("ROR_O2", {S::ROR}, {{S::HO2, 1}}, arr298(9.6e3)),
    rxn("ROR_NO2", {S::ROR, S::NO2}, {{S::NTR, 1}}, arr298(2.2e4)),
    rxn("O_OLE", {S::O, S::OLE},
        {{S::ALD2, 0.63}, {S::HO2, 0.38}, {S::XO2, 0.28}, {S::CO, 0.3},
         {S::FORM, 0.2}, {S::XO2N, 0.02}, {S::PAR, 0.22}, {S::OH, 0.2}},
        arr298(5.92e3, 324)),
    rxn("OH_OLE", {S::OH, S::OLE},
        {{S::FORM, 1}, {S::ALD2, 1}, {S::XO2, 1}, {S::HO2, 1}, {S::PAR, -1}},
        arr298(4.2e4, -504)),
    rxn("O3_OLE", {S::O3, S::OLE},
        {{S::ALD2, 0.5}, {S::FORM, 0.74}, {S::CO, 0.33}, {S::HO2, 0.44},
         {S::XO2, 0.22}, {S::OH, 0.1}, {S::PAR, -1}},
        arr298(1.8e-2, 2105)),
    rxn("NO3_OLE", {S::NO3, S::OLE},
        {{S::XO2, 0.91}, {S::FORM, 1}, {S::ALD2, 1}, {S::XO2N, 0.09},
         {S::NO2, 1}, {S::PAR, -1}},
        arr298(11.35)),
    rxn("O_ETH", {S::O, S::ETH},
        {{S::FORM, 1}, {S::XO2, 0.7}, {S::CO, 1}, {S::HO2, 1.7},
         {S::OH, 0.3}},
        arr298(1.08e3, 792)),
    rxn("OH_ETH", {S::OH, S::ETH},
        {{S::XO2, 1}, {S::FORM, 1.56}, {S::ALD2, 0.22}, {S::HO2, 1}},
        arr298(1.19e4, -411)),
    rxn("O3_ETH", {S::O3, S::ETH},
        {{S::FORM, 1}, {S::CO, 0.42}, {S::HO2, 0.12}}, arr298(2.7e-3, 2633)),

    // --- Aromatics -----------------------------------------------------
    rxn("TOL_OH", {S::TOL, S::OH},
        {{S::XO2, 0.08}, {S::CRES, 0.36}, {S::HO2, 0.44}, {S::TO2, 0.56}},
        arr298(9.15e3, -322)),
    rxn("TO2_NO", {S::TO2, S::NO},
        {{S::NO2, 0.9}, {S::HO2, 0.9}, {S::MGLY, 0.9}, {S::NTR, 0.1}},
        arr298(1.2e4)),
    rxn("TO2_decomp", {S::TO2}, {{S::CRES, 1}, {S::HO2, 1}}, arr298(2.5e2)),
    rxn("OH_CRES", {S::OH, S::CRES},
        {{S::CRO, 0.4}, {S::XO2, 0.6}, {S::HO2, 0.6}, {S::MGLY, 0.3}},
        arr298(6.1e4)),
    rxn("NO3_CRES", {S::NO3, S::CRES}, {{S::CRO, 1}, {S::HNO3, 1}},
        arr298(3.25e4)),
    rxn("CRO_NO2", {S::CRO, S::NO2}, {{S::NTR, 1}}, arr298(2.0e4)),
    rxn("XYL_OH", {S::XYL, S::OH},
        {{S::HO2, 0.7}, {S::XO2, 0.5}, {S::CRES, 0.2}, {S::MGLY, 0.8},
         {S::TO2, 0.3}},
        arr298(3.62e4, -116)),
    rxn("MGLY_OH", {S::MGLY, S::OH}, {{S::XO2, 1}, {S::C2O3, 1}},
        arr298(2.6e4)),
    rxn("MGLY_hv", {S::MGLY}, {{S::C2O3, 1}, {S::HO2, 1}, {S::CO, 1}},
        phot(1.2e-2)),

    // --- Isoprene ------------------------------------------------------
    rxn("O_ISOP", {S::O, S::ISOP},
        {{S::HO2, 0.6}, {S::ALD2, 0.8}, {S::OLE, 0.55}, {S::XO2, 0.5}},
        arr298(2.7e4)),
    rxn("OH_ISOP", {S::OH, S::ISOP},
        {{S::XO2, 1}, {S::FORM, 1}, {S::HO2, 0.67}, {S::MGLY, 0.4},
         {S::C2O3, 0.2}, {S::ETH, 0.2}},
        arr298(1.42e5)),
    rxn("O3_ISOP", {S::O3, S::ISOP},
        {{S::FORM, 1}, {S::ALD2, 0.4}, {S::ETH, 0.55}, {S::MGLY, 0.2},
         {S::CO, 0.06}, {S::PAR, 0.1}},
        arr298(1.8e-2)),
    rxn("NO3_ISOP", {S::NO3, S::ISOP}, {{S::NTR, 1}, {S::XO2, 1}},
        arr298(47.0)),

    // --- Operator radicals ---------------------------------------------
    rxn("XO2_NO", {S::XO2, S::NO}, {{S::NO2, 1}}, arr298(1.2e4)),
    rxn("XO2_XO2", {S::XO2, S::XO2}, {}, arr298(2.4e3, -1300)),
    rxn("XO2N_NO", {S::XO2N, S::NO}, {{S::NTR, 1}}, arr298(1.0e3)),
    rxn("XO2_HO2", {S::XO2, S::HO2}, {}, arr298(9.6e3, -1300)),

    // --- Sulfur --------------------------------------------------------
    rxn("SO2_OH", {S::SO2, S::OH}, {{S::SULF, 1}, {S::HO2, 1}},
        arr298(1.5e3)),
    rxn("SO2_het", {S::SO2}, {{S::SULF, 1}}, arr298(8.0e-4)),
  });
}();

}  // namespace airshed::cb4
