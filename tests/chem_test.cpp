// Tests for the chemistry substrate: species registry, mechanism
// invariants (exact N and S conservation), rate evaluation, and the
// Young-Boris hybrid solver against analytic and reference solutions.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "airshed/chem/cb4_table.hpp"
#include "airshed/chem/mechanism.hpp"
#include "airshed/chem/reference.hpp"
#include "airshed/chem/species.hpp"
#include "airshed/chem/youngboris.hpp"
#include "airshed/util/error.hpp"
#include "airshed/util/stats.hpp"

namespace airshed {
namespace {

std::vector<double> background_state() {
  std::vector<double> c(kSpeciesCount);
  for (int s = 0; s < kSpeciesCount; ++s) {
    c[s] = background_ppm(static_cast<Species>(s));
  }
  return c;
}

std::vector<double> urban_state() {
  std::vector<double> c = background_state();
  c[index_of(Species::NO)] = 0.02;
  c[index_of(Species::NO2)] = 0.03;
  c[index_of(Species::PAR)] = 0.3;
  c[index_of(Species::OLE)] = 0.01;
  c[index_of(Species::FORM)] = 0.01;
  c[index_of(Species::CO)] = 1.0;
  return c;
}

double total_nitrogen(std::span<const double> c) {
  double n = 0.0;
  for (int s = 0; s < kSpeciesCount; ++s) {
    n += c[s] * nitrogen_atoms(static_cast<Species>(s));
  }
  return n;
}

double total_sulfur(std::span<const double> c) {
  double n = 0.0;
  for (int s = 0; s < kSpeciesCount; ++s) {
    n += c[s] * sulfur_atoms(static_cast<Species>(s));
  }
  return n;
}

// ---------------------------------------------------------------- species

TEST(Species, RegistryHas35SpeciesWithUniqueNames) {
  EXPECT_EQ(kSpeciesCount, 35);
  std::set<std::string_view> names;
  for (Species s : all_species()) names.insert(species_name(s));
  EXPECT_EQ(names.size(), 35u);
}

TEST(Species, NameRoundTrip) {
  for (Species s : all_species()) {
    EXPECT_EQ(species_by_name(species_name(s)), s);
  }
  EXPECT_THROW(species_by_name("BOGUS"), ConfigError);
}

TEST(Species, NitrogenCounts) {
  EXPECT_EQ(nitrogen_atoms(Species::N2O5), 2);
  EXPECT_EQ(nitrogen_atoms(Species::PAN), 1);
  EXPECT_EQ(nitrogen_atoms(Species::O3), 0);
  EXPECT_EQ(sulfur_atoms(Species::SO2), 1);
  EXPECT_EQ(sulfur_atoms(Species::SULF), 1);
  EXPECT_EQ(sulfur_atoms(Species::NO), 0);
}

TEST(Species, BackgroundsArePositiveAndBounded) {
  for (Species s : all_species()) {
    EXPECT_GT(background_ppm(s), 0.0);
    EXPECT_LT(background_ppm(s), 1.0);
    EXPECT_GE(deposition_velocity_ms(s), 0.0);
  }
}

// -------------------------------------------------------------- mechanism

class MechanismReactionSweep : public ::testing::TestWithParam<int> {};

TEST_P(MechanismReactionSweep, ConservesNitrogenAndSulfurExactly) {
  const Mechanism& m = Mechanism::cb4_condensed();
  const Reaction& r = m.reactions()[GetParam()];
  EXPECT_NEAR(m.nitrogen_balance(r), 0.0, 1e-12) << "reaction " << r.label;
  EXPECT_NEAR(m.sulfur_balance(r), 0.0, 1e-12) << "reaction " << r.label;
}

INSTANTIATE_TEST_SUITE_P(
    AllReactions, MechanismReactionSweep,
    ::testing::Range(0,
                     static_cast<int>(
                         Mechanism::cb4_condensed().reaction_count())),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(
          Mechanism::cb4_condensed().reactions()[info.param].label);
    });

TEST(Mechanism, Cb4CondensedEqualsConstexprTableRowByRow) {
  // The compiled lane kernel unrolls cb4::kReactions; the mechanism every
  // model runs must be exactly those rows, in order.
  const Mechanism& m = Mechanism::cb4_condensed();
  ASSERT_EQ(m.reaction_count(), cb4::kReactions.size());
  for (std::size_t i = 0; i < cb4::kReactions.size(); ++i) {
    const Reaction& r = m.reactions()[i];
    const cb4::Row& row = cb4::kReactions[i];
    EXPECT_EQ(r.label, row.label) << "row " << i;
    ASSERT_EQ(r.reactants.size(), row.n_reactants) << r.label;
    for (std::size_t j = 0; j < row.n_reactants; ++j) {
      EXPECT_EQ(r.reactants[j], row.reactants[j]) << r.label;
    }
    ASSERT_EQ(r.products.size(), row.n_products) << r.label;
    for (std::size_t t = 0; t < row.n_products; ++t) {
      EXPECT_EQ(r.products[t].first, row.products[t].species) << r.label;
      EXPECT_EQ(r.products[t].second, row.products[t].coef) << r.label;
    }
    EXPECT_EQ(r.rate.kind, row.rate.kind) << r.label;
    if (row.rate.kind == RateCoeff::Kind::Photolysis) {
      EXPECT_EQ(r.rate.j, row.rate.j_noon) << r.label;
    } else {
      EXPECT_EQ(r.rate.b, row.rate.b) << r.label;
      EXPECT_EQ(r.rate.c, row.rate.c) << r.label;
    }
  }
}

TEST(Mechanism, RatesArePositiveAndPhotolysisIsZeroAtNight) {
  const Mechanism& m = Mechanism::cb4_condensed();
  std::vector<double> day(m.reaction_count()), night(m.reaction_count());
  m.compute_rates(298.0, 1.0, day);
  m.compute_rates(288.0, 0.0, night);
  for (std::size_t i = 0; i < m.reaction_count(); ++i) {
    EXPECT_GE(day[i], 0.0);
    if (m.reactions()[i].rate.kind == RateCoeff::Kind::Photolysis) {
      EXPECT_GT(day[i], 0.0) << m.reactions()[i].label;
      EXPECT_EQ(night[i], 0.0) << m.reactions()[i].label;
    } else {
      EXPECT_GT(night[i], 0.0) << m.reactions()[i].label;
    }
  }
}

TEST(Mechanism, ArrheniusAnchoredAt298) {
  // The O3 + NO rate should be ~26.6 /ppm/min at 298 K and smaller when
  // colder (positive activation energy).
  const Mechanism& m = Mechanism::cb4_condensed();
  std::size_t idx = m.reaction_count();
  for (std::size_t i = 0; i < m.reaction_count(); ++i) {
    if (m.reactions()[i].label == "O3_NO") idx = i;
  }
  ASSERT_LT(idx, m.reaction_count());
  std::vector<double> k(m.reaction_count());
  m.compute_rates(298.0, 0.0, k);
  EXPECT_NEAR(k[idx], 26.6, 0.2);
  std::vector<double> k_cold(m.reaction_count());
  m.compute_rates(278.0, 0.0, k_cold);
  EXPECT_LT(k_cold[idx], k[idx]);
}

TEST(Mechanism, ProductionLossDerivativeConservesNitrogen) {
  // Summing nitrogen-weighted (P - L c) must give zero: the instantaneous
  // rate of change of total N is zero.
  const Mechanism& m = Mechanism::cb4_condensed();
  std::vector<double> c = urban_state();
  std::vector<double> k(m.reaction_count()), p(kSpeciesCount),
      l(kSpeciesCount);
  m.compute_rates(298.0, 0.7, k);
  m.production_loss(c, k, p, l);
  double dn = 0.0, scale = 0.0;
  for (int s = 0; s < kSpeciesCount; ++s) {
    const double rate = p[s] - l[s] * c[s];
    dn += rate * nitrogen_atoms(static_cast<Species>(s));
    scale += std::abs(rate) * nitrogen_atoms(static_cast<Species>(s));
  }
  EXPECT_LT(std::abs(dn), 1e-10 * std::max(scale, 1e-30));
}

TEST(Mechanism, RejectsBadTemperature) {
  const Mechanism& m = Mechanism::cb4_condensed();
  std::vector<double> k(m.reaction_count());
  EXPECT_THROW(m.compute_rates(50.0, 0.5, k), Error);
}

// ------------------------------------------------------------ Young-Boris

TEST(YoungBoris, LinearDecayMatchesAnalytic) {
  // A mechanism with a single unary decay: c' = -k c.
  std::vector<Reaction> rs;
  Reaction r;
  r.label = "decay";
  r.reactants = {Species::CO};
  r.rate.kind = RateCoeff::Kind::Arrhenius;
  r.rate.a = 0.3;  // 1/min
  rs.push_back(r);
  Mechanism m(std::move(rs));

  std::vector<double> c(kSpeciesCount, 0.0);
  c[index_of(Species::CO)] = 2.0;
  YoungBorisSolver yb(m);
  yb.integrate(c, 10.0, 298.0, 0.5);
  EXPECT_NEAR(c[index_of(Species::CO)], 2.0 * std::exp(-3.0), 0.01);
}

TEST(YoungBoris, StiffRelaxationReachesEquilibrium) {
  // Source + very fast decay: equilibrium c* = S / k, reached instantly on
  // the integration timescale; the asymptotic branch must land on it.
  std::vector<Reaction> rs;
  Reaction r;
  r.label = "fastdecay";
  r.reactants = {Species::OH};
  r.rate.kind = RateCoeff::Kind::Arrhenius;
  r.rate.a = 1e6;  // 1/min: lifetime ~ 60 microseconds
  rs.push_back(r);
  Mechanism m(std::move(rs));

  std::vector<double> c(kSpeciesCount, 0.0);
  std::vector<double> src(kSpeciesCount, 0.0);
  src[index_of(Species::OH)] = 5.0;  // ppm/min
  YoungBorisSolver yb(m);
  const YoungBorisResult res = yb.integrate(c, 1.0, 298.0, 0.0, src);
  EXPECT_NEAR(c[index_of(Species::OH)], 5.0 / 1e6, 5e-8);
  // The stiff branch must not need microsecond substeps for this.
  EXPECT_LT(res.substeps, 200);
}

TEST(YoungBoris, ConservesNitrogenThroughFullMechanism) {
  std::vector<double> c = urban_state();
  const double n0 = total_nitrogen(c);
  const double s0 = total_sulfur(c);
  YoungBorisSolver yb(Mechanism::cb4_condensed());
  yb.integrate(c, 30.0, 298.0, 0.8);
  EXPECT_NEAR(total_nitrogen(c), n0, 2e-3 * n0);
  EXPECT_NEAR(total_sulfur(c), s0, 2e-3 * s0);
}

TEST(YoungBoris, StaysNonNegativeAndFinite) {
  std::vector<double> c = urban_state();
  YoungBorisSolver yb(Mechanism::cb4_condensed());
  for (int hour = 0; hour < 4; ++hour) {
    yb.integrate(c, 60.0, 296.0, hour % 2 == 0 ? 0.9 : 0.0);
    for (int s = 0; s < kSpeciesCount; ++s) {
      EXPECT_GE(c[s], 0.0) << species_name(s);
      EXPECT_TRUE(std::isfinite(c[s])) << species_name(s);
    }
  }
}

TEST(YoungBoris, AgreesWithQssaReferenceOnShortInterval) {
  // Cross-check against the independent semi-implicit reference at a fine
  // step; the hybrid scheme at default tolerance should land within ~10%
  // on the major species over 5 minutes.
  std::vector<double> c_yb = urban_state();
  std::vector<double> c_ref = urban_state();
  YoungBorisSolver yb(Mechanism::cb4_condensed());
  yb.integrate(c_yb, 5.0, 298.0, 0.8);
  qssa_integrate(Mechanism::cb4_condensed(), c_ref, 5.0, 100000, 298.0, 0.8);
  for (Species s : {Species::O3, Species::NO, Species::NO2, Species::CO,
                    Species::PAR, Species::FORM}) {
    EXPECT_LT(relative_error(c_yb[index_of(s)], c_ref[index_of(s)]), 0.12)
        << species_name(s) << " yb=" << c_yb[index_of(s)]
        << " ref=" << c_ref[index_of(s)];
  }
}

TEST(YoungBoris, DaytimePhotostationaryStateApproximatelyHolds) {
  // In sunlight the NO/NO2/O3 triad settles near J [NO2] = k [O3][NO].
  std::vector<double> c = urban_state();
  YoungBorisSolver yb(Mechanism::cb4_condensed());
  yb.integrate(c, 60.0, 298.0, 0.9);
  const double j = 0.533 * 0.9;
  const double k = 26.6;
  const double lhs = j * c[index_of(Species::NO2)];
  const double rhs =
      k * c[index_of(Species::O3)] * c[index_of(Species::NO)];
  EXPECT_LT(relative_error(lhs, rhs), 0.35)
      << "J*NO2=" << lhs << " k*O3*NO=" << rhs;
}

TEST(YoungBoris, DaytimeProducesOzoneFromPrecursors) {
  std::vector<double> c = urban_state();
  const double o3_start = c[index_of(Species::O3)];
  YoungBorisSolver yb(Mechanism::cb4_condensed());
  for (int i = 0; i < 4; ++i) yb.integrate(c, 60.0, 300.0, 0.9);
  EXPECT_GT(c[index_of(Species::O3)], o3_start)
      << "4 sunlit hours over precursor soup must build ozone";
}

TEST(YoungBoris, NightChemistryIsCheap) {
  std::vector<double> c = background_state();
  YoungBorisSolver yb(Mechanism::cb4_condensed());
  const YoungBorisResult day = yb.integrate(c, 10.0, 298.0, 0.9);
  const YoungBorisResult night = yb.integrate(c, 10.0, 288.0, 0.0);
  EXPECT_LT(night.corrector_evals, day.corrector_evals * 2)
      << "night stiffness should not explode";
  EXPECT_GT(night.work_flops, 0.0);
}

TEST(YoungBoris, SourceTermAccumulates) {
  std::vector<double> c = background_state();
  std::vector<double> src(kSpeciesCount, 0.0);
  src[index_of(Species::CO)] = 1e-3;  // ppm/min
  const double co0 = c[index_of(Species::CO)];
  YoungBorisSolver yb(Mechanism::cb4_condensed());
  yb.integrate(c, 30.0, 290.0, 0.0, src);
  // CO is long-lived: nearly all the injected mass remains.
  EXPECT_NEAR(c[index_of(Species::CO)], co0 + 0.03, 0.003);
}

TEST(YoungBoris, ZeroIntervalIsIdentity) {
  std::vector<double> c = urban_state();
  const std::vector<double> before = c;
  YoungBorisSolver yb(Mechanism::cb4_condensed());
  const YoungBorisResult r = yb.integrate(c, 0.0, 298.0, 0.5);
  EXPECT_EQ(c, before);
  EXPECT_EQ(r.substeps, 0);
}

TEST(YoungBoris, WorkScalesWithInterval) {
  std::vector<double> c1 = urban_state(), c2 = urban_state();
  YoungBorisSolver yb(Mechanism::cb4_condensed());
  const double w1 = yb.integrate(c1, 5.0, 298.0, 0.8).work_flops;
  const double w2 = yb.integrate(c2, 20.0, 298.0, 0.8).work_flops;
  EXPECT_GT(w2, w1);
}

TEST(YoungBoris, RejectsBadInputs) {
  YoungBorisSolver yb(Mechanism::cb4_condensed());
  std::vector<double> small(3, 0.0);
  EXPECT_THROW(yb.integrate(small, 1.0, 298.0, 0.5), Error);
  std::vector<double> c = background_state();
  EXPECT_THROW(yb.integrate(c, -1.0, 298.0, 0.5), Error);
}

// ---------------------------------------------------------- reference RK4

TEST(ReferenceIntegrators, Rk4MatchesAnalyticLinearDecay) {
  std::vector<Reaction> rs;
  Reaction r;
  r.label = "decay";
  r.reactants = {Species::CO};
  r.rate.kind = RateCoeff::Kind::Arrhenius;
  r.rate.a = 0.2;
  rs.push_back(r);
  Mechanism m(std::move(rs));
  std::vector<double> c(kSpeciesCount, 0.0);
  c[index_of(Species::CO)] = 1.0;
  rk4_integrate(m, c, 10.0, 200, 298.0, 0.0);
  EXPECT_NEAR(c[index_of(Species::CO)], std::exp(-2.0), 1e-7);
}

TEST(ReferenceIntegrators, QssaConvergesWithStepRefinement) {
  std::vector<double> coarse = urban_state(), fine = urban_state(),
                      finer = urban_state();
  const Mechanism& m = Mechanism::cb4_condensed();
  qssa_integrate(m, coarse, 2.0, 2000, 298.0, 0.8);
  qssa_integrate(m, fine, 2.0, 20000, 298.0, 0.8);
  qssa_integrate(m, finer, 2.0, 200000, 298.0, 0.8);
  const double e1 =
      relative_error(coarse[index_of(Species::O3)], finer[index_of(Species::O3)]);
  const double e2 =
      relative_error(fine[index_of(Species::O3)], finer[index_of(Species::O3)]);
  EXPECT_LT(e2, e1);  // refinement reduces error (first-order convergence)
}

}  // namespace
}  // namespace airshed
