// Tests for the LICOM-mini ocean: split time stepping, conservation and
// stability invariants, Canuto mixing behaviour, the §5.2.2 exclusion
// (identical results, ~30 % fewer column iterations), execution-space
// bitwise equivalence (§5.3), mixed precision (§5.2.3), and the coupler
// contract.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "base/constants.hpp"
#include "base/stats.hpp"
#include "ocn/model.hpp"
#include "par/comm.hpp"

namespace {

using namespace ap3;
using namespace ap3::ocn;

OcnConfig small_config() {
  OcnConfig config;
  config.grid = grid::TripolarConfig{48, 36, 8};
  return config;
}

TEST(OcnConfig, SplitRatioMatchesPaper) {
  const OcnConfig config = small_config();
  // §6.1: barotropic 2 s, baroclinic 20 s, tracer 20 s.
  EXPECT_EQ(config.barotropic_substeps, 10);
  EXPECT_NEAR(config.baroclinic_dt_seconds() / config.barotropic_dt_seconds(),
              10.0, 1e-9);
  EXPECT_DOUBLE_EQ(config.tracer_dt_seconds(), config.baroclinic_dt_seconds());
}

TEST(Ocn, InitialStateSane) {
  par::run(2, [](par::Comm& comm) {
    OcnModel model(comm, small_config());
    EXPECT_GT(model.mean_sst(), 5.0);
    EXPECT_LT(model.mean_sst(), 30.0);
    EXPECT_EQ(model.max_current(), 0.0);
    EXPECT_EQ(model.max_eta(), 0.0);
  });
}

TEST(Ocn, VolumeConservedToRoundoff) {
  par::run(4, [](par::Comm& comm) {
    OcnConfig config = small_config();
    OcnModel model(comm, config);
    // Kick with wind stress to create flow.
    mct::AttrVect x2o(OcnModel::import_fields(), model.ocean_gids().size());
    for (auto& t : x2o.field("taux")) t = 0.1;
    model.import_state(x2o);
    const double window = config.baroclinic_dt_seconds() * 10;
    model.run(0.0, window);
    EXPECT_GT(model.max_current(), 0.0);
    // Σ eta·A — barotropic flux form conserves it exactly up to roundoff
    // relative to total flux magnitudes.
    EXPECT_LT(std::abs(model.total_volume()), 1e3);  // m³, vs ~1e12 moved
  });
}

TEST(Ocn, StableUnderWindForcing) {
  par::run(2, [](par::Comm& comm) {
    OcnConfig config = small_config();
    OcnModel model(comm, config);
    mct::AttrVect x2o(OcnModel::import_fields(), model.ocean_gids().size());
    for (auto& t : x2o.field("taux")) t = 0.2;
    for (auto& t : x2o.field("tauy")) t = 0.05;
    model.import_state(x2o);
    model.run(0.0, config.baroclinic_dt_seconds() * 50);
    EXPECT_TRUE(std::isfinite(model.max_current()));
    EXPECT_LT(model.max_current(), 5.0);  // no blow-up
    EXPECT_LT(model.max_eta(), 10.0);
  });
}

TEST(Ocn, HeatConservedWithoutSurfaceFlux) {
  par::run(2, [](par::Comm& comm) {
    OcnConfig config = small_config();
    OcnModel model(comm, config);
    const double heat0 = model.total_heat_content();
    mct::AttrVect x2o(OcnModel::import_fields(), model.ocean_gids().size());
    for (auto& t : x2o.field("taux")) t = 0.1;
    model.import_state(x2o);
    model.run(0.0, config.baroclinic_dt_seconds() * 20);
    const double heat1 = model.total_heat_content();
    // Advective-form transport conserves heat approximately; mixing is
    // exactly conservative. Allow small advective-form drift.
    EXPECT_NEAR(heat1 / heat0, 1.0, 5e-3);
  });
}

TEST(Ocn, SurfaceHeatingWarmsSst) {
  par::run(1, [](par::Comm& comm) {
    OcnConfig config = small_config();
    OcnModel model(comm, config);
    const double sst0 = model.mean_sst();
    mct::AttrVect x2o(OcnModel::import_fields(), model.ocean_gids().size());
    for (auto& q : x2o.field("qnet")) q = 500.0;  // strong heating
    model.import_state(x2o);
    model.run(0.0, config.baroclinic_dt_seconds() * 20);
    EXPECT_GT(model.mean_sst(), sst0);
  });
}

TEST(Ocn, FreshwaterFreshensSurface) {
  par::run(1, [](par::Comm& comm) {
    OcnConfig config = small_config();
    OcnModel model(comm, config);
    double s0 = 0.0;
    int count = 0;
    for (int j = 0; j < model.ny_local(); ++j)
      for (int i = 0; i < model.nx_local(); ++i)
        if (model.is_ocean_local(i, j)) {
          s0 += model.salt(i, j, 0);
          ++count;
        }
    s0 /= count;
    mct::AttrVect x2o(OcnModel::import_fields(), model.ocean_gids().size());
    for (auto& f : x2o.field("fresh")) f = 1e-4;  // heavy rain
    model.import_state(x2o);
    model.run(0.0, config.baroclinic_dt_seconds() * 20);
    double s1 = 0.0;
    for (int j = 0; j < model.ny_local(); ++j)
      for (int i = 0; i < model.nx_local(); ++i)
        if (model.is_ocean_local(i, j)) s1 += model.salt(i, j, 0);
    s1 /= count;
    EXPECT_LT(s1, s0);
  });
}

TEST(Ocn, SerialAndParallelBitwiseIdentical) {
  const OcnConfig config = small_config();
  auto run_case = [&](int nranks) {
    static std::vector<double> sst;
    sst.assign(static_cast<size_t>(config.grid.nx * config.grid.ny), -999.0);
    static std::mutex mutex;
    par::run(nranks, [&](par::Comm& comm) {
      OcnModel model(comm, config);
      mct::AttrVect x2o(OcnModel::import_fields(), model.ocean_gids().size());
      for (auto& t : x2o.field("taux")) t = 0.15;
      model.import_state(x2o);
      model.run(0.0, config.baroclinic_dt_seconds() * 5);
      std::lock_guard<std::mutex> lock(mutex);
      std::size_t col = 0;
      for (auto gid : model.ocean_gids()) {
        const int i = static_cast<int>(gid % config.grid.nx) - model.x0();
        const int j = static_cast<int>(gid / config.grid.nx) - model.y0();
        sst[static_cast<size_t>(gid)] = model.temp(i, j, 0);
        ++col;
      }
    });
    return sst;
  };
  const std::vector<double> serial = run_case(1);
  const std::vector<double> parallel = run_case(4);
  for (size_t g = 0; g < serial.size(); ++g)
    EXPECT_EQ(serial[g], parallel[g]) << "gid " << g;
}

TEST(Ocn, ExclusionBitwiseIdenticalAndCheaper) {
  // §5.2.2: removing 3-D non-ocean points must not change results and must
  // remove ~30 % of the column iterations.
  const OcnConfig base = small_config();
  auto run_case = [&](bool exclude) {
    struct Result {
      std::vector<double> sst;
      long long iterations;
    };
    static Result result;
    par::run(1, [&](par::Comm& comm) {
      OcnConfig config = base;
      config.exclude_non_ocean = exclude;
      OcnModel model(comm, config);
      mct::AttrVect x2o(OcnModel::import_fields(), model.ocean_gids().size());
      for (auto& t : x2o.field("taux")) t = 0.1;
      model.import_state(x2o);
      model.run(0.0, config.baroclinic_dt_seconds() * 5);
      result.sst.clear();
      for (auto gid : model.ocean_gids()) {
        const int i = static_cast<int>(gid % config.grid.nx);
        const int j = static_cast<int>(gid / config.grid.nx);
        result.sst.push_back(model.temp(i, j, 0));
      }
      result.iterations = model.column_iterations();
    });
    return result;
  };
  const auto baseline = run_case(false);
  const auto excluded = run_case(true);
  ASSERT_EQ(baseline.sst.size(), excluded.sst.size());
  for (size_t k = 0; k < baseline.sst.size(); ++k)
    EXPECT_EQ(baseline.sst[k], excluded.sst[k]);
  const double saved = 1.0 - static_cast<double>(excluded.iterations) /
                                 static_cast<double>(baseline.iterations);
  EXPECT_GT(saved, 0.15);
  EXPECT_LT(saved, 0.45);
}

TEST(Ocn, ExecSpacesBitwiseIdentical) {
  // §5.3 performance portability: Serial and HostThreads execution spaces
  // must produce identical trajectories.
  const OcnConfig base = small_config();
  auto run_case = [&](pp::ExecSpace space) {
    static std::vector<double> sst;
    par::run(1, [&](par::Comm& comm) {
      OcnConfig config = base;
      config.exec_space = space;
      OcnModel model(comm, config);
      mct::AttrVect x2o(OcnModel::import_fields(), model.ocean_gids().size());
      for (auto& t : x2o.field("tauy")) t = 0.12;
      model.import_state(x2o);
      model.run(0.0, config.baroclinic_dt_seconds() * 5);
      sst.clear();
      for (auto gid : model.ocean_gids()) {
        const int i = static_cast<int>(gid % config.grid.nx);
        const int j = static_cast<int>(gid / config.grid.nx);
        sst.push_back(model.temp(i, j, 0));
      }
    });
    return sst;
  };
  const auto serial = run_case(pp::ExecSpace::kSerial);
  const auto threaded = run_case(pp::ExecSpace::kHostThreads);
  EXPECT_EQ(serial, threaded);
}

TEST(Ocn, MixedPrecisionWithinLicomRmsdBand) {
  // §5.2.3: 30-day-style comparison — here a shorter window — with the
  // area-weighted RMSD acceptance metric. Paper values: 0.018 °C for T.
  const OcnConfig base = small_config();
  auto run_case = [&](bool mixed) {
    static std::vector<double> sst, area;
    par::run(1, [&](par::Comm& comm) {
      OcnConfig config = base;
      config.mixed_precision = mixed;
      OcnModel model(comm, config);
      mct::AttrVect x2o(OcnModel::import_fields(), model.ocean_gids().size());
      for (auto& t : x2o.field("taux")) t = 0.1;
      model.import_state(x2o);
      model.run(0.0, config.baroclinic_dt_seconds() * 30);
      sst.clear();
      area.clear();
      for (auto gid : model.ocean_gids()) {
        const int i = static_cast<int>(gid % config.grid.nx);
        const int j = static_cast<int>(gid / config.grid.nx);
        sst.push_back(model.temp(i, j, 0));
        area.push_back(model.ocean_grid().cell_area(i, j));
      }
    });
    return std::make_pair(sst, area);
  };
  const auto [fp64, area] = run_case(false);
  const auto [mixed, area2] = run_case(true);
  const double rmsd = stats::weighted_rmsd(mixed, fp64, area);
  EXPECT_GT(rmsd, 0.0);      // mixed precision actually engaged
  EXPECT_LT(rmsd, 0.018);    // within the paper's reported band
}

TEST(Ocn, HaloMessagesPerBaroclinicStepAreBatched) {
  // Per baroclinic step each rank makes two batched exchanges per
  // barotropic substep (eta/ubar/vbar, then eta) and one carrying every
  // tracer-step level. At 2 ranks each exchange is 3 messages per rank:
  // west, east, and one south/north or fold peer. Per-field exchanges would
  // multiply the count.
  const OcnConfig config = small_config();
  par::run(2, [&](par::Comm& comm) {
    OcnModel model(comm, config);
    comm.barrier();
    const std::uint64_t before = comm.world().traffic().messages;
    comm.barrier();
    model.run(0.0, config.baroclinic_dt_seconds());
    comm.barrier();
    const std::uint64_t sent = comm.world().traffic().messages - before;
    const auto per_rank =
        static_cast<std::uint64_t>(3 * (2 * config.barotropic_substeps + 1));
    EXPECT_EQ(sent, 2 * per_rank);
  });
}

TEST(Ocn, FoldCornerGhostsStayUntouched) {
  // The halo never fills the corner ghosts, so the fold-sign flip must not
  // touch them either: after a step (odd number of flips per level) the
  // checkpointed u/v corners still hold their initial +0.0, bit for bit.
  const OcnConfig config = small_config();
  par::run(2, [&](par::Comm& comm) {
    OcnModel model(comm, config);
    mct::AttrVect x2o(OcnModel::import_fields(), model.ocean_gids().size());
    for (auto& t : x2o.field("taux")) t = 0.1;
    model.import_state(x2o);
    model.run(0.0, config.baroclinic_dt_seconds());
    if (model.y0() + model.ny_local() != config.grid.ny) return;
    const std::size_t slots = static_cast<std::size_t>(
        (model.nx_local() + 2) * (model.ny_local() + 2));
    for (const io::Section& section : model.checkpoint_sections()) {
      if (section.name != "ocn.u" && section.name != "ocn.v") continue;
      for (int k = 0; k < config.grid.nz; ++k)
        for (int i : {-1, model.nx_local()}) {
          const double corner =
              section.data.values[static_cast<std::size_t>(k) * slots +
                                  model.field_index(i, model.ny_local())];
          EXPECT_EQ(std::bit_cast<std::uint64_t>(corner), 0u)
              << section.name << " level " << k << " corner i=" << i;
        }
    }
  });
}

TEST(Ocn, ColumnStateHashMatchesRecordedTrajectory) {
  // Golden value recorded with per-field halo exchanges and per-cell column
  // lookups: batching and hoisting must not move a bit, at any rank count.
  constexpr std::uint64_t kRecorded = 17586619503789773221ULL;
  const OcnConfig config = small_config();
  for (int nranks : {1, 2, 4}) {
    par::run(nranks, [&](par::Comm& comm) {
      OcnModel model(comm, config);
      mct::AttrVect x2o(OcnModel::import_fields(), model.ocean_gids().size());
      auto taux = x2o.field("taux");
      auto tauy = x2o.field("tauy");
      auto qnet = x2o.field("qnet");
      for (std::size_t c = 0; c < model.ocean_gids().size(); ++c) {
        const double g = static_cast<double>(model.ocean_gids()[c]);
        taux[c] = 0.15 * std::sin(0.37 * g);
        tauy[c] = 0.05 * std::cos(0.11 * g);
        qnet[c] = 80.0 * std::sin(0.05 * g);
      }
      model.import_state(x2o);
      model.run(0.0, config.baroclinic_dt_seconds() * 3);
      EXPECT_GT(model.max_current(), 0.0);
      const std::uint64_t hash =
          comm.allreduce_value(model.column_state_hash(), par::ReduceOp::kSum);
      EXPECT_EQ(hash, kRecorded) << nranks << " ranks";
    });
  }
}

TEST(Ocn, ExportImportContract) {
  par::run(2, [](par::Comm& comm) {
    OcnConfig config = small_config();
    OcnModel model(comm, config);
    mct::AttrVect o2x(OcnModel::export_fields(), model.ocean_gids().size());
    model.export_state(o2x);
    for (double sst : o2x.field("sst")) {
      EXPECT_GT(sst, 270.0);  // Kelvin
      EXPECT_LT(sst, 310.0);
    }
    EXPECT_EQ(model.gsmap().local_size(comm.rank()),
              static_cast<std::int64_t>(model.ocean_gids().size()));
  });
}

TEST(Ocn, GsmapCoversOnlyOceanPoints) {
  par::run(2, [](par::Comm& comm) {
    OcnModel model(comm, small_config());
    for (auto gid : model.ocean_gids()) {
      const int i = static_cast<int>(gid % model.config().grid.nx);
      const int j = static_cast<int>(gid / model.config().grid.nx);
      EXPECT_GT(model.ocean_grid().kmt(i, j), 0);
    }
  });
}

TEST(Canuto, StableColumnGetsBackgroundMixing) {
  CanutoMixing canuto;
  // Strongly stratified, no shear: Ri >> 1 -> kv ~ background.
  std::vector<double> t = {25.0, 15.0, 8.0, 4.0};
  std::vector<double> s = {35.0, 35.0, 35.0, 35.0};
  std::vector<double> zero(4, 0.0);
  std::vector<double> dz = {50.0, 100.0, 200.0};
  std::vector<double> kv(3);
  canuto.diffusivities({t, s, zero, zero, dz, 4}, kv);
  for (double k : kv) {
    EXPECT_GT(k, 0.9e-5);
    EXPECT_LT(k, 1e-4);
  }
}

TEST(Canuto, UnstableColumnConvects) {
  CanutoMixing canuto;
  // Cold over warm: statically unstable -> convective diffusivity.
  std::vector<double> t = {2.0, 10.0, 15.0, 20.0};
  std::vector<double> s(4, 35.0);
  std::vector<double> zero(4, 0.0);
  std::vector<double> dz = {50.0, 100.0, 200.0};
  std::vector<double> kv(3);
  canuto.diffusivities({t, s, zero, zero, dz, 4}, kv);
  for (double k : kv) EXPECT_DOUBLE_EQ(k, 0.1);
}

TEST(Canuto, ShearEnhancesMixing) {
  CanutoMixing canuto;
  std::vector<double> t = {25.0, 15.0, 8.0, 4.0};
  std::vector<double> s(4, 35.0);
  std::vector<double> no_shear(4, 0.0);
  std::vector<double> sheared = {1.0, 0.5, 0.1, 0.0};
  std::vector<double> dz = {50.0, 100.0, 200.0};
  std::vector<double> kv_calm(3), kv_shear(3);
  canuto.diffusivities({t, s, no_shear, no_shear, dz, 4}, kv_calm);
  canuto.diffusivities({t, s, sheared, no_shear, dz, 4}, kv_shear);
  EXPECT_GT(kv_shear[0], kv_calm[0]);
}

TEST(Canuto, SeafloorInterfacesZero) {
  CanutoMixing canuto;
  std::vector<double> t(6, 10.0), s(6, 35.0), zero(6, 0.0);
  std::vector<double> dz(5, 100.0);
  std::vector<double> kv(5);
  canuto.diffusivities({t, s, zero, zero, dz, 3}, kv);  // kmt = 3
  EXPECT_GT(kv[0], 0.0);
  EXPECT_GT(kv[1], 0.0);
  EXPECT_EQ(kv[2], 0.0);
  EXPECT_EQ(kv[3], 0.0);
  EXPECT_EQ(kv[4], 0.0);
}

TEST(Canuto, RichardsonSigns) {
  CanutoMixing canuto;
  EXPECT_GT(canuto.richardson(0.01, 0.001, 0.0), 0.0);   // stable
  EXPECT_LT(canuto.richardson(-0.01, 0.001, 0.0), 0.0);  // unstable
}

}  // namespace
