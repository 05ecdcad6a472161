// Tests for the GRIST-mini atmosphere: dycore invariants (mass/tracer
// conservation, stability, geostrophic response), sub-stepping ratios,
// conventional physics behaviour, AI-suite integration through the
// physics–dynamics interface, vortex seeding/tracking, and the MCT-style
// export/import contract.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "atm/model.hpp"
#include "pp/swgomp.hpp"
#include "atm/physics.hpp"
#include "atm/vortex.hpp"
#include "base/constants.hpp"
#include "base/hash.hpp"
#include "obs/obs.hpp"
#include "par/comm.hpp"

namespace {

using namespace ap3;
using namespace ap3::atm;

AtmConfig small_config() {
  AtmConfig config;
  config.mesh_n = 6;  // 720 cells
  config.nlev = 8;
  return config;
}

TEST(AtmConfig, SubstepRatiosMatchPaper) {
  const AtmConfig config;
  // §6.1: dycore 8 s, tracer 30 s, model 120 s — ratios 15 and 4.
  EXPECT_EQ(config.dycore_substeps, 15);
  EXPECT_EQ(config.tracer_substeps, 4);
  EXPECT_NEAR(config.model_dt_seconds() / config.dycore_dt_seconds(), 15.0,
              1e-9);
}

TEST(AtmConfig, DtScalesWithResolution) {
  AtmConfig coarse;
  coarse.mesh_n = 4;
  AtmConfig fine;
  fine.mesh_n = 8;
  EXPECT_NEAR(coarse.dycore_dt_seconds() / fine.dycore_dt_seconds(), 2.0, 1e-9);
}

TEST(Dycore, MassConservedAcrossRanksToRoundoff) {
  par::run(4, [](par::Comm& comm) {
    const AtmConfig config = small_config();
    grid::IcosahedralGrid mesh(config.mesh_n);
    Dycore dycore(comm, config, mesh);
    seed_vortex(dycore, VortexSpec{});  // non-trivial flow
    const double mass0 = dycore.total_mass();
    for (int i = 0; i < 30; ++i) dycore.step_dynamics(config.dycore_dt_seconds());
    const double mass1 = dycore.total_mass();
    EXPECT_NEAR(mass1 / mass0, 1.0, 1e-12);
  });
}

TEST(Dycore, ConstantTracerStaysConstant) {
  par::run(2, [](par::Comm& comm) {
    const AtmConfig config = small_config();
    grid::IcosahedralGrid mesh(config.mesh_n);
    Dycore dycore(comm, config, mesh);
    // Overwrite tracers with constants; advective form must preserve them.
    for (double& t : dycore.state().temp) t = 273.0;
    for (double& q : dycore.state().q) q = 0.004;
    seed_vortex(dycore, VortexSpec{});
    for (int i = 0; i < 5; ++i) {
      dycore.step_dynamics(config.dycore_dt_seconds());
      dycore.step_tracers(config.tracer_dt_seconds());
    }
    for (std::size_t c = 0; c < dycore.mesh().num_owned(); ++c) {
      EXPECT_NEAR(dycore.state().temp[dycore.state().tq(c, 0)], 273.0, 1e-9);
      EXPECT_NEAR(dycore.state().q[dycore.state().tq(c, 3)], 0.004, 1e-12);
    }
  });
}

TEST(Dycore, RestStateStaysAtRest) {
  par::run(1, [](par::Comm& comm) {
    const AtmConfig config = small_config();
    grid::IcosahedralGrid mesh(config.mesh_n);
    Dycore dycore(comm, config, mesh);
    for (int i = 0; i < 20; ++i) dycore.step_dynamics(config.dycore_dt_seconds());
    EXPECT_LT(dycore.max_wind(), 1e-10);
    EXPECT_LT(dycore.max_h_deviation(), 1e-10);
  });
}

TEST(Dycore, GravityWaveStaysStableAndBounded) {
  par::run(2, [](par::Comm& comm) {
    AtmConfig config = small_config();
    grid::IcosahedralGrid mesh(config.mesh_n);
    Dycore dycore(comm, config, mesh);
    VortexSpec bump;
    bump.depression_m = 40.0;
    bump.max_wind_ms = 0.0;  // pure height perturbation
    seed_vortex(dycore, bump);
    for (int i = 0; i < 200; ++i) dycore.step_dynamics(config.dycore_dt_seconds());
    EXPECT_LT(dycore.max_h_deviation(), 80.0);  // no blow-up
    EXPECT_LT(dycore.max_wind(), 30.0);
    EXPECT_TRUE(std::isfinite(dycore.max_wind()));
  });
}

TEST(Dycore, SerialAndParallelBitwiseIdentical) {
  // Bit-for-bit validation across decompositions — the paper's correctness
  // criterion for the coupled engineering work. Tracers ride the same winds,
  // so their owned values must match by global id too.
  const AtmConfig config = small_config();
  const std::size_t ncells = 20 * 6 * 6;
  const std::size_t nlev = static_cast<std::size_t>(config.nlev);
  static std::vector<double> h, temp, q;
  static std::mutex mutex;
  auto run_case = [&](int nranks) {
    h.assign(ncells, 0.0);
    temp.assign(ncells * nlev, 0.0);
    q.assign(ncells * nlev, 0.0);
    par::run(nranks, [&](par::Comm& comm) {
      grid::IcosahedralGrid mesh(config.mesh_n);
      Dycore dycore(comm, config, mesh);
      seed_vortex(dycore, VortexSpec{});
      const std::vector<double> temp0 = dycore.state().temp;
      for (int i = 0; i < 10; ++i) {
        dycore.step_dynamics(config.dycore_dt_seconds());
        if (i % 3 == 2) dycore.step_tracers(config.tracer_dt_seconds());
      }
      const DycoreState& state = dycore.state();
      // The vortex winds really advect the tracers on every rank.
      std::size_t moved = 0;
      for (std::size_t i = 0; i < dycore.mesh().num_owned() * nlev; ++i)
        moved += state.temp[i] != temp0[i];
      EXPECT_GT(moved, 0u);
      std::lock_guard<std::mutex> lock(mutex);
      for (std::size_t c = 0; c < dycore.mesh().num_owned(); ++c) {
        const auto gid = static_cast<std::size_t>(dycore.mesh().global_id(c));
        h[gid] = state.h[c];
        for (std::size_t k = 0; k < nlev; ++k) {
          temp[gid * nlev + k] = state.temp[state.tq(c, k)];
          q[gid * nlev + k] = state.q[state.tq(c, k)];
        }
      }
    });
    return std::array<std::vector<double>, 3>{h, temp, q};
  };
  const auto serial = run_case(1);
  const auto parallel = run_case(3);
  const char* names[] = {"h", "temp", "q"};
  for (std::size_t f = 0; f < 3; ++f) {
    ASSERT_EQ(serial[f].size(), parallel[f].size());
    for (std::size_t i = 0; i < serial[f].size(); ++i)
      ASSERT_EQ(serial[f][i], parallel[f][i]) << names[f] << " index " << i;
  }
}

TEST(Physics, ConventionalCondensesSupersaturation) {
  ConventionalPhysics physics;
  ColumnBatch batch(1, 8);
  for (std::size_t k = 0; k < 8; ++k) {
    batch.temp[k] = 280.0;
    batch.q[k] = 0.05;  // far above qsat(280) ~ 0.0087
  }
  physics.compute(batch);
  EXPECT_GT(batch.precip[0], 0.0);
  // Condensation dries and warms.
  EXPECT_LT(batch.dq[4], 0.0);
  EXPECT_GT(batch.dtemp[4], 0.0);
}

TEST(Physics, ConvectiveAdjustmentRemovesInstability) {
  ConventionalPhysics physics;
  ColumnBatch batch(1, 4);
  batch.q.assign(4, 0.0);
  batch.temp = {200.0, 230.0, 260.0, 295.0};  // super-adiabatic stack
  physics.compute(batch);
  // Heat moves from the lower member of each unstable pair to the upper.
  EXPECT_GT(batch.dtemp[0], 0.0);
  EXPECT_LT(batch.dtemp[3], 0.0);
}

TEST(Physics, RadiationRespondsToSun) {
  ConventionalPhysics physics;
  ColumnBatch day(1, 8), night(1, 8);
  day.coszr[0] = 1.0;
  night.coszr[0] = 0.0;
  physics.compute(day);
  physics.compute(night);
  EXPECT_GT(day.gsw[0], 300.0);
  EXPECT_EQ(night.gsw[0], 0.0);
  EXPECT_GT(night.glw[0], 100.0);  // longwave continues at night
}

TEST(Physics, QsatIncreasesWithTemperature) {
  ConventionalPhysics physics;
  EXPECT_GT(physics.qsat(300.0), physics.qsat(280.0));
  EXPECT_GT(physics.qsat(280.0), physics.qsat(250.0));
}

TEST(Physics, TrainedAiSuiteApproximatesConventional) {
  // End-to-end §5.2.1 pipeline: generate conventional-physics truth, train
  // the AI suite with the paper's split, verify skill, then run it behind
  // the physics–dynamics interface.
  ConventionalPhysics conventional;
  const std::size_t nlev = 10;
  const TrainingData data = generate_training_data(conventional, 16, 8, nlev, 7);

  ai::SuiteConfig config;
  config.levels = static_cast<int>(nlev);
  config.cnn_hidden = 12;
  config.mlp_hidden = 32;
  const TrainedSuite trained = train_ai_physics(data, config, 12, 3e-3f);
  EXPECT_GT(trained.tendency_r2, 0.25f);
  EXPECT_GT(trained.flux_r2, 0.6f);

  // Inference through the interface on fresh columns.
  AiPhysics ai_physics(trained.suite);
  ColumnBatch batch(4, nlev);
  for (std::size_t c = 0; c < 4; ++c) {
    batch.tskin[c] = 290.0;
    batch.coszr[c] = 0.6;
    for (std::size_t k = 0; k < nlev; ++k) {
      const double depth = (k + 1.0) / static_cast<double>(nlev);
      batch.temp[batch.at(c, k)] = 215.0 + 75.0 * depth;
      batch.q[batch.at(c, k)] = 0.01 * depth;
      batch.pressure[batch.at(c, k)] = 1e5 * depth;
    }
  }
  ai_physics.compute(batch);
  // Fluxes must come out in physical magnitudes.
  EXPECT_GT(batch.gsw[0], 50.0);
  EXPECT_LT(batch.gsw[0], 1400.0);
  EXPECT_GT(batch.glw[0], 100.0);
  for (double v : batch.dtemp) EXPECT_TRUE(std::isfinite(v));
}

TEST(Vortex, SeedCreatesDepressionAndCyclone) {
  par::run(1, [](par::Comm& comm) {
    const AtmConfig config = small_config();
    grid::IcosahedralGrid mesh(config.mesh_n);
    Dycore dycore(comm, config, mesh);
    VortexSpec spec;
    spec.lon_deg = 130.0;
    spec.lat_deg = 18.0;
    seed_vortex(dycore, spec);
    const VortexFix fix = track_vortex(dycore, comm, 130.0, 18.0, 1500.0);
    ASSERT_TRUE(fix.found);
    EXPECT_LT(fix.min_h_m, config.mean_depth_m - 10.0);
    EXPECT_GT(fix.max_wind_ms, 10.0);
    EXPECT_NEAR(fix.lon_deg, 130.0, 15.0);
    EXPECT_NEAR(fix.lat_deg, 18.0, 15.0);
  });
}

TEST(Vortex, NorthernHemisphereIsCyclonic) {
  par::run(1, [](par::Comm& comm) {
    const AtmConfig config = small_config();
    grid::IcosahedralGrid mesh(config.mesh_n);
    Dycore dycore(comm, config, mesh);
    VortexSpec spec;
    spec.lon_deg = 140.0;
    spec.lat_deg = 20.0;
    seed_vortex(dycore, spec);
    // Positive relative vorticity at the core in the NH.
    const auto vorticity = dycore.relative_vorticity();
    double core_vort = 0.0;
    double best = 1e300;
    for (std::size_t c = 0; c < dycore.mesh().num_owned(); ++c) {
      const double d = track_distance_km(
          140.0, 20.0, dycore.mesh().lon_rad(c) * constants::kRadToDeg,
          dycore.mesh().lat_rad(c) * constants::kRadToDeg);
      if (d < best) {
        best = d;
        core_vort = vorticity[c];
      }
    }
    EXPECT_GT(core_vort, 0.0);
  });
}

TEST(Vortex, IntensityCategoriesMonotone) {
  EXPECT_EQ(intensity_category(20.0), 0);
  EXPECT_EQ(intensity_category(35.0), 1);
  EXPECT_EQ(intensity_category(75.0), 5);
  for (double w = 10.0; w < 80.0; w += 5.0)
    EXPECT_LE(intensity_category(w), intensity_category(w + 5.0));
}

TEST(Model, RunAdvancesWholeSteps) {
  par::run(2, [](par::Comm& comm) {
    const AtmConfig config = small_config();
    grid::IcosahedralGrid mesh(config.mesh_n);
    AtmModel model(comm, config, mesh);
    const double dt = config.model_dt_seconds();
    model.run(0.0, 3.0 * dt);
    EXPECT_EQ(model.model_steps(), 3);
    EXPECT_THROW(model.run(0.0, 1.5 * dt), ap3::Error);
  });
}

TEST(Model, ExportImportContract) {
  par::run(2, [](par::Comm& comm) {
    const AtmConfig config = small_config();
    grid::IcosahedralGrid mesh(config.mesh_n);
    AtmModel model(comm, config, mesh);
    model.run(0.0, config.model_dt_seconds());

    mct::AttrVect a2x(AtmModel::export_fields(),
                      model.dycore().mesh().num_owned());
    model.export_state(a2x);
    // Physical sanity of exported fields.
    for (double ps : a2x.field("ps")) {
      EXPECT_GT(ps, 5.0e4);
      EXPECT_LT(ps, 1.5e5);
    }
    for (double t : a2x.field("tbot")) {
      EXPECT_GT(t, 180.0);
      EXPECT_LT(t, 340.0);
    }

    // Import warms ocean cells.
    mct::AttrVect x2a(AtmModel::import_fields(),
                      model.dycore().mesh().num_owned());
    for (auto& sst : x2a.field("sst")) sst = 305.0;
    model.import_state(x2a);
    bool any_ocean = false;
    for (std::size_t c = 0; c < model.dycore().mesh().num_owned(); ++c) {
      if (!model.is_land(c)) {
        any_ocean = true;
        model.run(config.model_dt_seconds(), config.model_dt_seconds());
        EXPECT_NEAR(model.tskin(c), 305.0, 1e-9);
        break;
      }
    }
    (void)any_ocean;
  });
}

TEST(Model, SstImportRejectsSentinelsAndClampsToPhysicalRange) {
  par::run(1, [](par::Comm& comm) {
    const AtmConfig config = small_config();
    grid::IcosahedralGrid mesh(config.mesh_n);
    AtmModel model(comm, config, mesh);
    const std::size_t n = model.dycore().mesh().num_owned();
    std::size_t ocean = n;
    for (std::size_t c = 0; c < n; ++c)
      if (!model.is_land(c)) {
        ocean = c;
        break;
      }
    ASSERT_LT(ocean, n);

    mct::AttrVect x2a(AtmModel::import_fields(), n);
    for (auto& s : x2a.field("sst")) s = 300.0;
    model.import_state(x2a);
    EXPECT_DOUBLE_EQ(model.sst(ocean), 300.0);

    const double rejected_before =
        obs::local().counter("atm:import:sst_rejected");

    // A fill-value sentinel (unmapped source cell) must not overwrite the
    // cached SST — the old code left sst_ stale silently; now it is counted.
    x2a.field("sst")[ocean] = 150.0;
    model.import_state(x2a);
    EXPECT_DOUBLE_EQ(model.sst(ocean), 300.0);
    EXPECT_GT(obs::local().counter("atm:import:sst_rejected"),
              rejected_before);

    // Cold-but-real values clamp to the seawater freezing point...
    x2a.field("sst")[ocean] = 250.0;
    model.import_state(x2a);
    EXPECT_DOUBLE_EQ(model.sst(ocean),
                     constants::kSeawaterFreeze + constants::kT0);

    // ...and hot outliers clamp to the upper physical bound.
    x2a.field("sst")[ocean] = 400.0;
    model.import_state(x2a);
    EXPECT_DOUBLE_EQ(model.sst(ocean), 320.0);
  });
}

TEST(Model, LandAndOceanCellsBothExist) {
  par::run(1, [](par::Comm& comm) {
    const AtmConfig config = small_config();
    grid::IcosahedralGrid mesh(config.mesh_n);
    AtmModel model(comm, config, mesh);
    std::size_t land = 0, ocean = 0;
    for (std::size_t c = 0; c < model.dycore().mesh().num_owned(); ++c)
      (model.is_land(c) ? land : ocean)++;
    EXPECT_GT(land, 0u);
    EXPECT_GT(ocean, 0u);
    EXPECT_GT(ocean, land);  // ~71 % ocean
  });
}

TEST(Model, CosZenithDayNightCycle) {
  par::run(1, [](par::Comm& comm) {
    const AtmConfig config = small_config();
    grid::IcosahedralGrid mesh(config.mesh_n);
    AtmModel model(comm, config, mesh);
    // Over a full day, every cell must see both day and night.
    for (std::size_t c = 0; c < 5; ++c) {
      double max_mu = 0.0, min_mu = 1.0;
      for (int hour = 0; hour < 24; ++hour) {
        const double mu = model.cos_zenith(c, hour * 3600.0);
        max_mu = std::max(max_mu, mu);
        min_mu = std::min(min_mu, mu);
      }
      EXPECT_GT(max_mu, 0.05);
      EXPECT_EQ(min_mu, 0.0);
    }
  });
}

TEST(Dycore, SwgompOffloadBitwiseIdentical) {
  // §5.1.1: GRIST's conflict-free loops offloaded through the SWGOMP layer
  // must be bitwise identical to the serial path, with regions counted. The
  // tracer regions write only temp and q, so those are compared too.
  const AtmConfig base = small_config();
  auto run_case = [&](bool offload) {
    static DycoreState state;
    par::run(1, [&](par::Comm& comm) {
      AtmConfig config = base;
      config.use_swgomp = offload;
      grid::IcosahedralGrid mesh(config.mesh_n);
      Dycore dycore(comm, config, mesh);
      seed_vortex(dycore, VortexSpec{});
      for (int i = 0; i < 20; ++i) {
        dycore.step_dynamics(config.dycore_dt_seconds());
        dycore.step_tracers(config.tracer_dt_seconds());
      }
      state = dycore.state();
    });
    return state;
  };
  pp::swgomp::reset_stats();
  const DycoreState serial = run_case(false);
  EXPECT_EQ(pp::swgomp::stats().regions, 0u);
  const DycoreState offloaded = run_case(true);
  EXPECT_GT(pp::swgomp::stats().regions, 0u);  // regions really offloaded
  const std::pair<const char*, std::vector<double> DycoreState::*> fields[] = {
      {"h", &DycoreState::h}, {"temp", &DycoreState::temp},
      {"q", &DycoreState::q}};
  for (const auto& [name, member] : fields) {
    const std::vector<double>& a = serial.*member;
    const std::vector<double>& b = offloaded.*member;
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t i = 0; i < a.size(); ++i)
      ASSERT_EQ(a[i], b[i]) << name << " index " << i;
  }
}

// Σ over owned cells of a hash of (global id, h, v, every temp/q level):
// invariant to the decomposition, so one constant covers every rank count.
std::uint64_t owned_state_hash(const Dycore& dycore) {
  const DycoreState& state = dycore.state();
  std::uint64_t local = 0;
  for (std::size_t c = 0; c < dycore.mesh().num_owned(); ++c) {
    std::uint64_t h = kFnvBasis;
    h = fnv1a_value(h, dycore.mesh().global_id(c));
    h = fnv1a_value(h, state.h[c]);
    h = fnv1a_value(h, state.vx[c]);
    h = fnv1a_value(h, state.vy[c]);
    h = fnv1a_value(h, state.vz[c]);
    for (std::size_t k = 0; k < state.nlev; ++k) {
      h = fnv1a_value(h, state.temp[state.tq(c, k)]);
      h = fnv1a_value(h, state.q[state.tq(c, k)]);
    }
    local += h;  // wrapping: rank- and order-independent combine
  }
  return local;
}

TEST(Dycore, TracerHashMatchesRecordedTrajectory) {
  // Golden value recorded with one halo exchange per field and level and a
  // per-level tracer sweep: batching and the fused kernel must not move a
  // bit, at any rank count.
  constexpr std::uint64_t kRecorded = 7528112379581538616ULL;
  const AtmConfig config = small_config();
  for (int nranks : {1, 2, 4}) {
    par::run(nranks, [&](par::Comm& comm) {
      grid::IcosahedralGrid mesh(config.mesh_n);
      Dycore dycore(comm, config, mesh);
      seed_vortex(dycore, VortexSpec{});
      dycore.perturb_temperature(11, 0.5);
      for (int i = 0; i < 8; ++i) {
        dycore.step_dynamics(config.dycore_dt_seconds());
        dycore.step_tracers(config.tracer_dt_seconds());
      }
      EXPECT_GT(dycore.max_wind(), 0.0);
      const std::uint64_t hash =
          comm.allreduce_value(owned_state_hash(dycore), par::ReduceOp::kSum);
      EXPECT_EQ(hash, kRecorded) << nranks << " ranks";
    });
  }
}

TEST(Dycore, HaloMessagesPerTracerStepAreBatched) {
  // A tracer substep makes one exchange for the winds and every level of
  // both tracers, and a dynamics substep two (h/v, then the new h): one
  // message per (owner, requester) pair each. Per-level exchanges would
  // send 3 + 2·nlev times as many per tracer substep.
  const AtmConfig config = small_config();
  constexpr int kRanks = 3;
  grid::IcosahedralGrid mesh(config.mesh_n);
  const auto ncells = static_cast<std::int64_t>(mesh.num_cells());
  std::uint64_t peer_pairs = 0;  // Σ over ranks of receive-peer counts
  for (int r = 0; r < kRanks; ++r) {
    const grid::Range1D mine = grid::partition_1d(ncells, kRanks, r);
    std::set<int> owners;
    for (std::int64_t c = mine.begin; c < mine.end; ++c)
      for (auto nb : mesh.cell_neighbors(static_cast<std::size_t>(c))) {
        const auto id = static_cast<std::int64_t>(nb);
        if (id < mine.begin || id >= mine.end)
          owners.insert(grid::owner_1d(ncells, kRanks, id));
      }
    peer_pairs += owners.size();
  }
  ASSERT_GT(peer_pairs, 0u);
  par::run(kRanks, [&](par::Comm& comm) {
    Dycore dycore(comm, config, mesh);
    seed_vortex(dycore, VortexSpec{});
    auto messages_of = [&](auto&& step) {
      comm.barrier();
      const std::uint64_t before = comm.world().traffic().messages;
      comm.barrier();
      step();
      comm.barrier();
      const std::uint64_t sent = comm.world().traffic().messages - before;
      comm.barrier();
      return sent;
    };
    EXPECT_EQ(messages_of([&] {
                dycore.step_tracers(config.tracer_dt_seconds());
              }),
              peer_pairs);
    EXPECT_EQ(messages_of([&] {
                dycore.step_dynamics(config.dycore_dt_seconds());
              }),
              2 * peer_pairs);
    EXPECT_EQ(messages_of([&] { dycore.perturb_temperature(3, 0.1); }),
              peer_pairs);
  });
}

TEST(Model, MixedPrecisionStaysWithinGristThreshold) {
  // §5.2.3 acceptance: relative L2 of surface pressure under the mixed
  // dycore must stay below 5 %.
  const AtmConfig base = small_config();
  std::vector<double> ps_fp64, ps_mixed;
  par::run(1, [&](par::Comm& comm) {
    grid::IcosahedralGrid mesh(base.mesh_n);
    Dycore dycore(comm, base, mesh);
    seed_vortex(dycore, VortexSpec{});
    for (int i = 0; i < 50; ++i) dycore.step_dynamics(base.dycore_dt_seconds());
    ps_fp64 = dycore.state().h;
  });
  AtmConfig mixed = base;
  mixed.mixed_precision = true;
  par::run(1, [&](par::Comm& comm) {
    grid::IcosahedralGrid mesh(mixed.mesh_n);
    Dycore dycore(comm, mixed, mesh);
    seed_vortex(dycore, VortexSpec{});
    for (int i = 0; i < 50; ++i) dycore.step_dynamics(mixed.dycore_dt_seconds());
    ps_mixed = dycore.state().h;
  });
  double num = 0.0, den = 0.0;
  for (std::size_t c = 0; c < ps_fp64.size(); ++c) {
    num += (ps_mixed[c] - ps_fp64[c]) * (ps_mixed[c] - ps_fp64[c]);
    den += ps_fp64[c] * ps_fp64[c];
  }
  EXPECT_LT(std::sqrt(num / den), 0.05);
  EXPECT_GT(num, 0.0);  // mixed precision is actually engaged
}

}  // namespace
