// Tests for the CICE4-mini sea ice component.
#include <gtest/gtest.h>

#include "base/constants.hpp"
#include "ice/ice.hpp"
#include "par/comm.hpp"

namespace {

using namespace ap3;
using namespace ap3::ice;

IceConfig small_config() {
  IceConfig config;
  config.grid = grid::TripolarConfig{48, 36, 8};
  return config;
}

TEST(Ice, InitialPolarCaps) {
  par::run(2, [](par::Comm& comm) {
    IceModel model(comm, small_config());
    const double frac = model.ice_area_fraction();
    EXPECT_GT(frac, 0.0);
    EXPECT_LT(frac, 0.4);
    EXPECT_GT(model.total_ice_volume(), 0.0);
  });
}

TEST(Ice, GrowsWhenColdMeltsWhenWarm) {
  par::run(1, [](par::Comm& comm) {
    IceModel model(comm, small_config());
    const std::size_t ncols = model.ocean_gids().size();
    mct::AttrVect cold(IceModel::import_fields(), ncols);
    for (auto& v : cold.field("sst")) v = 268.0;   // below freezing
    for (auto& v : cold.field("tbot")) v = 250.0;  // frigid air
    model.import_state(cold);
    const double vol0 = model.total_ice_volume();
    model.run(0.0, 86400.0);
    const double vol_grown = model.total_ice_volume();
    EXPECT_GT(vol_grown, vol0);

    mct::AttrVect warm(IceModel::import_fields(), ncols);
    for (auto& v : warm.field("sst")) v = 290.0;
    for (auto& v : warm.field("tbot")) v = 295.0;
    model.import_state(warm);
    model.run(86400.0, 10 * 86400.0);
    EXPECT_LT(model.total_ice_volume(), vol_grown);
  });
}

TEST(Ice, ThicknessBounded) {
  par::run(1, [](par::Comm& comm) {
    const IceConfig config = small_config();
    IceModel model(comm, config);
    const std::size_t ncols = model.ocean_gids().size();
    mct::AttrVect frigid(IceModel::import_fields(), ncols);
    for (auto& v : frigid.field("sst")) v = 250.0;
    for (auto& v : frigid.field("tbot")) v = 220.0;
    model.import_state(frigid);
    model.run(0.0, 400.0 * 86400.0);
    for (std::size_t c = 0; c < ncols; ++c) {
      EXPECT_LE(model.hice(c), config.max_thickness);
      EXPECT_LE(model.aice(c), 1.0);
      EXPECT_GE(model.aice(c), 0.0);
    }
    // Everything frozen solid.
    EXPECT_GT(model.ice_area_fraction(), 0.95);
  });
}

TEST(Ice, DriftMovesIce) {
  par::run(1, [](par::Comm& comm) {
    IceModel model(comm, small_config());
    const std::size_t ncols = model.ocean_gids().size();
    // Neutral thermodynamics (at freezing), strong northward drift.
    mct::AttrVect x2i(IceModel::import_fields(), ncols);
    const double freeze = constants::kSeawaterFreeze + constants::kT0;
    for (auto& v : x2i.field("sst")) v = freeze;
    for (auto& v : x2i.field("tbot")) v = freeze;
    for (auto& v : x2i.field("vs")) v = 0.5;
    model.import_state(x2i);
    const double vol0 = model.total_ice_volume();
    model.run(0.0, 5.0 * 86400.0);
    // Ice moved but total volume approximately conserved (advective form,
    // no thermo sources at exactly the freezing point: deficit = 0).
    EXPECT_NEAR(model.total_ice_volume() / vol0, 1.0, 0.2);
  });
}

TEST(Ice, ExportImportRoundTrip) {
  par::run(2, [](par::Comm& comm) {
    IceModel model(comm, small_config());
    const std::size_t ncols = model.ocean_gids().size();
    mct::AttrVect i2x(IceModel::export_fields(), ncols);
    model.export_state(i2x);
    for (double f : i2x.field("ifrac")) {
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 1.0);
    }
    EXPECT_EQ(model.gsmap().local_size(comm.rank()),
              static_cast<std::int64_t>(ncols));
  });
}

TEST(Ice, ParallelMatchesSerialFraction) {
  const IceConfig config = small_config();
  static double serial_frac, parallel_frac;
  par::run(1, [&](par::Comm& comm) {
    IceModel model(comm, config);
    model.run(0.0, 86400.0);
    serial_frac = model.ice_area_fraction();
  });
  par::run(4, [&](par::Comm& comm) {
    IceModel model(comm, config);
    model.run(0.0, 86400.0);
    const double frac = model.ice_area_fraction();  // collective
    if (comm.rank() == 0) parallel_frac = frac;
  });
  EXPECT_NEAR(serial_frac, parallel_frac, 1e-12);
}

}  // namespace
