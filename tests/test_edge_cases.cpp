// Edge cases and failure injection across modules: wrong-size buffers,
// invalid ranks, degenerate decompositions, out-of-range physics inputs,
// missing files — the error paths a production model must fail loudly on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "atm/vortex.hpp"
#include "base/constants.hpp"
#include "coupler/fluxes.hpp"
#include "grid/partition.hpp"
#include "io/subfile.hpp"
#include "mct/attrvect.hpp"
#include "mct/gsmap.hpp"
#include "mct/router.hpp"
#include "par/comm.hpp"
#include "pp/exec.hpp"
#include "pp/view.hpp"
#include "sunway/athread.hpp"
#include "sunway/coregroup.hpp"

namespace {

using namespace ap3;

// --- par -----------------------------------------------------------------------

TEST(EdgePar, SendToInvalidRankThrows) {
  par::run(2, [](par::Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW(comm.send_value(1, 5, 0), ap3::Error);
      EXPECT_THROW(comm.send_value(1, -1, 0), ap3::Error);
    }
    comm.barrier();
  });
}

TEST(EdgePar, RecvBufferTooSmallThrows) {
  par::run(2, [](par::Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> big(10, 1.0);
      comm.send(std::span<const double>(big), 1, 3);
    } else {
      std::vector<double> small(3);
      EXPECT_THROW(comm.recv(std::span<double>(small), 0, 3), ap3::Error);
    }
  });
}

TEST(EdgePar, RequestWaitIsIdempotent) {
  par::run(2, [](par::Comm& comm) {
    const int peer = 1 - comm.rank();
    double value = comm.rank() + 1.0;
    std::vector<double> in(1);
    par::Request recv = comm.irecv(std::span<double>(in), peer, 7);
    comm.send(std::span<const double>(&value, 1), peer, 7);
    recv.wait();
    recv.wait();  // second wait must be a no-op, not a double-recv
    EXPECT_EQ(in[0], peer + 1.0);
  });
}

TEST(EdgePar, SingleRankWorldCollectivesWork) {
  par::run(1, [](par::Comm& comm) {
    EXPECT_EQ(comm.allreduce_value(5.0, par::ReduceOp::kSum), 5.0);
    const auto all = comm.allgather(std::span<const int>());
    EXPECT_TRUE(all.empty());
    comm.barrier();
    std::vector<int> data = {1, 2};
    comm.bcast(std::span<int>(data), 0);
    EXPECT_EQ(data[1], 2);
  });
}

TEST(EdgePar, ZeroLengthMessages) {
  par::run(2, [](par::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(std::span<const double>(), 1, 9);
    } else {
      std::vector<double> buffer(4, -1.0);
      const std::size_t n = comm.recv(std::span<double>(buffer), 0, 9);
      EXPECT_EQ(n, 0u);
      EXPECT_EQ(buffer[0], -1.0);  // untouched
    }
  });
}

// --- pp ------------------------------------------------------------------------

TEST(EdgePp, ViewRank4LayoutsConsistent) {
  pp::View<int, 4> right("r", 2, 3, 4, 5);
  pp::View<int, 4> left("l", pp::Layout::kLeft, 2, 3, 4, 5);
  right(1, 2, 3, 4) = 42;
  left(1, 2, 3, 4) = 42;
  EXPECT_EQ(right.linear(((1 * 3 + 2) * 4 + 3) * 5 + 4), 42);
  EXPECT_EQ(left.linear(1 + 2 * 2 + 3 * 2 * 3 + 4 * 2 * 3 * 4), 42);
}

TEST(EdgePp, ParallelReduceEmptyRangeReturnsInit) {
  const double out = pp::parallel_reduce<double>(
      pp::RangePolicy(10, 10).on(pp::ExecSpace::kHostThreads),
      [](std::size_t, double& acc) { acc += 1.0; }, 3.5);
  EXPECT_EQ(out, 3.5);
}

TEST(EdgePp, ScanOfEmptyRange) {
  std::vector<long long> out;
  const long long total = pp::parallel_scan<long long>(
      pp::RangePolicy(0, 0), [](std::size_t) { return 1LL; }, out);
  EXPECT_EQ(total, 0);
  EXPECT_TRUE(out.empty());
}

TEST(EdgePp, SingleElementRange) {
  int hits = 0;
  pp::parallel_for(pp::RangePolicy(41, 42).on(pp::ExecSpace::kHostThreads),
                   [&](std::size_t i) {
                     EXPECT_EQ(i, 41u);
                     ++hits;
                   });
  EXPECT_EQ(hits, 1);
}

// --- mct -----------------------------------------------------------------------

TEST(EdgeMct, SubsetUnknownFieldThrows) {
  mct::AttrVect av({"a", "b"}, 4);
  EXPECT_THROW(av.subset({"a", "zz"}), ap3::Error);
}

TEST(EdgeMct, GsMapWithEmptyRank) {
  const mct::GlobalSegMap map = mct::GlobalSegMap::from_all({{0, 1, 2}, {}});
  EXPECT_EQ(map.local_size(1), 0);
  EXPECT_TRUE(map.local_ids(1).empty());
  EXPECT_EQ(map.owner(1), 0);
}

TEST(EdgeMct, RouterDisjointIdSpacesMovesNothing) {
  const mct::GlobalSegMap src = mct::GlobalSegMap::from_all({{0, 1}, {2, 3}});
  const mct::GlobalSegMap dst = mct::GlobalSegMap::from_all({{10, 11}, {12}});
  for (int r = 0; r < 2; ++r) {
    const mct::Router router = mct::Router::build(r, src, dst);
    EXPECT_EQ(router.points_sent(), 0);
    EXPECT_EQ(router.points_received(), 0);
  }
}

TEST(EdgeMct, RouterRoundTripThroughBlob) {
  const mct::GlobalSegMap map =
      mct::GlobalSegMap::from_all({{0, 2, 4}, {1, 3, 5}});
  const mct::Router router = mct::Router::build(1, map, map);
  const mct::Router copy = mct::Router::deserialize(router.serialize());
  EXPECT_TRUE(router == copy);
}

// --- grid -----------------------------------------------------------------------

TEST(EdgeGrid, GristLabelScalesInversely) {
  const auto km1 = grid::IcosaCounts::for_grist_label_km(1.0);
  const auto km3 = grid::IcosaCounts::for_grist_label_km(3.0);
  EXPECT_NEAR(static_cast<double>(km1.n) / static_cast<double>(km3.n), 3.0,
              0.01);
}

TEST(EdgeGrid, InvalidBlockPartitionThrows) {
  EXPECT_THROW(grid::BlockPartition2D(4, 4, 8, 1), ap3::Error);  // px > nx
  EXPECT_THROW(grid::BlockPartition2D(4, 4, 0, 1), ap3::Error);
}

TEST(EdgeGrid, CompactionMoreRanksThanColumns) {
  // 8x8 grid with maybe ~45 ocean columns, 60 ranks: some ranks get nothing,
  // nothing crashes, every column assigned once.
  grid::TripolarGrid g(grid::TripolarConfig{8, 8, 4});
  grid::ActiveCompaction compaction(g, 60);
  std::int64_t total = 0;
  for (int r = 0; r < 60; ++r)
    total += static_cast<std::int64_t>(compaction.columns(r).size());
  EXPECT_EQ(total, compaction.total_columns());
}

TEST(EdgeGrid, TinyTripolarGridStillHasOcean) {
  grid::TripolarGrid g(grid::TripolarConfig{8, 8, 2});
  EXPECT_GT(g.active_points(), 0);
}

// --- sunway -----------------------------------------------------------------------

TEST(EdgeSunway, PartitionFewerItemsThanCpes) {
  const std::size_t n = 5;
  std::vector<int> hits(n, 0);
  for (int id = 0; id < 64; ++id) {
    const auto range = sunway::cpe_partition(n, id, 64);
    for (std::size_t i = range.begin; i < range.end; ++i) hits[i]++;
  }
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(EdgeSunway, ZeroWorkCostsOnlySpawn) {
  sunway::KernelWork none;
  const double cpe =
      sunway::CoreGroup::predict(none, sunway::ExecTarget::kCpeCluster);
  EXPECT_GT(cpe, 0.0);      // spawn overhead
  EXPECT_LT(cpe, 1e-4);
  EXPECT_EQ(sunway::CoreGroup::predict(none, sunway::ExecTarget::kMpe), 0.0);
}

// --- coupler fluxes ------------------------------------------------------------------

TEST(EdgeFluxes, OutOfRangeIceFractionClamped) {
  cpl::BulkFluxConfig config;
  std::vector<double> taux{0.1}, tauy{0.0}, tbot{280.0}, qbot{0.005},
      gsw{200.0}, glw{300.0}, precip{1e-5}, sst{285.0}, ifrac{1.7};
  std::vector<double> qnet(1), fresh(1), otaux(1), otauy(1);
  cpl::compute_air_sea_fluxes(
      config, {taux, tauy, tbot, qbot, gsw, glw, precip, sst, ifrac},
      {qnet, fresh, otaux, otauy});
  // Clamped to 1: pure conductive flux, no rain through the ice.
  EXPECT_NEAR(qnet[0], 2.0 * (280.0 - 285.0), 1e-9);
  EXPECT_EQ(fresh[0], 0.0);
}

TEST(EdgeFluxes, CalmWindStillDefined) {
  cpl::BulkFluxConfig config;
  std::vector<double> zero{0.0}, tbot{285.0}, qbot{0.008}, gsw{100.0},
      glw{320.0}, precip{0.0}, sst{285.0}, ifrac{0.0};
  std::vector<double> qnet(1), fresh(1), otaux(1), otauy(1);
  cpl::compute_air_sea_fluxes(
      config, {zero, zero, tbot, qbot, gsw, glw, precip, sst, ifrac},
      {qnet, fresh, otaux, otauy});
  EXPECT_TRUE(std::isfinite(qnet[0]));
}

// --- vortex ------------------------------------------------------------------------

TEST(EdgeVortex, SouthernHemisphereIsAnticyclonicVorticity) {
  par::run(1, [](par::Comm& comm) {
    atm::AtmConfig config;
    config.mesh_n = 8;
    config.nlev = 4;
    grid::IcosahedralGrid mesh(config.mesh_n);
    atm::Dycore dycore(comm, config, mesh);
    atm::VortexSpec spec;
    spec.lon_deg = 60.0;
    spec.lat_deg = -20.0;  // southern hemisphere
    atm::seed_vortex(dycore, spec);
    const auto vorticity = dycore.relative_vorticity();
    double core = 0.0, best = 1e300;
    for (std::size_t c = 0; c < dycore.mesh().num_owned(); ++c) {
      const double d = atm::track_distance_km(
          60.0, -20.0, dycore.mesh().lon_rad(c) * constants::kRadToDeg,
          dycore.mesh().lat_rad(c) * constants::kRadToDeg);
      if (d < best) {
        best = d;
        core = vorticity[c];
      }
    }
    // SH cyclones rotate clockwise: negative relative vorticity.
    EXPECT_LT(core, 0.0);
  });
}

TEST(EdgeVortex, TrackerReportsNotFoundFarAway) {
  par::run(1, [](par::Comm& comm) {
    atm::AtmConfig config;
    config.mesh_n = 6;
    config.nlev = 4;
    grid::IcosahedralGrid mesh(config.mesh_n);
    atm::Dycore dycore(comm, config, mesh);
    // No vortex seeded; search a tiny radius around an arbitrary point.
    const atm::VortexFix fix = atm::track_vortex(dycore, comm, 10.0, 10.0, 1.0);
    EXPECT_FALSE(fix.found);
  });
}

// --- io --------------------------------------------------------------------------

TEST(EdgeIo, ReadMissingSubfileThrows) {
  par::run(2, [](par::Comm& comm) {
    io::SubfileConfig config{"/tmp/ap3_missing_subfiles", 2};
    std::vector<std::int64_t> ids = {static_cast<std::int64_t>(comm.rank())};
    EXPECT_THROW(io::read_subfiles(comm, config, ids), ap3::Error);
  });
}

TEST(EdgeIo, EmptyRankContribution) {
  const std::string base = "/tmp/ap3_edge_empty";
  par::run(3, [&](par::Comm& comm) {
    io::FieldData mine;
    if (comm.rank() == 1) {  // rank 1 owns nothing
      // empty
    } else {
      mine.ids = {comm.rank() * 10LL};
      mine.values = {static_cast<double>(comm.rank())};
    }
    io::write_subfiles(comm, {base, 1}, mine);
    comm.barrier();
    const io::FieldData back = io::read_subfiles(comm, {base, 1}, mine.ids);
    EXPECT_EQ(back.ids, mine.ids);
    comm.barrier();
  });
  std::remove((base + ".0.bin").c_str());
}

}  // namespace
