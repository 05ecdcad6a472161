// Tests for the grid substrates: icosahedral mesh invariants (Table 1
// signature), tripolar grid geometry and synthetic bathymetry, partitioners,
// the §5.2.2 active compaction, and halo exchange including the north fold.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numeric>
#include <set>

#include "base/constants.hpp"
#include "base/error.hpp"
#include "grid/halo.hpp"
#include "grid/icosahedral.hpp"
#include "grid/partition.hpp"
#include "grid/tripolar.hpp"
#include "par/comm.hpp"

namespace {

using namespace ap3;
using namespace ap3::grid;

// --- icosahedral mesh ---------------------------------------------------------

class IcosaParam : public ::testing::TestWithParam<int> {};

TEST_P(IcosaParam, EulerCountsMatchClosedForm) {
  const int n = GetParam();
  IcosahedralGrid mesh(n);
  const auto counts = IcosaCounts::for_n(n);
  EXPECT_EQ(static_cast<std::int64_t>(mesh.num_vertices()), counts.vertices);
  EXPECT_EQ(static_cast<std::int64_t>(mesh.num_edges()), counts.edges);
  EXPECT_EQ(static_cast<std::int64_t>(mesh.num_cells()), counts.cells);
  // Euler characteristic of the sphere: V - E + F = 2.
  EXPECT_EQ(counts.vertices - counts.edges + counts.cells, 2);
}

TEST_P(IcosaParam, CellAreasSumToSphere) {
  IcosahedralGrid mesh(GetParam());
  double total = 0.0;
  for (size_t c = 0; c < mesh.num_cells(); ++c) total += mesh.cell_area(c);
  EXPECT_NEAR(total, 4.0 * constants::kPi, 1e-8);
}

TEST_P(IcosaParam, EveryEdgeHasTwoCells) {
  IcosahedralGrid mesh(GetParam());
  for (size_t e = 0; e < mesh.num_edges(); ++e) {
    const auto& cells = mesh.edge_cell_ids(e);
    EXPECT_NE(cells[0], cells[1]);
    EXPECT_LT(cells[0], mesh.num_cells());
    EXPECT_LT(cells[1], mesh.num_cells());
  }
}

TEST_P(IcosaParam, NeighborRelationIsSymmetric) {
  IcosahedralGrid mesh(GetParam());
  for (size_t c = 0; c < mesh.num_cells(); ++c) {
    for (auto nb : mesh.cell_neighbors(c)) {
      const auto back = mesh.cell_neighbors(nb);
      EXPECT_TRUE(back[0] == c || back[1] == c || back[2] == c);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Subdivisions, IcosaParam, ::testing::Values(1, 2, 4, 7, 12));

TEST(Icosa, VerticesOnUnitSphere) {
  IcosahedralGrid mesh(5);
  for (size_t v = 0; v < mesh.num_vertices(); ++v) {
    const auto& p = mesh.vertex(v);
    EXPECT_NEAR(p.x * p.x + p.y * p.y + p.z * p.z, 1.0, 1e-12);
  }
}

TEST(Icosa, ResolutionScalesInverselyWithN) {
  EXPECT_NEAR(IcosaCounts::resolution_km(8) / IcosaCounts::resolution_km(16),
              2.0, 1e-9);
}

TEST(Icosa, PaperScaleCountsMatchTable1) {
  // Table 1, 1 km row: 3.4e8 cells, 5.0e8 edges, 1.7e8 vertices.
  const auto c = IcosaCounts::for_n(4123);
  EXPECT_NEAR(static_cast<double>(c.cells), 3.4e8, 0.02e8);
  EXPECT_NEAR(static_cast<double>(c.edges), 5.1e8, 0.02e8);
  EXPECT_NEAR(static_cast<double>(c.vertices), 1.7e8, 0.01e8);
}

TEST(Icosa, ForResolutionProducesRequestedSpacing) {
  const auto counts = IcosaCounts::for_resolution_km(100.0);
  const double res = IcosaCounts::resolution_km(counts.n);
  EXPECT_LE(res, 100.0);
  EXPECT_GE(res, 80.0);  // not wastefully fine
}

TEST(Icosa, MeanSpacingMatchesClosedForm) {
  IcosahedralGrid mesh(6);
  EXPECT_NEAR(mesh.mean_spacing_km(), IcosaCounts::resolution_km(6), 20.0);
}

// --- tripolar grid -------------------------------------------------------------

TEST(Tripolar, ShapeMatchesConfig) {
  TripolarGrid grid(TripolarConfig{120, 80, 20});
  EXPECT_EQ(grid.nx(), 120);
  EXPECT_EQ(grid.ny(), 80);
  EXPECT_EQ(grid.total_points(), 120LL * 80 * 20);
}

TEST(Tripolar, Table1ShapesFromResolution) {
  const auto c1 = TripolarConfig::for_resolution_km(1.0);
  EXPECT_EQ(c1.nx, 36000);
  EXPECT_EQ(c1.ny, 22018);
  // 1-km total grids = 6.3e10 (Table 1).
  EXPECT_NEAR(static_cast<double>(c1.nx) * c1.ny * c1.nz, 6.3e10, 0.1e10);
  const auto c10 = TripolarConfig::for_resolution_km(10.0);
  EXPECT_EQ(c10.nx, 3600);
  EXPECT_EQ(c10.ny, 2202);
}

TEST(Tripolar, OceanFractionNearEarths71Percent) {
  TripolarGrid grid(TripolarConfig{240, 160, 40});
  EXPECT_GT(grid.ocean_surface_fraction(), 0.60);
  EXPECT_LT(grid.ocean_surface_fraction(), 0.82);
}

TEST(Tripolar, ActiveVolumeFractionNear70Percent) {
  // §5.2.2: removing 3-D non-ocean points cuts ~30 % of the points.
  TripolarGrid grid(TripolarConfig{240, 160, 40});
  EXPECT_GT(grid.active_volume_fraction(), 0.55);
  EXPECT_LT(grid.active_volume_fraction(), 0.80);
}

TEST(Tripolar, BathymetryDeterministicInSeed) {
  TripolarConfig config{64, 48, 10};
  TripolarGrid a(config), b(config);
  for (int j = 0; j < 48; ++j)
    for (int i = 0; i < 64; ++i) EXPECT_EQ(a.kmt(i, j), b.kmt(i, j));
  config.land_seed += 1;
  TripolarGrid c(config);
  int diff = 0;
  for (int j = 0; j < 48; ++j)
    for (int i = 0; i < 64; ++i)
      if (a.kmt(i, j) != c.kmt(i, j)) ++diff;
  EXPECT_GT(diff, 0);
}

TEST(Tripolar, AreasShrinkTowardPoles) {
  TripolarGrid grid(TripolarConfig{64, 48, 10});
  EXPECT_GT(grid.cell_area(0, 24), grid.cell_area(0, 47));
}

TEST(Tripolar, DepthsMonotoneAndBounded) {
  TripolarGrid grid(TripolarConfig{32, 24, 80});
  double prev = 0.0;
  for (int k = 0; k < 80; ++k) {
    EXPECT_GT(grid.level_depth(k), prev);
    prev = grid.level_depth(k);
  }
  EXPECT_NEAR(prev, 5500.0, 1.0);
}

TEST(Tripolar, KmtNeverExceedsNz) {
  TripolarGrid grid(TripolarConfig{100, 70, 15});
  for (int j = 0; j < 70; ++j)
    for (int i = 0; i < 100; ++i) {
      EXPECT_GE(grid.kmt(i, j), 0);
      EXPECT_LE(grid.kmt(i, j), 15);
    }
}

// --- partitioners -----------------------------------------------------------------

TEST(Partition, OneDimCoversWithoutOverlap) {
  const std::int64_t n = 1003;
  const int parts = 7;
  std::int64_t covered = 0;
  std::int64_t prev_end = 0;
  for (int r = 0; r < parts; ++r) {
    const Range1D range = partition_1d(n, parts, r);
    EXPECT_EQ(range.begin, prev_end);
    covered += range.size();
    prev_end = range.end;
  }
  EXPECT_EQ(covered, n);
  EXPECT_EQ(prev_end, n);
}

TEST(Partition, OneDimBalanced) {
  for (int r = 0; r < 7; ++r) {
    const Range1D range = partition_1d(1003, 7, r);
    EXPECT_GE(range.size(), 1003 / 7);
    EXPECT_LE(range.size(), 1003 / 7 + 1);
  }
}

TEST(Partition, OwnerConsistentWithRanges) {
  const std::int64_t n = 527;
  const int parts = 9;
  for (std::int64_t i = 0; i < n; ++i) {
    const int owner = owner_1d(n, parts, i);
    const Range1D range = partition_1d(n, parts, owner);
    EXPECT_GE(i, range.begin);
    EXPECT_LT(i, range.end);
  }
}

TEST(Partition, BlockBalancedPicksReasonableShape) {
  const auto p = BlockPartition2D::balanced(1000, 500, 8);
  EXPECT_EQ(p.nranks(), 8);
  EXPECT_GE(p.px(), p.py());  // wider grid gets more x-blocks
}

TEST(Partition, BlockOwnerRoundTrips) {
  BlockPartition2D p(100, 60, 4, 3);
  for (int rank = 0; rank < 12; ++rank) {
    const Range1D xr = p.x_range(rank);
    const Range1D yr = p.y_range(rank);
    EXPECT_EQ(p.owner(static_cast<int>(xr.begin), static_cast<int>(yr.begin)),
              rank);
    EXPECT_EQ(p.owner(static_cast<int>(xr.end) - 1,
                      static_cast<int>(yr.end) - 1),
              rank);
  }
}

TEST(Compaction, RemovesNonOceanPoints) {
  TripolarGrid grid(TripolarConfig{120, 90, 30});
  ActiveCompaction compaction(grid, 8);
  EXPECT_NEAR(compaction.removed_fraction(),
              1.0 - grid.active_volume_fraction(), 1e-12);
  EXPECT_GT(compaction.removed_fraction(), 0.2);
  EXPECT_EQ(compaction.total_points(), grid.active_points());
}

TEST(Compaction, EveryActiveColumnAssignedExactlyOnce) {
  TripolarGrid grid(TripolarConfig{80, 60, 20});
  ActiveCompaction compaction(grid, 5);
  std::set<std::pair<int, int>> seen;
  std::int64_t total = 0;
  for (int r = 0; r < 5; ++r) {
    for (const CompactColumn& col : compaction.columns(r)) {
      EXPECT_TRUE(seen.insert({col.i, col.j}).second)
          << "column assigned twice";
      EXPECT_EQ(col.kmt, grid.kmt(col.i, col.j));
      ++total;
    }
  }
  EXPECT_EQ(total, compaction.total_columns());
}

TEST(Compaction, BalancesThreeDWorkload) {
  TripolarGrid grid(TripolarConfig{160, 120, 40});
  ActiveCompaction compaction(grid, 16);
  // Naive area decomposition has imbalance >= 1/active_fraction (~1.4);
  // compaction should be close to 1.
  EXPECT_LT(compaction.load_imbalance(), 1.10);
}

// --- halo exchange ---------------------------------------------------------------

TEST(BlockHalo, PeriodicEastWest) {
  par::run(4, [](par::Comm& comm) {
    const int nx = 16, ny = 8;
    BlockHalo halo(comm, nx, ny, 4, 1, false);
    std::vector<double> field(
        static_cast<size_t>((halo.nx_local() + 2) * (halo.ny_local() + 2)), 0.0);
    // Value = global i.
    for (int j = 0; j < halo.ny_local(); ++j)
      for (int i = 0; i < halo.nx_local(); ++i)
        field[halo.halo_index(i, j)] = halo.x0() + i;
    halo.exchange(field);
    for (int j = 0; j < halo.ny_local(); ++j) {
      const double west_expect = (halo.x0() - 1 + nx) % nx;
      const double east_expect = (halo.x0() + halo.nx_local()) % nx;
      EXPECT_EQ(field[halo.halo_index(-1, j)], west_expect);
      EXPECT_EQ(field[halo.halo_index(halo.nx_local(), j)], east_expect);
    }
  });
}

TEST(BlockHalo, SouthNorthBetweenRows) {
  par::run(4, [](par::Comm& comm) {
    const int nx = 8, ny = 16;
    BlockHalo halo(comm, nx, ny, 1, 4, false);
    std::vector<double> field(
        static_cast<size_t>((halo.nx_local() + 2) * (halo.ny_local() + 2)), 0.0);
    for (int j = 0; j < halo.ny_local(); ++j)
      for (int i = 0; i < halo.nx_local(); ++i)
        field[halo.halo_index(i, j)] = halo.y0() + j;
    halo.exchange(field);
    for (int i = 0; i < halo.nx_local(); ++i) {
      if (halo.y0() > 0)
        EXPECT_EQ(field[halo.halo_index(i, -1)], halo.y0() - 1);
      else  // closed south boundary: zero-gradient
        EXPECT_EQ(field[halo.halo_index(i, -1)], 0.0);
      if (halo.y0() + halo.ny_local() < ny)
        EXPECT_EQ(field[halo.halo_index(i, halo.ny_local())],
                  halo.y0() + halo.ny_local());
      else  // no fold requested: zero-gradient
        EXPECT_EQ(field[halo.halo_index(i, halo.ny_local())], ny - 1);
    }
  });
}

TEST(BlockHalo, NorthFoldMirrorsTopRow) {
  par::run(4, [](par::Comm& comm) {
    const int nx = 16, ny = 8;
    BlockHalo halo(comm, nx, ny, 2, 2, true);
    std::vector<double> field(
        static_cast<size_t>((halo.nx_local() + 2) * (halo.ny_local() + 2)), 0.0);
    // Value = 100*global_j + global_i, unique per point.
    for (int j = 0; j < halo.ny_local(); ++j)
      for (int i = 0; i < halo.nx_local(); ++i)
        field[halo.halo_index(i, j)] = 100.0 * (halo.y0() + j) + (halo.x0() + i);
    halo.exchange(field);
    if (halo.y0() + halo.ny_local() == ny) {  // top-row block
      for (int i = 0; i < halo.nx_local(); ++i) {
        const int g = halo.x0() + i;
        const int mirror = nx - 1 - g;
        EXPECT_EQ(field[halo.halo_index(i, halo.ny_local())],
                  100.0 * (ny - 1) + mirror)
            << "ghost at global column " << g;
      }
    }
  });
}

TEST(BlockHalo, SingleRankDegenerateCase) {
  par::run(1, [](par::Comm& comm) {
    const int nx = 8, ny = 6;
    BlockHalo halo(comm, nx, ny, 1, 1, true);
    std::vector<double> field(static_cast<size_t>((nx + 2) * (ny + 2)), 0.0);
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        field[halo.halo_index(i, j)] = 10.0 * j + i;
    halo.exchange(field);
    // Periodic x with itself.
    EXPECT_EQ(field[halo.halo_index(-1, 2)], 10.0 * 2 + (nx - 1));
    EXPECT_EQ(field[halo.halo_index(nx, 2)], 10.0 * 2 + 0);
    // Fold with itself: ghost above (i, ny-1) is (nx-1-i, ny-1).
    EXPECT_EQ(field[halo.halo_index(0, ny)], 10.0 * (ny - 1) + (nx - 1));
  });
}

// Owned and ghost ids of a contiguous cell partition of the icosahedral
// mesh (the atmosphere's decomposition), and the ranks owning the ghosts.
struct IcosaHaloIds {
  std::vector<std::int64_t> owned, ghosts;
  std::set<int> ghost_owners;
};

IcosaHaloIds icosa_halo_ids(const IcosahedralGrid& mesh, int nranks, int rank) {
  const auto ncells = static_cast<std::int64_t>(mesh.num_cells());
  const Range1D mine = partition_1d(ncells, nranks, rank);
  IcosaHaloIds ids;
  std::set<std::int64_t> ghost_set;
  for (std::int64_t c = mine.begin; c < mine.end; ++c) {
    ids.owned.push_back(c);
    for (auto nb : mesh.cell_neighbors(static_cast<size_t>(c))) {
      const auto id = static_cast<std::int64_t>(nb);
      if (id < mine.begin || id >= mine.end) {
        ghost_set.insert(id);
        ids.ghost_owners.insert(owner_1d(ncells, nranks, id));
      }
    }
  }
  ids.ghosts.assign(ghost_set.begin(), ghost_set.end());
  return ids;
}

TEST(GraphHalo, ExchangesNeighborValuesOnIcosahedron) {
  par::run(4, [](par::Comm& comm) {
    IcosahedralGrid mesh(4);
    const auto ncells = static_cast<std::int64_t>(mesh.num_cells());
    auto owner = [&](std::int64_t id) {
      return owner_1d(ncells, comm.size(), id);
    };
    const IcosaHaloIds ids = icosa_halo_ids(mesh, comm.size(), comm.rank());
    const std::vector<std::int64_t>& owned = ids.owned;
    const std::vector<std::int64_t>& ghosts = ids.ghosts;
    GraphHalo halo(comm, owned, ghosts, owner);

    // Field value = 3 * global id + 1.
    std::vector<double> owned_values(owned.size());
    for (size_t k = 0; k < owned.size(); ++k)
      owned_values[k] = 3.0 * static_cast<double>(owned[k]) + 1.0;
    std::vector<double> ghost_values(ghosts.size(), -1.0);
    halo.exchange(owned_values, ghost_values);
    for (size_t k = 0; k < ghosts.size(); ++k)
      EXPECT_EQ(ghost_values[k], 3.0 * static_cast<double>(ghosts[k]) + 1.0);
  });
}

TEST(GraphHalo, BatchedMatchesSingleFieldExchanges) {
  // A batch mixing width-1 and width-nlev fields (the dycore's tracer-step
  // shape) fills ghosts bit-for-bit like one exchange per field, with one
  // message per peer for the whole batch. At 1 rank there are no ghosts.
  constexpr std::size_t kNlev = 5;
  constexpr std::size_t kWidths[] = {1, kNlev, 1, kNlev};
  for (int nranks = 1; nranks <= 4; ++nranks) {
    par::run(nranks, [&](par::Comm& comm) {
      IcosahedralGrid mesh(4);
      const auto ncells = static_cast<std::int64_t>(mesh.num_cells());
      const IcosaHaloIds ids = icosa_halo_ids(mesh, comm.size(), comm.rank());
      GraphHalo halo(comm, ids.owned, ids.ghosts, [&](std::int64_t id) {
        return owner_1d(ncells, comm.size(), id);
      });
      if (nranks == 1) {
        EXPECT_EQ(halo.num_ghosts(), 0u);
      }

      // Field f's value at (id, k) is irrational in f, id and k, so any
      // misplaced value shows.
      auto value = [](std::size_t f, std::int64_t id, std::size_t k) {
        return std::sqrt(2.0 + static_cast<double>(f)) *
                   static_cast<double>(id) +
               0.1 * static_cast<double>(k);
      };
      std::vector<std::vector<double>> owned, batched, single;
      for (std::size_t f = 0; f < std::size(kWidths); ++f) {
        const std::size_t w = kWidths[f];
        std::vector<double>& o = owned.emplace_back(ids.owned.size() * w);
        for (std::size_t i = 0; i < ids.owned.size(); ++i)
          for (std::size_t k = 0; k < w; ++k)
            o[i * w + k] = value(f, ids.owned[i], k);
        batched.emplace_back(ids.ghosts.size() * w, -1.0);
        single.emplace_back(ids.ghosts.size() * w, -2.0);
      }
      std::vector<GraphHalo::Field> fields;
      for (std::size_t f = 0; f < std::size(kWidths); ++f)
        fields.push_back({owned[f], batched[f], kWidths[f]});

      // One message per (owner, requester) pair for the whole batch: the
      // world total is the sum of every rank's receive-peer count.
      std::uint64_t expected_messages = 0;
      for (int r = 0; r < nranks; ++r)
        expected_messages +=
            icosa_halo_ids(mesh, nranks, r).ghost_owners.size();
      comm.barrier();
      const std::uint64_t before = comm.world().traffic().messages;
      comm.barrier();
      halo.exchange(fields);
      comm.barrier();
      const std::uint64_t sent = comm.world().traffic().messages - before;
      comm.barrier();
      EXPECT_EQ(sent, expected_messages);

      for (std::size_t f = 0; f < std::size(kWidths); ++f) {
        const GraphHalo::Field one[] = {{owned[f], single[f], kWidths[f]}};
        halo.exchange(one);
      }
      for (std::size_t f = 0; f < std::size(kWidths); ++f) {
        const std::size_t w = kWidths[f];
        for (std::size_t g = 0; g < ids.ghosts.size(); ++g)
          for (std::size_t k = 0; k < w; ++k) {
            EXPECT_EQ(batched[f][g * w + k], value(f, ids.ghosts[g], k));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(batched[f][g * w + k]),
                      std::bit_cast<std::uint64_t>(single[f][g * w + k]));
          }
      }
    });
  }
}

TEST(GraphHalo, MisSizedBatchFieldThrows) {
  // Sizes are checked before any message is posted, so every rank throws and
  // nobody is left waiting on a receive.
  par::run(2, [](par::Comm& comm) {
    IcosahedralGrid mesh(4);
    const auto ncells = static_cast<std::int64_t>(mesh.num_cells());
    const IcosaHaloIds ids = icosa_halo_ids(mesh, comm.size(), comm.rank());
    GraphHalo halo(comm, ids.owned, ids.ghosts, [&](std::int64_t id) {
      return owner_1d(ncells, comm.size(), id);
    });
    constexpr std::size_t kWidth = 3;
    std::vector<double> owned(ids.owned.size() * kWidth, 1.0);
    std::vector<double> ghosts(ids.ghosts.size() * kWidth, 0.0);
    std::vector<double> short_ghosts(ids.ghosts.size() * kWidth - 1, 0.0);
    const GraphHalo::Field good = {owned, ghosts, kWidth};
    const GraphHalo::Field bad_ghosts[] = {good,
                                           {owned, short_ghosts, kWidth}};
    EXPECT_THROW(halo.exchange(bad_ghosts), Error);
    const GraphHalo::Field bad_width[] = {{owned, ghosts, kWidth + 1}};
    EXPECT_THROW(halo.exchange(bad_width), Error);
    // The halo still works after the rejected calls.
    const GraphHalo::Field ok[] = {good};
    EXPECT_NO_THROW(halo.exchange(ok));
  });
}

TEST(SupernodeBlockMap, TilesBlockGridIntoNearSquareSupernodes) {
  // 8x8 blocks, supernodes of 4 -> 2x2 tiles, 16 supernodes.
  const SupernodeBlockMap map(8, 8, 4);
  EXPECT_EQ(map.tile_w(), 2);
  EXPECT_EQ(map.tile_h(), 2);
  EXPECT_EQ(map.num_supernodes(), 16);
  EXPECT_EQ(map.supernode_of_block(0, 0), map.supernode_of_block(1, 1));
  EXPECT_NE(map.supernode_of_block(1, 1), map.supernode_of_block(2, 1));
  // Rank mapping matches BlockPartition2D's row-major rank_of_block.
  const BlockPartition2D part(64, 64, 8, 8);
  for (int by = 0; by < 8; ++by)
    for (int bx = 0; bx < 8; ++bx)
      EXPECT_EQ(map.supernode_of_rank(part.rank_of_block(bx, by)),
                map.supernode_of_block(bx, by));
  // Every supernode holds at most supernode_size blocks.
  std::vector<int> population(static_cast<std::size_t>(map.num_supernodes()));
  for (int rank = 0; rank < 64; ++rank)
    ++population[static_cast<std::size_t>(map.supernode_of_rank(rank))];
  for (const int p : population) EXPECT_LE(p, 4);
}

TEST(SupernodeBlockMap, SkinnyGridsReclaimTileSlack) {
  // px=2 clamps the near-square tile width; the height reclaims the slack so
  // each supernode still holds 8 blocks.
  const SupernodeBlockMap map(2, 16, 8);
  EXPECT_EQ(map.tile_w(), 2);
  EXPECT_EQ(map.tile_h(), 4);
  EXPECT_EQ(map.num_supernodes(), 4);
  const SupernodeBlockMap column(1, 16, 8);
  EXPECT_EQ(column.tile_w(), 1);
  EXPECT_EQ(column.tile_h(), 8);
}

TEST(SupernodeBlockMap, TopologyMapAndNeighborFraction) {
  const SupernodeBlockMap map(4, 4, 4);
  const std::vector<int> ids = map.topology_map();
  ASSERT_EQ(ids.size(), 16u);
  for (int rank = 0; rank < 16; ++rank)
    EXPECT_EQ(ids[static_cast<std::size_t>(rank)], map.supernode_of_rank(rank));
  // 2x2 tiles on a 4x4 block grid: 24 adjacencies, 16 intra (2 per tile per
  // axis times 4 tiles times 2 axes).
  EXPECT_NEAR(map.intra_neighbor_fraction(), 16.0 / 24.0, 1e-12);
  // A supernode covering the whole grid keeps everything local; singleton
  // supernodes keep nothing local.
  EXPECT_DOUBLE_EQ(SupernodeBlockMap(4, 4, 16).intra_neighbor_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(SupernodeBlockMap(4, 4, 1).intra_neighbor_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(SupernodeBlockMap(1, 1, 4).intra_neighbor_fraction(), 1.0);
}

TEST(GraphHalo, EmptyGhostListIsFine) {
  par::run(2, [](par::Comm& comm) {
    std::vector<std::int64_t> owned = comm.rank() == 0
                                          ? std::vector<std::int64_t>{0, 1}
                                          : std::vector<std::int64_t>{2, 3};
    GraphHalo halo(comm, owned, {}, [](std::int64_t id) {
      return id < 2 ? 0 : 1;
    });
    std::vector<double> vals = {1.0, 2.0};
    std::vector<double> ghosts;
    EXPECT_NO_THROW(halo.exchange(vals, ghosts));
  });
}

}  // namespace
