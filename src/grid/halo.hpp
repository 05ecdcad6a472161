// Halo exchange machinery.
//
// BlockHalo: width-1 halo exchange for 2-D block decompositions of the
// tripolar ocean grid — periodic east/west, closed southern boundary, and
// the tripolar *north fold* (the top row exchanges with itself mirrored in
// longitude). Built on non-blocking point-to-point sends, the communication
// pattern §5.2.4 moves the coupler to. A batched exchange carries any number
// of fields in one message per neighbour and direction.
//
// GraphHalo: generic owner-based halo for unstructured meshes (the
// icosahedral atmosphere grid). Ghost requirements are negotiated once with
// an alltoallv handshake into flat, peer-sorted plans; subsequent exchanges
// are pure p2p.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "grid/partition.hpp"
#include "par/comm.hpp"

namespace ap3::grid {

class BlockHalo {
 public:
  /// `x_range`/`y_range`: this rank's owned index ranges. `px`/`py`: process
  /// grid shape; rank layout is by = rank / px. `north_fold`: apply the
  /// tripolar fold at the global top row. Blocks follow partition_1d cuts.
  BlockHalo(const par::Comm& comm, int nx_global, int ny_global, int px, int py,
            bool north_fold);

  /// Explicit-cuts variant for rebalanced decompositions: every rank passes
  /// the same `cuts` so the north-fold peer ranges (which depend on *other*
  /// blocks' x-extents) stay consistent across the process row.
  BlockHalo(const par::Comm& comm, int nx_global, int ny_global,
            const BlockCuts& cuts, bool north_fold);

  int nx_local() const { return nx_local_; }
  int ny_local() const { return ny_local_; }
  int x0() const { return x0_; }
  int y0() const { return y0_; }

  /// Every field is (ny_local+2) × (nx_local+2) row-major with 1-deep
  /// ghosts; interior element (i, j) lives at field[(j+1)*(nx_local+2) +
  /// (i+1)]. Fills all four ghost edges of every field (corners not
  /// exchanged; 5-point stencils). One message per neighbour and direction
  /// (west, east, south, north, fold peer) carries all fields, so the message
  /// count does not grow with the batch; the ghost values are identical to
  /// exchanging the fields one at a time.
  void exchange(std::span<std::vector<double>* const> fields) const;
  void exchange(std::vector<double>& field) const {
    std::vector<double>* one[] = {&field};
    exchange(one);
  }

  /// Tripolar vector components: the fold ghost row is the top row seen
  /// rotated by 180°, so an exchanged u or v changes sign there. Negates the
  /// fold ghosts this block received, columns [0, nx_local) only — the
  /// corner ghosts are never exchanged and stay untouched. No-op on blocks
  /// away from the fold.
  void flip_fold_vector(std::vector<double>& field) const;

  std::size_t halo_index(int i, int j) const {
    return static_cast<std::size_t>(j + 1) *
               static_cast<std::size_t>(nx_local_ + 2) +
           static_cast<std::size_t>(i + 1);
  }

 private:
  const par::Comm& comm_;
  int nx_global_, ny_global_;
  int px_, py_;
  bool north_fold_;
  int bx_, by_;
  int x0_, y0_, nx_local_, ny_local_;
  int west_rank_, east_rank_, south_rank_, north_rank_;
  // Column boundaries of the whole process row (px_+1 entries). The north
  // fold needs peer blocks' x-ranges, not just ours.
  std::vector<std::int64_t> x_cuts_;
};

/// Generic unstructured halo: each rank owns a set of global ids and needs
/// the values of a set of ghost ids owned elsewhere.
class GraphHalo {
 public:
  /// `owned`: globally sorted list of ids owned by this rank.
  /// `ghosts`: ids this rank needs but does not own.
  /// `owner_of(id)` must return the owning rank, consistently on all ranks.
  GraphHalo(const par::Comm& comm, std::vector<std::int64_t> owned,
            std::vector<std::int64_t> ghosts,
            const std::function<int(std::int64_t)>& owner_of);

  std::size_t num_owned() const { return owned_.size(); }
  std::size_t num_ghosts() const { return ghosts_.size(); }
  const std::vector<std::int64_t>& ghost_ids() const { return ghosts_; }

  /// One field of a batched exchange: `width` values per id, id-major, so
  /// `owned` holds num_owned()·width values (ordered like the `owned`
  /// constructor list) and `ghosts` num_ghosts()·width (ordered like
  /// `ghost_ids()`).
  struct Field {
    std::span<const double> owned;
    std::span<double> ghosts;
    std::size_t width = 1;
  };

  /// Gathers every field's owned values into its ghost values. One message
  /// per peer, in ascending peer order, carries all fields field-major (each
  /// field's plan-ordered ids in turn), so the message count does not grow
  /// with the batch; the ghost values are identical to exchanging the fields
  /// one at a time.
  void exchange(std::span<const Field> fields) const;
  void exchange(std::span<const double> owned_values,
                std::span<double> ghost_values) const {
    const Field one[] = {{owned_values, ghost_values, 1}};
    exchange(one);
  }

 private:
  /// Compressed per-peer index lists: peers[n] owns
  /// index[offsets[n] .. offsets[n+1]); peers ascend.
  struct PeerPlan {
    std::vector<int> peers;
    std::vector<std::size_t> offsets{0};
    std::vector<std::size_t> index;
    /// Closes the peer whose entries were just appended to `index`.
    void end_peer(int peer) {
      peers.push_back(peer);
      offsets.push_back(index.size());
    }
  };

  const par::Comm& comm_;
  std::vector<std::int64_t> owned_;
  std::vector<std::int64_t> ghosts_;
  // Per peer: local indices (into owned_) we must send.
  PeerPlan send_plan_;
  // Per peer: positions (into ghosts_) their payload fills.
  PeerPlan recv_plan_;
};

}  // namespace ap3::grid
