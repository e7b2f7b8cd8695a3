#pragma once
/// \file mur.h
/// First-order Mur absorbing boundary condition on all six faces of the
/// grid, applied to the tangential scattered E components. The paper's
/// validation domain "is terminated by absorbing boundary conditions";
/// Mur-1 at vacuum speed is sufficient for the mostly-normal incidence of
/// the guided-wave scenarios (reflection < ~1-2 %).
///
/// The boundary works plane by plane inside the solver's x-plane sweep
/// (see solver.h). Each update needs the boundary layer (layer 0) and its
/// neighbour (layer 1) before and after the step's E update:
///   - snapshotPlane(i) saves plane i's layer values; it must run before
///     any E write to plane i in the step;
///   - finishPlane(i) runs once plane i's volume E update and incident
///     material corrections are done. It writes the y/z faces of plane i,
///     except where an x face must go first:
///       near end: the x = 0 face reads plane 1 and writes plane 0, so it
///         runs when plane 1 is finished, and the y/z faces of planes 0
///         and 1 follow it;
///       far end: the x = nx face reads plane nx-1 and writes plane nx, so
///         it runs when plane nx is finished (after H of plane nx has read
///         the old values), and the y/z faces of planes nx-1 and nx follow.
///     Planes must be finished in increasing order apart from interior
///     planes (2 <= i <= nx-2), whose order is free: every face update
///     reads and writes only its own plane.
/// This is the same arithmetic, element by element, as one whole-grid
/// snapshot before the E update and one whole-grid pass after it. The
/// x-before-y/z face order shows only on the edges two faces share, which
/// no update inside the grid reads; it is kept so those edges match too.

#include <vector>

#include "fdtd/grid.h"

namespace fdtdmm {

class MurBoundary {
 public:
  /// \throws std::invalid_argument on a null grid.
  explicit MurBoundary(Grid3* grid);

  /// Captures plane i's boundary-layer E values of the current step.
  void snapshotPlane(std::size_t i);

  /// Writes the boundary E values that plane i completes (see above).
  void finishPlane(std::size_t i);

 private:
  void applyXFace(bool far_end);
  void applyYZ(std::size_t i);

  Grid3* g_;
  double cx_, cy_, cz_;  ///< Mur coefficients per axis

  // Old-value storage: for each face, the two tangential components on the
  // boundary plane (layer 0) and the adjacent plane (layer 1). y and z
  // faces are stored plane-major in x.
  struct FaceStore {
    std::vector<double> t1_l0, t1_l1, t2_l0, t2_l1;
  };
  FaceStore x0_, x1_, y0_, y1_, z0_, z1_;
};

}  // namespace fdtdmm
