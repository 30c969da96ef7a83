/**
 * @file
 * The ten application workload generators (Table 3 of the paper).
 * Each reproduces its application's sharing signature at scaled input
 * sizes; see docs/ARCHITECTURE.md ("`src/workload` — reference
 * streams") for the substitution argument and each .cc file for the
 * per-application model.
 *
 * @param p     machine parameters (geometry only; costs are ignored)
 * @param scale input scale factor (1.0 = the repo's calibrated size;
 *              tests use ~0.1 for speed)
 * @param seed  generator seed (streams are fully deterministic)
 */

#ifndef RNUMA_WORKLOAD_APPS_APPS_HH
#define RNUMA_WORKLOAD_APPS_APPS_HH

#include <memory>

#include "common/params.hh"
#include "workload/workload.hh"

namespace rnuma
{

/** Barnes-Hut N-body simulation (SPLASH-2), 16K particles. */
std::unique_ptr<Workload>
makeBarnes(const Params &p, double scale = 1.0, std::uint64_t seed = 1);

/** Blocked sparse Cholesky factorization (SPLASH-2), tk16.O. */
std::unique_ptr<Workload>
makeCholesky(const Params &p, double scale = 1.0,
             std::uint64_t seed = 1);

/** 3-D electromagnetic wave propagation (Split-C), 76800 nodes. */
std::unique_ptr<Workload>
makeEm3d(const Params &p, double scale = 1.0, std::uint64_t seed = 1);

/** Complex 1-D radix-sqrt(n) six-step FFT (SPLASH-2), 64K points. */
std::unique_ptr<Workload>
makeFft(const Params &p, double scale = 1.0, std::uint64_t seed = 1);

/** Fast Multipole N-body simulation (SPLASH-2), 16K particles. */
std::unique_ptr<Workload>
makeFmm(const Params &p, double scale = 1.0, std::uint64_t seed = 1);

/** Blocked dense LU factorization (SPLASH-2), 512x512, 16x16. */
std::unique_ptr<Workload>
makeLu(const Params &p, double scale = 1.0, std::uint64_t seed = 1);

/** CHARMM-like molecular dynamics, 2048 particles, 15 iters. */
std::unique_ptr<Workload>
makeMoldyn(const Params &p, double scale = 1.0, std::uint64_t seed = 1);

/** Ocean simulation (SPLASH-2), 258x258 grid. */
std::unique_ptr<Workload>
makeOcean(const Params &p, double scale = 1.0, std::uint64_t seed = 1);

/** Integer radix sort (SPLASH-2), 1M integers, radix 1024. */
std::unique_ptr<Workload>
makeRadix(const Params &p, double scale = 1.0, std::uint64_t seed = 1);

/** 3-D scene rendering by ray tracing (SPLASH-2), "car". */
std::unique_ptr<Workload>
makeRaytrace(const Params &p, double scale = 1.0,
             std::uint64_t seed = 1);

} // namespace rnuma

#endif // RNUMA_WORKLOAD_APPS_APPS_HH
