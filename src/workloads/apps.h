/**
 * @file
 * The evaluation workloads (paper Section 6 "Applications"):
 * Factorial, Fibonacci, ECDSA, SHA-256, Image Crop, and MVM, plus the
 * recursive-aggregation circuit used in Tables 5 and 6.
 *
 * Plonk circuits here are *shape-faithful synthetics* (see DESIGN.md):
 * the row counts, committed widths (3R wire columns), and gate-type
 * mixes match each application's character -- a factorial chain of
 * scaled multiplications, Fibonacci additions, EC-style mul-heavy
 * ladders for ECDSA, round-structured mixing for SHA-256, copy-heavy
 * selection for Image Crop, and mul-add dot products for MVM. The
 * prover, verifier, and the accelerator trace only depend on these
 * shapes, not on the semantic gadget libraries.
 *
 * Three applications additionally carry Starky AETs (Factorial,
 * Fibonacci, SHA-256), matching the apps with existing Starky
 * implementations used in Table 5.
 */

#ifndef UNIZK_WORKLOADS_APPS_H
#define UNIZK_WORKLOADS_APPS_H

#include <memory>
#include <string>
#include <vector>

#include "plonk/circuit.h"
#include "stark/stark.h"

namespace unizk {

enum class AppId
{
    Factorial,
    Fibonacci,
    Ecdsa,
    Sha256,
    ImageCrop,
    Mvm,
    Recursion,
};

/** The six Table-3 applications, in paper order. */
inline const std::vector<AppId> &
evaluationApps()
{
    static const std::vector<AppId> apps{
        AppId::Factorial, AppId::Fibonacci, AppId::Ecdsa,
        AppId::Sha256,    AppId::ImageCrop, AppId::Mvm};
    return apps;
}

/** Display name ("SHA-256", "Image Crop", ...) for reports. */
const char *appName(AppId app);

/**
 * Lowercase token naming an app on command lines and in scenario files
 * ("sha256", "image-crop", ...).
 */
const char *appToken(AppId app);

/**
 * Inverse of appToken, the one parser of app names. Accepts exactly
 * the appToken spellings; anything else is a unizk_fatal (mentioning
 * @p origin) that lists them, never a fallback app.
 */
AppId appFromToken(const std::string &token, const std::string &origin);

/** Default shape parameters for an application. */
struct WorkloadParams
{
    /** Target circuit rows (padded to a power of two). */
    size_t rows = 1 << 12;

    /**
     * Witness repetitions R; the wires batch holds 3R polynomials
     * (R = 45 gives the paper's width-135 commitment for most apps,
     * MVM uses a wider 400-column trace).
     */
    size_t repetitions = 45;
};

/**
 * Defaults scaled down from the paper's 2^20-row configurations so a
 * full run fits a laptop-class machine; `scale` shifts every app's row
 * count by the same factor (rows <<= scale).
 */
WorkloadParams defaultParams(AppId app, uint32_t scale = 0);

/** A ready-to-prove Plonk instance. */
struct PlonkApp
{
    Circuit circuit;
    std::vector<std::vector<Fp>> witnesses; ///< [repetition][input]
};

/** Build the Plonk circuit and R witness input sets. */
PlonkApp buildPlonkApp(AppId app, size_t rows, size_t repetitions,
                       uint64_t seed = 1);

/** A ready-to-prove Starky instance. */
struct StarkApp
{
    std::unique_ptr<StarkAir> air;
    std::vector<std::vector<Fp>> trace; ///< column-major
};

/** True for apps with a Starky (AET) implementation. */
bool hasStarkImplementation(AppId app);

/** Build the AET and its AIR (Factorial, Fibonacci, Sha256 only). */
StarkApp buildStarkApp(AppId app, size_t rows);

} // namespace unizk

#endif // UNIZK_WORKLOADS_APPS_H
