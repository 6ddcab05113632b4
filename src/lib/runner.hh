/**
 * @file
 * Run support: tensor initialization, reference evaluation, and result
 * extraction for compiled models.
 *
 * This plays the role of the paper's python_gold flow (Artifact Appendix):
 * deterministic input/weight data goes into the simulated off-chip memory,
 * the datapath computes through the stream network, and outputs are
 * validated segment by segment against the independent reference.
 */

#ifndef RSN_LIB_RUNNER_HH
#define RSN_LIB_RUNNER_HH

#include <map>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "ref/ref_math.hh"

namespace rsn::lib {

/**
 * Fill the model's input and weight tensors with seeded pseudo-random
 * data (activations start zeroed). No-op on timing-only machines.
 */
void initTensors(core::RsnMachine &mach, const CompiledModel &compiled,
                 std::uint32_t seed, float scale = 0.5f);

/** Read a tensor out of simulated off-chip memory as a matrix. */
ref::Matrix readTensor(core::RsnMachine &mach,
                       const CompiledModel &compiled,
                       const std::string &name);

/**
 * Reference evaluation: replay the model on the host-memory contents with
 * the naive implementations, returning every produced activation tensor
 * by name (including per-segment intermediates).
 */
std::map<std::string, ref::Matrix>
referenceForward(core::RsnMachine &mach, const Model &model,
                 const CompiledModel &compiled);

/**
 * Outcome of runModelChecked: the run report, whose status is
 * OutputMismatch when a completed functional run's outputs diverged,
 * plus the names of the diverged tensors.
 */
struct CheckedRun {
    core::RunReport report;
    std::vector<std::string> mismatched;  ///< Tensors that diverged.

    /** Completed with verified outputs (or a timing-only completion). */
    bool ok() const { return report.ok(); }
};

/**
 * The full checked execution flow in one call: seed tensors, capture the
 * FP32 reference, run through the structured RunReport channel, and —
 * when the run completes on a functional machine — compare every
 * produced tensor against the reference. Never throws on a diagnosed
 * fault / deadlock / timeout or an output mismatch; those come back
 * classified in the report.
 * This is the path rsn-sim and the chaos tier drive.
 */
CheckedRun runModelChecked(core::RsnMachine &mach, const Model &model,
                           const CompiledModel &compiled,
                           std::uint32_t seed = 2025, float rtol = 2e-3f,
                           float atol = 2e-3f,
                           Tick max_ticks =
                               core::RsnMachine::kDefaultMaxTicks);

} // namespace rsn::lib

#endif // RSN_LIB_RUNNER_HH
