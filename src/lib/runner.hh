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

/**
 * The seeded host image of one compiled model: what initTensors() wrote,
 * one payload per entry of CompiledModel::tensors. Only "input" and the
 * weights carry data; activations (they start zeroed) and every tensor
 * of a timing-only machine hold an empty payload.
 */
using SeededImage = std::vector<std::vector<float>>;

/** Capture @p compiled's seeded regions, right after initTensors(). */
SeededImage captureSeeded(core::RsnMachine &mach,
                          const CompiledModel &compiled);

/**
 * Re-place @p compiled's tensor layout on a reset or freshly built
 * machine whose config matches the one it was compiled on (the fault
 * seed aside), asserting every address equals TensorInfo::addr, and
 * copy @p image's seeded regions in. The host then equals compileModel()
 * followed by initTensors() on a fresh machine, without either.
 */
void restoreTensors(core::RsnMachine &mach, const CompiledModel &compiled,
                    const SeededImage &image);

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

/** The accuracy contract's bound t for a precision policy: one value
 *  for all-F32, a looser one when any field is 16-bit (values and
 *  measured margins: docs/datapath.md "Accuracy contract"). */
float accuracyBound(const core::PrecisionPolicy &p);

/** One tensor under policy @p p's contract: allclose(rtol = t, atol =
 *  t * max(1, rms(want))) with t = accuracyBound(p). On failure @p why
 *  names the first diverged element (index, got, want, tol). */
bool meetsAccuracyBound(const ref::Matrix &got, const ref::Matrix &want,
                        const core::PrecisionPolicy &p,
                        std::string *why = nullptr);

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
 * The verifying body of every checked run: run the already-seeded
 * @p compiled program through the structured RunReport channel and,
 * when the run completes on a functional machine, hold every tensor of
 * @p refs that the compiled model exposes (except "input") to the
 * accuracy contract of the machine's precision policy, compared in
 * place in host memory. Never throws on
 * a diagnosed fault / deadlock / timeout or an output mismatch; those
 * come back classified in the report, and a mismatch's message names
 * each diverged tensor with its first bad element. @p refs must be the
 * referenceForward() of the tensors initTensors() wrote for this run.
 */
CheckedRun runVerified(core::RsnMachine &mach, const CompiledModel &compiled,
                       const std::map<std::string, ref::Matrix> &refs,
                       Tick max_ticks);

/**
 * The full checked execution flow in one call: seed tensors, capture the
 * FP32 reference, then runVerified(). This is the path rsn-sim, sweeps
 * and the golden tier drive; rsn-serve restores a memoized program and
 * seeded image per (class, batch) instead (restoreTensors()) and calls
 * runVerified() with that key's memoized reference.
 */
CheckedRun runModelChecked(core::RsnMachine &mach, const Model &model,
                           const CompiledModel &compiled,
                           std::uint32_t seed = 2025,
                           Tick max_ticks =
                               core::RsnMachine::kDefaultMaxTicks);

} // namespace rsn::lib

#endif // RSN_LIB_RUNNER_HH
