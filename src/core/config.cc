#include "core/config.hh"

#include <cmath>
#include <string>

namespace rsn::core {

namespace {

Status
invalid(const std::string &what)
{
    return Status::error(StatusCode::InvalidConfig, what);
}

bool
positiveFinite(double v)
{
    return std::isfinite(v) && v > 0;
}

} // namespace

Status
PrecisionPolicy::validate() const
{
    const struct {
        Dtype v;
        const char *name;
    } fields[] = {
        {linear_weights, "linear_weights"},
        {linear_activations, "linear_activations"},
        {attention_activations, "attention_activations"},
    };
    for (const auto &f : fields) {
        // I8 is reserved enum space: the datapath has no quantization
        // parameters (scale/zero-point plumbing) yet, so reject it up
        // front instead of failing in a kernel assert mid-run.
        if (f.v != Dtype::F32 && f.v != Dtype::Bf16 && f.v != Dtype::F16)
            return invalid(std::string("precision.") + f.name +
                           " must be one of f32|bf16|f16 (i8 is not "
                           "implemented by the datapath)");
    }
    return Status::success();
}

Status
MachineConfig::validate() const
{
    const struct {
        double v;
        const char *name;
    } rates[] = {
        {ddr.read_gbps, "ddr.read_gbps"},
        {ddr.write_gbps, "ddr.write_gbps"},
        {lpddr.read_gbps, "lpddr.read_gbps"},
        {lpddr.write_gbps, "lpddr.write_gbps"},
    };
    for (const auto &r : rates)
        if (!positiveFinite(r.v))
            return invalid(std::string(r.name) +
                           " must be positive and finite");

    // The AIE model divides by the macro-tile dimensions and both rates;
    // a zero, negative or non-finite value there crashes (SIGFPE) or
    // casts an infinite cycle count to a Tick. The upper bound keeps
    // grid^3 and grid * native_* inside int.
    const struct {
        int v;
        const char *name;
    } aie_dims[] = {
        {aie.grid, "grid"},
        {aie.native_m, "native_m"},
        {aie.native_k, "native_k"},
        {aie.native_n, "native_n"},
    };
    for (const auto &f : aie_dims)
        if (f.v < 1 || f.v > 1024)
            return invalid(std::string("aie.") + f.name +
                           " must be in [1, 1024], got " +
                           std::to_string(f.v));
    if (!positiveFinite(aie.macs_per_cycle))
        return invalid("aie.macs_per_cycle must be positive and finite");
    if (!positiveFinite(aie.drain_bytes_per_cycle))
        return invalid("aie.drain_bytes_per_cycle must be positive and "
                       "finite");
    if (!std::isfinite(aie.overhead_base) || aie.overhead_base < 0)
        return invalid("aie.overhead_base must be finite and >= 0");

    if (uop_fifo_depth == 0)
        return invalid("uop_fifo_depth must be positive");
    if (fetch_fifo_depth == 0)
        return invalid("fetch_fifo_depth must be positive");

    if (Status s = precision.validate(); !s)
        return s;

    return fault.validate();
}

MachineConfig
MachineConfig::vck190(bool functional)
{
    MachineConfig cfg;
    // Off-chip channels: peak 25.6 GB/s DDR4 / 32 GB/s LPDDR4; the model
    // uses the achieved rates the paper measured (Sec. 5.3).
    cfg.ddr.name = "DDR";
    cfg.ddr.read_gbps = 21.0;
    cfg.ddr.write_gbps = 23.5;
    cfg.lpddr.name = "LPDDR";
    cfg.lpddr.read_gbps = 20.5;
    cfg.lpddr.write_gbps = 20.5;  // LPDDR is load-only in RSN-XNN.
    cfg.functional = functional;
    return cfg;
}

} // namespace rsn::core
