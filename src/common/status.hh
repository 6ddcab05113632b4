/**
 * @file
 * Structured error channel for run-level outcomes.
 *
 * The simulator distinguishes *simulator bugs* (rsn_panic / rsn_assert,
 * which throw std::logic_error) from *diagnosable run outcomes*: a config
 * that fails validation, a run that deadlocks, times out, livelocks,
 * hits an unrecoverable injected fault, or completes with outputs that
 * diverge from the reference. The latter must end the run, not
 * the process — a sweep executor or serving harness keeps going. Status
 * is that channel: a code plus a human-readable message, threaded through
 * MachineConfig::validate(), RsnMachine::runChecked(), and
 * lib::runModelChecked() (docs/robustness.md).
 */

#ifndef RSN_COMMON_STATUS_HH
#define RSN_COMMON_STATUS_HH

#include <string>
#include <utility>

namespace rsn {

enum class StatusCode : int {
    Ok = 0,
    InvalidConfig,   ///< MachineConfig / FaultSpec validation failed.
    Deadlock,        ///< Run quiesced with blocked FUs or parked waiters.
    Timeout,         ///< Run hit its tick limit.
    Livelock,        ///< Watchdog per-tick event budget tripped.
    FaultDiagnosed,  ///< Unrecoverable injected/detected fault ended the run.
    OutputMismatch,  ///< Run completed; outputs diverged from the reference.
};

/** Stable human-readable name of a status code. */
inline const char *
statusCodeName(StatusCode c)
{
    switch (c) {
      case StatusCode::Ok: return "OK";
      case StatusCode::InvalidConfig: return "INVALID_CONFIG";
      case StatusCode::Deadlock: return "DEADLOCK";
      case StatusCode::Timeout: return "TIMEOUT";
      case StatusCode::Livelock: return "LIVELOCK";
      case StatusCode::FaultDiagnosed: return "FAULT";
      case StatusCode::OutputMismatch: return "OUTPUT_MISMATCH";
    }
    return "UNKNOWN";
}

struct Status {
    StatusCode code = StatusCode::Ok;
    std::string message;

    bool ok() const { return code == StatusCode::Ok; }
    explicit operator bool() const { return ok(); }

    std::string
    toString() const
    {
        if (ok())
            return "OK";
        std::string s = statusCodeName(code);
        if (!message.empty())
            s += ": " + message;
        return s;
    }

    static Status success() { return {}; }
    static Status
    error(StatusCode c, std::string msg)
    {
        return {c, std::move(msg)};
    }
};

} // namespace rsn

#endif // RSN_COMMON_STATUS_HH
