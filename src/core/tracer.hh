/**
 * @file
 * Chrome trace-event export (chrome://tracing / Perfetto) of the exact
 * kernel spans every FU records while recording is on
 * (fu::Fu::recordSpans): one timeline row per FU, one slice per executed
 * kernel named by its uOP kind, with stalls visible as gaps.
 */

#ifndef RSN_CORE_TRACER_HH
#define RSN_CORE_TRACER_HH

#include <string>

#include "core/machine.hh"

namespace rsn::core {

/** Render every FU's spans as Chrome trace JSON: one complete ("X")
 *  event per span, tid = FU name, microseconds at the PL clock. */
std::string kernelSpansToChromeJson(const RsnMachine &machine);

} // namespace rsn::core

#endif // RSN_CORE_TRACER_HH
