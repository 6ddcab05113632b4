#include "mem/dram.hh"

#include <algorithm>

#include "common/log.hh"
#include "sim/fault.hh"

namespace rsn::mem {

DramChannel::DramChannel(sim::Engine &eng, DramConfig cfg)
    : eng_(eng), cfg_(std::move(cfg)),
      read_bpt_(gbpsToBytesPerTick(cfg_.read_gbps)),
      write_bpt_(gbpsToBytesPerTick(cfg_.write_gbps))
{
    rsn_assert(read_bpt_ > 0 && write_bpt_ > 0, "bad DRAM bandwidth");
}

Tick
DramChannel::serviceTicks(const DramRequest &req) const
{
    double bpt = req.dir == Dir::Read ? read_bpt_ : write_bpt_;
    double transfer = static_cast<double>(req.bytes) / bpt;
    Tick overhead = Tick(req.bursts ? req.bursts : 1) * kPerBurstOverhead;
    auto t = ceilTicks(transfer) + overhead;
    return t ? t : 1;
}

void
DramChannel::attachFaultInjector(sim::FaultInjector *fi)
{
    fault_ = fi;
    fault_site_ = fi ? fi->registerSite("dram " + cfg_.name) : 0;
}

Tick
DramChannel::access(const DramRequest &req)
{
    Tick start = std::max(eng_.now(), busy_until_);
    Tick dur = serviceTicks(req);
    if (fault_) [[unlikely]] {
        // Transient transaction errors: each failed attempt re-occupies
        // the channel for the full service time plus a deterministic
        // tick-domain backoff, so recovery is part of the timing model.
        // A dead request (retries exhausted) has already been recorded
        // and flagged by the injector; the access still completes so the
        // calling kernel suspends normally until the engine stops.
        sim::FaultInjector::Outcome o =
            fault_->onDramAccess(fault_site_, dur);
        dur += o.extra;
        retries_ += o.retries;
    }
    busy_until_ = start + dur;
    busy_ticks_ += dur;
    ++requests_;
    if (req.dir == Dir::Read)
        bytes_read_ += req.bytes;
    else
        bytes_written_ += req.bytes;
    return busy_until_;
}

double
DramChannel::utilization(Tick total) const
{
    if (total == 0)
        return 0.0;
    return std::min(1.0, static_cast<double>(busy_ticks_) / total);
}

} // namespace rsn::mem
