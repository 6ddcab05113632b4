#include "fu/fu.hh"

#include "common/log.hh"
#include "sim/fault.hh"

namespace rsn::fu {

Fu::Fu(sim::Engine &eng, FuId id, std::size_t uop_depth)
    : eng_(eng), id_(id), name_(id.toString()),
      uop_q_(eng, uop_depth, name_ + ".uopq")
{
}

void
Fu::start()
{
    rsn_assert(!started_, "FU started twice");
    started_ = true;
    loop_ = mainLoop();
}

void
Fu::reset()
{
    rsn_assert(!started_ || halted_, "%s reset while still running",
               name_.c_str());
    rsn_assert(uop_q_.empty(), "%s reset with queued uOPs", name_.c_str());
    loop_ = {};
    stats_ = {};
    spans_.clear();
    started_ = false;
    halted_ = false;
    in_kernel_ = false;
    resetKernelState();
}

sim::Stream *
Fu::port(const PortTable &t, FuId id)
{
    return id.valid() && id.index < kMaxPorts
               ? t[static_cast<int>(id.type)][id.index]
               : nullptr;
}

void
Fu::addInput(FuId from, sim::Stream *s)
{
    rsn_assert(from.valid() && from.index < kMaxPorts,
               "%s input from %s has no port slot", name_.c_str(),
               from.toString().c_str());
    rsn_assert(!hasInput(from), "duplicate input port");
    inputs_.emplace_back(from, s);
    in_ports_[static_cast<int>(from.type)][from.index] = s;
}

void
Fu::addOutput(FuId to, sim::Stream *s)
{
    rsn_assert(to.valid() && to.index < kMaxPorts,
               "%s output to %s has no port slot", name_.c_str(),
               to.toString().c_str());
    rsn_assert(!hasOutput(to), "duplicate output port");
    outputs_.emplace_back(to, s);
    out_ports_[static_cast<int>(to.type)][to.index] = s;
}

sim::Stream &
Fu::in(FuId from)
{
    if (sim::Stream *s = port(in_ports_, from)) [[likely]]
        return *s;
    rsn_panic("%s has no input port from %s", name_.c_str(),
              from.toString().c_str());
}

sim::Stream &
Fu::out(FuId to)
{
    if (sim::Stream *s = port(out_ports_, to)) [[likely]]
        return *s;
    rsn_panic("%s has no output port to %s", name_.c_str(),
              to.toString().c_str());
}

void
Fu::setFaultInjector(sim::FaultInjector *fi)
{
    fault_ = fi;
    fault_site_ = fi ? fi->registerSite("fu " + name_) : 0;
}

void
Fu::stampEgress(sim::Chunk &c)
{
    if (fault_) [[unlikely]]
        fault_->stampChecksum(fault_site_, c);
}

void
Fu::checkIngress(sim::Chunk &c)
{
    if (fault_) [[unlikely]]
        fault_->ingressCheck(fault_site_, c);
}

std::string
Fu::stateString() const
{
    if (halted_)
        return "halted";
    if (!in_kernel_)
        return "stalled on uOP queue";
    std::string s = "in kernel";
    for (const auto &[id, st] : inputs_)
        if (st->hasBlockedReceiver())
            s += ", blocked recv from " + id.toString();
    for (const auto &[id, st] : outputs_)
        if (st->hasBlockedSender())
            s += ", blocked send to " + id.toString();
    return s;
}

sim::Task
Fu::mainLoop()
{
    while (true) {
        const isa::UopRef u = co_await uop_q_.recv();
        if (std::holds_alternative<isa::HaltUop>(*u.mop))
            break;
        in_kernel_ = true;
        const Tick t0 = eng_.now();
        co_await runKernel(u);
        const Tick t1 = eng_.now();
        stats_.busy_ticks += t1 - t0;
        ++stats_.uops;
        if (record_spans_) [[unlikely]]
            spans_.push_back({std::uint8_t(u.mop->index()), t0, t1});
        in_kernel_ = false;
    }
    halted_ = true;
}

} // namespace rsn::fu
