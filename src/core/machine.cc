#include "core/machine.hh"

#include "common/log.hh"
#include "fu/ddr_fus.hh"
#include "fu/mem_fus.hh"
#include "fu/mesh.hh"
#include "fu/mme.hh"
#include "sim/tile_pool.hh"

namespace rsn::core {

namespace {

/**
 * Gate on MachineConfig::validate() before any member that consumes the
 * configuration is built (DramChannel asserts on bad rates
 * mid-construction). cfg_ is the first member, so funneling the
 * copy through here turns every structural error into one catchable
 * std::runtime_error up front.
 */
const MachineConfig &
validatedOrFatal(const MachineConfig &cfg)
{
    if (Status s = cfg.validate(); !s.ok())
        rsn_fatal("invalid machine configuration: %s", s.message.c_str());
    return cfg;
}

/** The AIE model at the configured MAC rate, calibrated otherwise. */
fu::AieModel
aieModel(const MachineConfig &cfg)
{
    fu::AieModelParams p;
    p.macs_per_cycle = cfg.aie_macs_per_cycle;
    return fu::AieModel(p);
}

} // namespace

net::Topology
buildRsnXnnTopology()
{
    net::Topology t;

    t.addNode(kDdr);
    t.addNode(kLpddr);
    t.addNode(kMeshA);
    t.addNode(kMeshB);
    for (int i = 0; i < kNumMme; ++i)
        t.addNode(mme(i));
    for (int i = 0; i < kNumMemA; ++i)
        t.addNode(memA(i));
    for (int i = 0; i < kNumMemB; ++i)
        t.addNode(memB(i));
    for (int i = 0; i < kNumMemC; ++i)
        t.addNode(memC(i));

    // DDR feature-map paths: LHS tiles into MemA, attention K/V into MemB,
    // residual tiles into MemC (union-datapath decisions, Sec. 4.2).
    for (int i = 0; i < kNumMemA; ++i)
        t.addEdge({kDdr, memA(i), kDdrToMemWidth, kStreamDepth});
    for (int i = 0; i < kNumMemB; ++i)
        t.addEdge({kDdr, memB(i), kDdrToMemWidth, kStreamDepth});
    for (int i = 0; i < kNumMemC; ++i)
        t.addEdge({kDdr, memC(i), kDdrToMemWidth, kStreamDepth});

    // LPDDR weight/bias paths into MemB; LayerNorm parameters into MemC.
    for (int i = 0; i < kNumMemB; ++i)
        t.addEdge({kLpddr, memB(i), kLpddrToMemWidth, kStreamDepth});
    for (int i = 0; i < kNumMemC; ++i)
        t.addEdge({kLpddr, memC(i), kLpddrToMemWidth, kStreamDepth});

    // Scratchpads into the meshes.
    for (int i = 0; i < kNumMemA; ++i)
        t.addEdge({memA(i), kMeshA, kMemToMeshWidth, kStreamDepth});
    for (int i = 0; i < kNumMemB; ++i)
        t.addEdge({memB(i), kMeshB, kMemToMeshWidth, kStreamDepth});
    // MemC re-injection for dynamic layer pipelining (Table 1's "dynamic
    // chain of pipelined FUs").
    for (int i = 0; i < kNumMemC; ++i) {
        t.addEdge({memC(i), kMeshA, kMemToMeshWidth, kStreamDepth});
        t.addEdge({memC(i), kMeshB, kMemToMeshWidth, kStreamDepth});
    }

    // Meshes into the MMEs; each MME into its fixed MemC partner; MemC
    // store path back through the DDR FU.
    for (int i = 0; i < kNumMme; ++i) {
        t.addEdge({kMeshA, mme(i), kMeshAToMmeWidth, kStreamDepth});
        t.addEdge({kMeshB, mme(i), kMeshBToMmeWidth, kStreamDepth});
        t.addEdge({mme(i), memC(i), kMmeToMemCWidth, kStreamDepth});
    }
    for (int i = 0; i < kNumMemC; ++i)
        t.addEdge({memC(i), kDdr, kMemCToDdrWidth, kStreamDepth});

    t.validate();
    return t;
}

RsnMachine::RsnMachine(const MachineConfig &cfg)
    : cfg_(validatedOrFatal(cfg)), host_(cfg.functional),
      ddr_chan_(std::make_unique<mem::DramChannel>(eng_, cfg.ddr)),
      lpddr_chan_(std::make_unique<mem::DramChannel>(eng_, cfg.lpddr)),
      topo_(buildRsnXnnTopology())
{
    // Warm the thread-local tile pool before anything can hold tiles
    // on this thread. Ordering matters at thread exit: thread_local/
    // static destruction is reverse order of construction, so touching
    // the pool here guarantees it outlives every machine-holding object
    // constructed later on this thread (e.g. a lib::SweepLane's cached
    // machine) — their destructors retire tiles into a still-live pool.
    sim::TilePool::instance();
    eng_.setEventsPerTickBudget(kWatchdogEventsPerTick);
    buildFus();
    buildStreams();
    decoder_ = std::make_unique<isa::DecoderUnit>(
        eng_, isa::DecoderUnit::Config{cfg.fetch_fifo_depth,
                                       kDecoderTicksPerPacket,
                                       kDecoderTicksPerUop});
    for (auto &f : fus_)
        decoder_->attach(f.get());
    if (cfg_.fault.enabled()) {
        injector_ = std::make_unique<sim::FaultInjector>(cfg_.fault, eng_);
        for (auto &s : streams_)
            s->attachFaultInjector(injector_.get());
        ddr_chan_->attachFaultInjector(injector_.get());
        lpddr_chan_->attachFaultInjector(injector_.get());
        for (auto &f : fus_)
            f->setFaultInjector(injector_.get());
    }
}

void
RsnMachine::buildFus()
{
    const fu::AieModel aie_model = aieModel(cfg_);
    const std::size_t q = cfg_.uop_fifo_depth;
    for (int i = 0; i < kNumMme; ++i)
        fus_.push_back(std::make_unique<fu::MmeFu>(
            eng_, mme(i), aie_model, kMeshA, kMeshB, memC(i), q));
    for (int i = 0; i < kNumMemA; ++i)
        fus_.push_back(
            std::make_unique<fu::MemAFu>(eng_, memA(i), kMeshA, q));
    for (int i = 0; i < kNumMemB; ++i)
        fus_.push_back(
            std::make_unique<fu::MemBFu>(eng_, memB(i), kMeshB, q));
    for (int i = 0; i < kNumMemC; ++i)
        fus_.push_back(std::make_unique<fu::MemCFu>(
            eng_, memC(i), mme(i), kDdr, kMemCFlopsPerTick, q));
    fus_.push_back(std::make_unique<fu::MeshFu>(eng_, kMeshA, q));
    fus_.push_back(std::make_unique<fu::MeshFu>(eng_, kMeshB, q));
    fus_.push_back(std::make_unique<fu::DdrFu>(
        eng_, kDdr, *ddr_chan_, host_, cfg_.offchip_layout, q));
    fus_.push_back(std::make_unique<fu::LpddrFu>(
        eng_, kLpddr, *lpddr_chan_, host_, cfg_.offchip_layout, q));
}

void
RsnMachine::buildStreams()
{
    for (const auto &e : topo_.edges()) {
        streams_.push_back(std::make_unique<sim::Stream>(
            eng_, e.bytes_per_tick, e.depth, e.name()));
        stream_edges_.push_back(e);
        sim::Stream *s = streams_.back().get();
        fu(e.src)->addOutput(e.dst, s);
        fu(e.dst)->addInput(e.src, s);
    }
}

fu::Fu *
RsnMachine::fu(FuId id)
{
    for (auto &f : fus_)
        if (f->id() == id)
            return f.get();
    rsn_panic("unknown FU %s", id.toString().c_str());
}

sim::Stream *
RsnMachine::stream(FuId src, FuId dst)
{
    for (std::size_t i = 0; i < streams_.size(); ++i)
        if (stream_edges_[i].src == src && stream_edges_[i].dst == dst)
            return streams_[i].get();
    return nullptr;
}

void
RsnMachine::reset()
{
    rsn_assert(resettable(),
               "reset of a machine whose run did not complete");
    rsn_assert(eng_.idle(), "reset with pending engine events");
    // FUs and the decoder first: their finished coroutine frames may
    // still hold chunk payloads that retire to the tile pool here.
    for (auto &f : fus_)
        f->reset();
    decoder_->reset();
    for (auto &s : streams_)
        s->reset();
    ddr_chan_->reset();
    lpddr_chan_->reset();
    host_.reset();
    if (injector_)
        injector_->reset();
    eng_.reset();
    ran_ = false;
    ran_completed_ = false;
}

void
RsnMachine::setFaultSeed(std::uint64_t seed)
{
    rsn_assert(resettable(),
               "setFaultSeed on a machine whose run did not complete");
    cfg_.fault.seed = seed;
    if (injector_)
        injector_->reseed(seed);
}

RunReport
RsnMachine::runChecked(const isa::RsnProgram &prog, Tick max_ticks)
{
    rsn_assert(!ran_, "RsnMachine::runChecked needs a fresh or reset() "
                      "machine");
    ran_ = true;
    prog.validate();

    RunReport rep;
    for (auto &f : fus_)
        f->start();
    decoder_->start(prog);

    const bool quiesced = eng_.run(max_ticks);

    rep.result.ticks = eng_.now();
    rep.result.ms = ticksToMs(rep.result.ticks);
    if (injector_) {
        rep.faults = injector_->log();
        rep.faults_injected = injector_->totalInjected();
    }
    bool all_halted = true;
    for (auto &f : fus_)
        all_halted &= f->halted();
    // A drained queue with coroutines still parked on a channel or
    // stream is a *silent* deadlock (nothing left to wake them); it must
    // not count as completion even when every FU happens to look done.
    const bool drain_clean = quiesced && eng_.drainedClean();
    const bool completed =
        quiesced && all_halted && decoder_->done() && drain_clean;
    ran_completed_ = completed;

    const std::string stall =
        completed ? std::string() : stallReport(quiesced, drain_clean);
    if (injector_ && injector_->hardFaulted())
        rep.status = Status::error(
            StatusCode::FaultDiagnosed,
            injector_->firstHardFault()->toString() +
                (stall.empty() ? "" : "\n" + stall));
    else if (completed)
        rep.status = Status::success();
    else if (eng_.watchdogTripped())
        rep.status = Status::error(StatusCode::Livelock, stall);
    else if (!quiesced && !eng_.stopRequested())
        rep.status = Status::error(StatusCode::Timeout, stall);
    else
        rep.status = Status::error(StatusCode::Deadlock, stall);
    return rep;
}

std::string
RunReport::toString() const
{
    // Headline: the status with the first message line. The stall
    // report and waiter scan of an incomplete run follow the fault log.
    const std::size_t nl = status.message.find('\n');
    std::string s =
        Status{status.code, status.message.substr(0, nl)}.toString();
    s += " after " +
         std::to_string(static_cast<unsigned long long>(result.ticks)) +
         " ticks";
    if (faults_injected > 0) {
        s += "; " +
             std::to_string(static_cast<unsigned long long>(
                 faults_injected)) +
             " fault(s) injected";
        if (faults_injected > faults.size())
            s += " (log capped at " + std::to_string(faults.size()) + ")";
        for (const auto &f : faults)
            s += "\n  " + f.toString();
    }
    if (nl != std::string::npos)
        s += status.message.substr(nl);
    return s;
}

std::string
RsnMachine::stallReport(bool quiesced, bool drain_clean) const
{
    std::string s = decoder_->stateString();
    for (const auto &f : fus_)
        if (!f->halted())
            s += "\n" + f->name() + ": " + f->stateString();
    if (quiesced && !drain_clean)
        s += "\nparked waiters at drain (silent deadlock):\n" +
             eng_.drainDiagnosis();
    else if (eng_.stopRequested() && !eng_.drainedClean())
        // The same waiter scan after a fault stop: names the dead
        // stream's lost chunks and the endpoints parked on them.
        s += "\nparked waiters at fault stop:\n" + eng_.drainDiagnosis();
    if (eng_.watchdogTripped())
        s += "\nwatchdog: tick " +
             std::to_string(static_cast<unsigned long long>(eng_.now())) +
             " exceeded the event budget without advancing time";
    while (!s.empty() && s.back() == '\n')
        s.pop_back();
    return s;
}

std::uint64_t
RsnMachine::totalFlops() const
{
    std::uint64_t total = 0;
    for (const auto &f : fus_)
        total += f->stats().flops;
    return total;
}

double
RsnMachine::achievedTflops(const RunResult &r) const
{
    if (r.ticks == 0)
        return 0;
    double secs = static_cast<double>(r.ticks) / kPlHz;
    return totalFlops() / secs / 1e12;
}

double
RsnMachine::peakTflops() const
{
    return aieModel(cfg_).peakFlopsPerMme() * kNumMme / 1e12;
}

double
RsnMachine::fuPeakTflops(FuId id) const
{
    if (id.type == FuType::Mme)
        return aieModel(cfg_).peakFlopsPerMme() / 1e12;
    if (id.type == FuType::MemC)
        return kMemCFlopsPerTick * kPlHz / 1e12;
    return 0.0;
}

Bytes
RsnMachine::fuMemoryBytes(FuId id) const
{
    switch (id.type) {
      case FuType::Mme: return kMmeMemoryBytes;
      case FuType::MemA: return kMemAMemoryBytes;
      case FuType::MemB:
        return id.index < 2 ? kMemB01MemoryBytes : kMemB2MemoryBytes;
      case FuType::MemC: return kMemCMemoryBytes;
      default: return 0;
    }
}

} // namespace rsn::core
