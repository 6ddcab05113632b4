/**
 * @file
 * Harness for unit-testing FU kernels in isolation: builds an engine,
 * wires streams around a single FU, and provides driver coroutines for
 * feeding chunks / uOPs and collecting outputs.
 */

#ifndef RSN_TESTS_FU_HARNESS_HH
#define RSN_TESTS_FU_HARNESS_HH

#include <memory>
#include <vector>

#include "fu/fu.hh"
#include "isa/packet.hh"
#include "isa/uop.hh"
#include "sim/engine.hh"
#include "sim/stream.hh"
#include "sim/task.hh"

namespace rsn::test {

class FuHarness
{
  public:
    sim::Engine eng;

    /** Create a stream and register it as @p fu's input from @p from. */
    sim::Stream &
    input(fu::Fu &fu, FuId from, Bytes width = 256,
          std::size_t depth = 2)
    {
        streams_.push_back(std::make_unique<sim::Stream>(
            eng, width, depth, from.toString() + "->" +
                                   fu.id().toString()));
        fu.addInput(from, streams_.back().get());
        return *streams_.back();
    }

    /** Create a stream and register it as @p fu's output toward @p to. */
    sim::Stream &
    output(fu::Fu &fu, FuId to, Bytes width = 256,
           std::size_t depth = 2)
    {
        streams_.push_back(std::make_unique<sim::Stream>(
            eng, width, depth, fu.id().toString() + "->" +
                                   to.toString()));
        fu.addOutput(to, streams_.back().get());
        return *streams_.back();
    }

    /** Push uOPs followed by a halt; returns the driver task, whose
     *  frame holds the uOPs the FU's queue refers to, so it must live
     *  until the FU has halted. */
    sim::Task
    program(fu::Fu &fu, std::vector<isa::Uop> uops)
    {
        uops.emplace_back(isa::HaltUop{});
        return feed(fu, std::move(uops));
    }

    /** Feed chunks into a stream. */
    sim::Task
    feedChunks(sim::Stream &s, std::vector<sim::Chunk> chunks)
    {
        for (auto &c : chunks)
            co_await s.send(std::move(c));
    }

    /** Collect @p n chunks from a stream into @p out. */
    sim::Task
    collect(sim::Stream &s, std::size_t n, std::vector<sim::Chunk> &out)
    {
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(co_await s.recv());
    }

    /** Run to quiescence; returns true if the engine drained. */
    bool run(Tick max = kTickMax) { return eng.run(max); }

  private:
    /** Issue each uOP as the decoder does: a strided DDR/LPDDR uOP
     *  one block at a time. */
    sim::Task
    feed(fu::Fu &fu, std::vector<isa::Uop> uops)
    {
        for (const auto &u : uops)
            for (std::uint32_t b = 0; b < isa::mopBlocks(u); ++b)
                co_await fu.uopQueue().send(isa::UopRef{&u, b});
    }

    std::vector<std::unique_ptr<sim::Stream>> streams_;
};

/** Row-major test payload [0, rows*cols). */
inline std::vector<float>
iotaData(std::uint32_t rows, std::uint32_t cols, float scale = 1.0f)
{
    std::vector<float> v(std::size_t(rows) * cols);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = float(i) * scale;
    return v;
}

} // namespace rsn::test

#endif // RSN_TESTS_FU_HARNESS_HH
