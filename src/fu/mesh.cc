#include "fu/mesh.hh"

#include <algorithm>

#include "common/log.hh"

namespace rsn::fu {

MeshFu::MeshFu(sim::Engine &eng, FuId id, std::size_t uop_depth)
    : Fu(eng, id, uop_depth) {}

sim::Task
MeshFu::broadcastKernel(const isa::MeshUop &u)
{
    sim::Stream &src = in(u.routes.front().src);
    for (std::uint32_t rep = 0; rep < u.repeats; ++rep) {
        sim::Chunk c = co_await src.recv();
        countIn(c);
        // Replicate to every destination and let the transfers overlap
        // (distinct output links). The copies share one pooled payload by
        // refcount; receivers get read-only views and must take
        // ownership (TileRef::ensureUnique, copy-on-write) to transform.
        for (const auto &r : u.routes) {
            sim::Chunk copy = c;
            countOut(copy);
            out(r.dst).post(std::move(copy));
        }
        // Next repeat may not start until every destination received its
        // copy — same barrier the per-send coroutines used to provide.
        for (const auto &r : u.routes)
            co_await out(r.dst).flush();
    }
}

sim::Task
MeshFu::routeKernel(const isa::MeshUop &u, FuId src)
{
    // One lane per source: consecutive chunks from that source rotate
    // through its routes' destinations in listed order (e.g. K to
    // MME_l, then V to MME_{3+l}).
    sim::Stream &in_s = in(src);
    for (std::uint32_t rep = 0; rep < u.repeats; ++rep) {
        for (const auto &r : u.routes) {
            if (r.src != src)
                continue;
            sim::Chunk c = co_await in_s.recv();
            countIn(c);
            countOut(c);
            co_await out(r.dst).send(std::move(c));
        }
    }
}

sim::Task
MeshFu::distributeKernel(const isa::MeshUop &u)
{
    // Deal consecutive chunks from one source across the routes in order
    // (the M-split of a tile: slice i -> MME_i).
    for (std::uint32_t rep = 0; rep < u.repeats; ++rep) {
        for (const auto &r : u.routes) {
            sim::Chunk c = co_await in(r.src).recv();
            countIn(c);
            countOut(c);
            co_await out(r.dst).send(std::move(c));
        }
    }
}

sim::Task
MeshFu::runKernel(isa::UopRef uop)
{
    const auto &u = std::get<isa::MeshUop>(*uop.mop);
    rsn_assert(!u.routes.empty(), "mesh uOP with no routes");
    switch (u.mode) {
      case isa::MeshMode::Broadcast:
        co_await broadcastKernel(u);
        break;
      case isa::MeshMode::Distribute:
        co_await distributeKernel(u);
        break;
      case isa::MeshMode::Parallel: {
        // One lane per distinct source, in order of first appearance:
        // lanes with distinct sources run concurrently; routes sharing
        // a source form one lane's destination cycle.
        for (auto r = u.routes.begin(); r != u.routes.end(); ++r)
            if (std::none_of(u.routes.begin(), r, [&](const auto &e) {
                    return e.src == r->src;
                }))
                lanes_.push_back(routeKernel(u, r->src));
        for (auto &t : lanes_)
            co_await t;
        lanes_.clear();
        break;
      }
    }
}

} // namespace rsn::fu
