#include "isa/packet.hh"

#include <algorithm>
#include <bit>
#include <optional>

#include "common/log.hh"

namespace rsn::isa {

namespace {

/** MeshMode names, in enumerator order. */
constexpr const char *kMeshModes[] = {"par", "bcast", "dist"};

/** The uOP kind each opcode's packets carry, in FuType order. */
const Uop kKinds[] = {MmeUop{},  MemAUop{}, MemBUop{}, MemCUop{},
                      MeshUop{}, MeshUop{}, DdrUop{},  LpddrUop{}};
static_assert(std::size(kKinds) == kNumFuTypes);

/** uOP kind names, in Uop alternative order. */
constexpr const char *kKindNames[] = {"mme",  "ddr",  "lpddr", "mesh",
                                      "memA", "memB", "memC",  "halt"};
static_assert(std::size(kKindNames) == std::variant_size_v<Uop>);

/** A field value's unsigned wire code. */
template <class T>
std::uint64_t
code(const T &v)
{
    if constexpr (std::is_same_v<T, FuId>)
        return std::uint64_t(v.type) << 4 | v.index;
    else
        return std::uint64_t(v);
}

/** The value of T whose code is @p c; nullopt for an enum code past the
 *  last enumerator. FuType codes run to NumTypes (kNoFu's type). */
template <class T>
std::optional<T>
fromCode(std::uint64_t c)
{
    if constexpr (std::is_same_v<T, FuId>) {
        if (const auto type = fromCode<FuType>(c >> 4))
            return FuId{*type, std::uint8_t(c & 15)};
        return std::nullopt;
    } else {
        const std::uint64_t end =
            std::is_same_v<T, FuType>     ? kNumFuTypes + 1
            : std::is_same_v<T, MeshMode> ? std::size(kMeshModes)
            : std::is_same_v<T, Dtype>    ? kNumDtypes
                                          : ~0ull;
        return c < end ? std::optional<T>(T(c)) : std::nullopt;
    }
}

template <class T>
std::string
render(const T &v)
{
    if constexpr (std::is_same_v<T, FuId>)
        return v == kNoFu ? "none"
                          : fuTypeName(v.type) + std::to_string(v.index);
    else if constexpr (std::is_same_v<T, Dtype>)
        return dtypeName(v);
    else if constexpr (std::is_same_v<T, MeshMode>)
        return fromCode<T>(code(v)) ? kMeshModes[int(v)] : "?";
    else
        return std::to_string(code(v));
}

/** Packs fields LSB-first into little-endian bytes; with no @c out it
 *  only counts their bits. */
struct Writer {
    std::vector<std::uint8_t> *out;
    std::uint64_t bits = 0;
    template <class T>
    void operator()(const char *, const T &v, unsigned n) { put(code(v), n); }
    void pad(unsigned n) { put(0, n); }
    void
    put(std::uint64_t c, unsigned n)
    {
        if (!out)
            bits += n;
        for (unsigned i = 0; out && i < n; ++i, ++bits) {
            if (bits % 8 == 0)
                out->push_back(0);
            out->back() |= (c >> i & 1) << bits % 8;
        }
    }
};

/** The Writer's inverse. Bits past the end of @c in read as zero; the
 *  disassembler checks the cursor for truncation. */
struct Reader {
    const std::vector<std::uint8_t> &in;
    std::uint64_t bits = 0;
    const char *kind = "";  ///< The table being read.
    std::string error = {};  ///< The first field read that names no value.
    template <class T>
    void
    operator()(const char *name, T &v, unsigned n)
    {
        const std::uint64_t c = get(n);
        if (auto x = fromCode<T>(c))
            v = *x;
        else if (error.empty())
            error = std::string(kind) + " " + name + " code " +
                    std::to_string(c) + " is out of range";
    }
    void
    pad(unsigned n)
    {
        if (get(n) && error.empty())
            error = kind + std::string(" reserved bits set");
    }
    std::uint64_t
    get(unsigned n)
    {
        std::uint64_t c = 0;
        for (unsigned i = 0; i < n; ++i, ++bits)
            if (bits / 8 < in.size())
                c |= std::uint64_t(in[bits / 8] >> bits % 8 & 1) << i;
        return c;
    }
};

/** Renders " name=value" for every field or, with @c misfits, only for
 *  the fields whose value their width cannot carry. */
struct Printer {
    bool misfits;
    std::string s = {};
    template <class T>
    void
    operator()(const char *name, const T &v, unsigned n)
    {
        const bool fits = !(code(v) >> n) && fromCode<T>(code(v)) == v;
        if (!misfits || !fits)
            s += std::string(" ") + name + "=" + render(v) +
                 (fits ? "" : " does not fit its " + std::to_string(n) +
                                  "-bit field");
    }
    void pad(unsigned) {}
};

/** Walk @p io over the field table of @p u's kind. */
template <class Io, class V>
void
walk(Io &io, V &u)
{
    std::visit([&io](auto &v) { std::decay_t<decltype(v)>::wire(io, v); }, u);
}

} // namespace

Bytes
uopWireBytes(const Uop &u)
{
    Writer w{nullptr};
    walk(w, u);
    return w.bits / 8;
}

std::string
uopToString(const Uop &u)
{
    Printer p{false};
    walk(p, u);
    return kKindNames[u.index()] + p.s;
}

const Uop kHaltUop = HaltUop{};

Uop
uopKindFor(FuType t)
{
    return t < FuType::NumTypes ? kKinds[int(t)] : HaltUop{};
}

bool
uopMatchesFuType(const Uop &u, FuType t)
{
    return u.index() == uopKindFor(t).index();
}

Bytes
RsnPacket::wireBytes() const
{
    Writer w{nullptr};
    header(w, *this);
    for (const auto &m : mops)
        walk(w, m);
    return w.bits / 8;
}

bool
RsnPacket::valid(std::string *why) const
{
    auto fail = [&](std::string msg) {
        if (why)
            *why = std::move(msg);
        return false;
    };
    if (opcode == FuType::NumTypes)
        return fail("invalid opcode");
    if (mask == 0)
        return fail("empty FU mask");
    if (reuse == 0)
        return fail("reuse is 0");
    if (!last && mops.empty())
        return fail("non-last packet with empty window");
    Printer misfits{true};
    header(misfits, *this);
    if (!misfits.s.empty())
        return fail("header" + misfits.s);
    for (const auto &m : mops) {
        if (!uopMatchesFuType(m, opcode))
            return fail("uOP kind does not match packet opcode");
        walk(misfits, m);
        if (!misfits.s.empty())
            return fail(kKindNames[m.index()] + misfits.s);
    }
    return true;
}

std::uint32_t
mopBlocks(const Uop &mop)
{
    if (const auto *d = std::get_if<DdrUop>(&mop))
        return d->stride_count;
    if (const auto *l = std::get_if<LpddrUop>(&mop))
        return l->stride_count;
    return 1;
}

void
expandMopInto(const Uop &mop, std::vector<Uop> &out)
{
    auto unroll = [&out](const auto &m) {
        auto u = m;
        u.stride_count = 1;
        u.stride_offset = 0;
        for (std::uint32_t i = 0; i < m.stride_count; ++i) {
            u.addr = blockAddr(m, i);
            out.emplace_back(u);
        }
    };
    if (const auto *d = std::get_if<DdrUop>(&mop))
        unroll(*d);
    else if (const auto *l = std::get_if<LpddrUop>(&mop))
        unroll(*l);
    else
        out.push_back(mop);
}

namespace {

template <typename T>
bool
mergeStrideInto(T &acc, const T &next)
{
    // Geometry and flow must match exactly (only addr may differ).
    T a = acc, b = next;
    a.addr = b.addr = 0;
    a.stride_count = b.stride_count = 1;
    a.stride_offset = b.stride_offset = 0;
    if (!(a == b))
        return false;
    if (acc.stride_count == 1) {
        if (next.addr <= acc.addr || next.addr - acc.addr > 0xffffffffull)
            return false;
        acc.stride_offset = static_cast<std::uint32_t>(next.addr - acc.addr);
        acc.stride_count = 2;
        return true;
    }
    if (next.addr != blockAddr(acc, acc.stride_count) ||
        acc.stride_count >= 0xfff0)
        return false;
    ++acc.stride_count;
    return true;
}

} // namespace

bool
mergeStride(DdrUop &acc, const DdrUop &next)
{
    return mergeStrideInto(acc, next);
}

bool
mergeStride(LpddrUop &acc, const LpddrUop &next)
{
    return mergeStrideInto(acc, next);
}

void
RsnProgram::appendHalts(const std::array<int, kNumFuTypes> &counts)
{
    for (int t = 0; t < kNumFuTypes; ++t)
        if (counts[t] > 0)
            packets_.push_back({.opcode = FuType(t),
                                .mask = std::uint8_t((1u << counts[t]) - 1),
                                .last = true});
}

void
RsnProgram::validate() const
{
    for (std::size_t i = 0; i < packets_.size(); ++i) {
        std::string why;
        if (!packets_[i].valid(&why))
            rsn_fatal("packet %zu invalid: %s", i, why.c_str());
    }
}

std::uint64_t
RsnProgram::packetCount(FuType t) const
{
    return std::count_if(packets_.begin(), packets_.end(),
                         [t](const RsnPacket &p) { return p.opcode == t; });
}

Bytes
RsnProgram::instructionBytes(FuType t) const
{
    Bytes b = 0;
    for (const auto &p : packets_)
        if (p.opcode == t)
            b += p.wireBytes();
    return b;
}

Bytes
RsnProgram::totalBytes() const
{
    Bytes b = 0;
    for (const auto &p : packets_)
        b += p.wireBytes();
    return b;
}

Bytes
RsnProgram::expandedUopBytes(FuType t) const
{
    Bytes b = 0;
    for (const auto &p : packets_) {
        if (p.opcode != t)
            continue;
        int fanout = std::popcount(p.mask);
        // Every block of a strided mOP has the mOP's own wire layout.
        Bytes per_pass = 0;
        for (const auto &m : p.mops)
            per_pass += mopBlocks(m) * uopWireBytes(m);
        b += per_pass * p.reuse * fanout;
        if (p.last)
            b += uopWireBytes(HaltUop{}) * fanout;
    }
    return b;
}

std::uint64_t
RsnProgram::uopCountFor(FuId fu) const
{
    std::uint64_t n = 0;
    for (const auto &p : packets_) {
        if (p.opcode != fu.type || !(p.mask & (1u << fu.index)))
            continue;
        std::uint64_t window = 0;
        for (const auto &m : p.mops)
            window += mopBlocks(m);
        n += window * p.reuse;
        if (p.last)
            ++n;
    }
    return n;
}

std::vector<std::uint8_t>
assemble(const RsnProgram &prog)
{
    std::vector<std::uint8_t> out;
    Writer w{&out};
    for (const auto &p : prog.packets()) {
        RsnPacket::header(w, p);
        for (const auto &m : p.mops)
            walk(w, m);
    }
    return out;
}

Status
disassemble(const std::vector<std::uint8_t> &bytes, RsnProgram &out)
{
    RsnProgram prog;
    Reader r{bytes};
    while (r.bits < 8 * bytes.size()) {
        const std::uint64_t at = r.bits / 8;
        RsnPacket p;
        r.kind = "header";
        RsnPacket::header(r, p);
        for (Uop &m : p.mops) {
            m = uopKindFor(p.opcode);
            r.kind = kKindNames[m.index()];
            walk(r, m);
        }
        std::string why = r.bits > 8 * bytes.size() ? "truncated" : r.error;
        if (!why.empty() || !p.valid(&why))
            return Status::error(
                StatusCode::InvalidConfig,
                detail::formatv("packet %zu at byte %llu: %s", prog.size(),
                                static_cast<unsigned long long>(at),
                                why.c_str()));
        prog.append(std::move(p));
    }
    out = std::move(prog);
    return Status::success();
}

} // namespace rsn::isa
