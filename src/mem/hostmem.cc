#include "mem/hostmem.hh"

#include <cstring>

#include "common/log.hh"

namespace rsn::mem {

Addr
HostMemory::alloc(std::uint64_t elems, std::string name)
{
    rsn_assert(elems > 0, "empty allocation");
    Addr base = next_;
    Bytes bytes = elems * sizeof(float);
    // Keep regions 64-byte aligned like a real allocator would.
    next_ = (next_ + bytes + 63) & ~Addr(63);
    Region r{base, elems, std::move(name), {}};
    if (functional_)
        r.data.assign(elems, 0.0f);
    regions_.emplace(base, std::move(r));
    return base;
}

const HostMemory::Region *
HostMemory::find(Addr addr) const
{
    auto it = regions_.upper_bound(addr);
    if (it == regions_.begin())
        return nullptr;
    --it;
    const Region &r = it->second;
    if (addr >= r.base + r.elems * sizeof(float))
        return nullptr;
    return &r;
}

HostMemory::Region *
HostMemory::find(Addr addr)
{
    return const_cast<Region *>(
        static_cast<const HostMemory *>(this)->find(addr));
}

std::string
HostMemory::regionName(Addr addr) const
{
    const Region *r = find(addr);
    return r ? r->name : "";
}

void
HostMemory::readBlockInto(Addr addr, std::uint64_t pitch_elems,
                          std::uint32_t rows, std::uint32_t cols,
                          float *dst) const
{
    if (!functional_ || rows == 0 || cols == 0)
        return;
    const Region *r = find(addr);
    rsn_assert(r, "read from unmapped address 0x%llx (%ux%u pitch %llu)",
               static_cast<unsigned long long>(addr), rows, cols,
               static_cast<unsigned long long>(pitch_elems));
    const std::uint64_t off = (addr - r->base) / sizeof(float);
    // Bounds are validated once for the whole window (the furthest
    // element is the last row's end), then rows move as raw memcpys:
    // one per row, or a single block copy when the window is dense
    // (pitch == cols). This is the DDR/LPDDR FUs' load fast path.
    rsn_assert(off + std::uint64_t(rows - 1) * pitch_elems + cols <=
                   r->elems,
               "read past region end in '%s'", r->name.c_str());
    const float *src = r->data.data() + off;
    if (pitch_elems == cols) {
        std::memcpy(dst, src,
                    std::uint64_t(rows) * cols * sizeof(float));
        return;
    }
    for (std::uint32_t i = 0; i < rows; ++i)
        std::memcpy(dst + std::uint64_t(i) * cols,
                    src + std::uint64_t(i) * pitch_elems,
                    std::uint64_t(cols) * sizeof(float));
}

void
HostMemory::writeBlock(Addr addr, std::uint64_t pitch_elems,
                       std::uint32_t rows, std::uint32_t cols,
                       const float *data, std::size_t n)
{
    if (!functional_ || rows == 0 || cols == 0)
        return;
    Region *r = find(addr);
    rsn_assert(r, "write to unmapped address");
    rsn_assert(n >= std::uint64_t(rows) * cols,
               "write payload too small");
    const std::uint64_t off = (addr - r->base) / sizeof(float);
    // Mirror of readBlockInto: one bounds check for the window, then
    // per-row memcpy, collapsed to a single block copy when dense.
    rsn_assert(off + std::uint64_t(rows - 1) * pitch_elems + cols <=
                   r->elems,
               "write past region end in '%s'", r->name.c_str());
    float *dst = r->data.data() + off;
    if (pitch_elems == cols) {
        std::memcpy(dst, data,
                    std::uint64_t(rows) * cols * sizeof(float));
        return;
    }
    for (std::uint32_t i = 0; i < rows; ++i)
        std::memcpy(dst + std::uint64_t(i) * pitch_elems,
                    data + std::uint64_t(i) * cols,
                    std::uint64_t(cols) * sizeof(float));
}

void
HostMemory::fillRegion(Addr base, const std::vector<float> &values)
{
    if (!functional_)
        return;
    auto it = regions_.find(base);
    rsn_assert(it != regions_.end(), "fill of unknown region");
    rsn_assert(values.size() == it->second.elems, "fill size mismatch");
    it->second.data = values;
}

std::vector<float>
HostMemory::readRegion(Addr base) const
{
    const std::span<const float> r = region(base);
    return {r.begin(), r.end()};
}

std::span<const float>
HostMemory::region(Addr base) const
{
    auto it = regions_.find(base);
    rsn_assert(it != regions_.end(), "read of unknown region");
    return it->second.data;
}

std::span<float>
HostMemory::region(Addr base)
{
    auto it = regions_.find(base);
    rsn_assert(it != regions_.end(), "fill of unknown region");
    return it->second.data;
}

} // namespace rsn::mem
