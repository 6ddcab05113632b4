#include "lib/runner.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/log.hh"

namespace rsn::lib {

namespace {

/** Whether initTensors() seeds @p t; everything else starts zeroed. */
bool
seeded(const TensorInfo &t)
{
    return t.name == "input" || t.is_weight;
}

/** Policy @p p's (rtol, atol) for reference @p want: t and
 *  t * max(1, rms(want)) with t = accuracyBound(p). */
std::pair<float, float>
contractTolerance(const ref::Matrix &want, const core::PrecisionPolicy &p)
{
    const float bound = accuracyBound(p);
    double sq = 0;
    for (float v : want.data)
        sq += double(v) * v;
    const double rms =
        want.data.empty() ? 0.0 : std::sqrt(sq / want.data.size());
    return {bound, bound * float(std::max(1.0, rms))};
}

} // namespace

void
initTensors(core::RsnMachine &mach, const CompiledModel &compiled,
            std::uint32_t seed, float scale)
{
    if (!mach.host().functional())
        return;
    std::uint32_t salt = 1;
    for (const auto &t : compiled.tensors) {
        if (seeded(t))
            ref::fillRandom(mach.host().region(t.addr), seed + salt, scale);
        ++salt;
    }
}

SeededImage
captureSeeded(core::RsnMachine &mach, const CompiledModel &compiled)
{
    SeededImage image(compiled.tensors.size());
    for (std::size_t i = 0; i < compiled.tensors.size(); ++i) {
        const TensorInfo &t = compiled.tensors[i];
        if (seeded(t))
            image[i] = mach.host().readRegion(t.addr);
    }
    return image;
}

void
restoreTensors(core::RsnMachine &mach, const CompiledModel &compiled,
               const SeededImage &image)
{
    rsn_assert(image.size() == compiled.tensors.size(),
               "seeded image does not match the compiled model");
    for (std::size_t i = 0; i < compiled.tensors.size(); ++i) {
        const TensorInfo &t = compiled.tensors[i];
        const Addr addr =
            mach.host().alloc(std::uint64_t(t.rows) * t.cols, t.name);
        rsn_assert(addr == t.addr,
                   "tensor '%s' re-placed at 0x%llx, compiled at 0x%llx",
                   t.name.c_str(), (unsigned long long)addr,
                   (unsigned long long)t.addr);
        if (!image[i].empty())
            mach.host().fillRegion(addr, image[i]);
    }
}

ref::Matrix
readTensor(core::RsnMachine &mach, const CompiledModel &compiled,
           const std::string &name)
{
    const TensorInfo &t = compiled.tensor(name);
    ref::Matrix m(t.rows, t.cols);
    m.data = mach.host().readRegion(t.addr);
    rsn_assert(m.data.size() == std::size_t(t.rows) * t.cols,
               "tensor read shape mismatch");
    return m;
}

namespace {

/** Copy the h x w block of @p m whose top-left element is (r0, c0). */
ref::Matrix
copyBlock(const ref::Matrix &m, std::uint32_t r0, std::uint32_t h,
          std::uint32_t c0, std::uint32_t w)
{
    ref::Matrix out(h, w);
    for (std::uint32_t i = 0; i < h; ++i)
        for (std::uint32_t j = 0; j < w; ++j)
            out.at(i, j) = m.at(r0 + i, c0 + j);
    return out;
}

void
placeBlock(ref::Matrix &dst, const ref::Matrix &block, std::uint32_t r0,
           std::uint32_t c0)
{
    for (std::uint32_t i = 0; i < block.rows; ++i)
        for (std::uint32_t j = 0; j < block.cols; ++j)
            dst.at(r0 + i, c0 + j) = block.at(i, j);
}

} // namespace

std::map<std::string, ref::Matrix>
referenceForward(core::RsnMachine &mach, const Model &model,
                 const CompiledModel &compiled)
{
    std::map<std::string, ref::Matrix> acts;
    acts["input"] = readTensor(mach, compiled, "input");

    for (const auto &seg : model.segments) {
        if (const auto *l = std::get_if<LinearLayer>(&seg)) {
            const ref::Matrix &in =
                acts.at(l->in_src.empty() ? "input" : l->in_src);
            ref::Matrix w = readTensor(mach, compiled, "W." + l->name);
            ref::Matrix out = ref::matmul(in, w);
            if (l->bias) {
                ref::Matrix b = readTensor(mach, compiled,
                                           "b." + l->name);
                out = ref::addBias(out, b.data);
            }
            // Epilogue order matches MemC: residual, gelu, layernorm.
            if (l->residual)
                out = ref::add(out, acts.at(l->residual_src));
            if (l->gelu)
                out = ref::gelu(out);
            if (l->layernorm) {
                ref::Matrix ln = readTensor(mach, compiled,
                                            "ln." + l->name);
                std::vector<float> gamma(ln.data.begin(),
                                         ln.data.begin() + ln.cols);
                std::vector<float> beta(ln.data.begin() + ln.cols,
                                        ln.data.begin() + 2 * ln.cols);
                out = ref::layernorm(out, gamma, beta);
            }
            acts[l->out_name] = std::move(out);
        } else if (const auto *a = std::get_if<AttentionBlock>(&seg)) {
            const std::uint32_t batch = a->heads / a->heads_per_batch;
            ref::Matrix out(batch * a->seq, a->heads_per_batch * a->dhead);
            const ref::Matrix &q_all = acts.at(a->q_src);
            const ref::Matrix &k_all = acts.at(a->k_src);
            const ref::Matrix &v_all = acts.at(a->v_src);
            for (std::uint32_t h = 0; h < a->heads; ++h) {
                const std::uint32_t b = h / a->heads_per_batch;
                const std::uint32_t j = h % a->heads_per_batch;
                const std::uint32_t r0 = b * a->seq;
                ref::Matrix q =
                    copyBlock(q_all, r0, a->seq,
                              a->q_col_off + j * a->dhead, a->dhead);
                ref::Matrix k =
                    copyBlock(k_all, r0, a->seq,
                              a->k_col_off + j * a->dhead, a->dhead);
                ref::Matrix v =
                    copyBlock(v_all, r0, a->seq,
                              a->v_col_off + j * a->dhead, a->dhead);
                ref::Matrix probs = ref::softmax(ref::matmulBt(q, k));
                ref::Matrix ctx = ref::matmul(probs, v);
                placeBlock(out, ctx, r0, j * a->dhead);
            }
            acts[a->out_name] = std::move(out);
        }
    }
    return acts;
}

float
accuracyBound(const core::PrecisionPolicy &p)
{
    const bool all_f32 = p.linear_weights == Dtype::F32 &&
                         p.linear_activations == Dtype::F32 &&
                         p.attention_activations == Dtype::F32;
    return all_f32 ? 2e-3f : 5e-2f;
}

bool
meetsAccuracyBound(const ref::Matrix &got, const ref::Matrix &want,
                   const core::PrecisionPolicy &p, std::string *why)
{
    const auto [rtol, atol] = contractTolerance(want, p);
    return ref::allclose(got, want, rtol, atol, why);
}

Expectations
expectations(std::map<std::string, ref::Matrix> refs,
             const core::PrecisionPolicy &p)
{
    Expectations out;
    for (auto &[name, want] : refs) {
        if (name == "input")
            continue;
        const auto [rtol, atol] = contractTolerance(want, p);
        out.emplace(name, Expected{std::move(want), rtol, atol});
    }
    return out;
}

CheckedRun
runVerified(core::RsnMachine &mach, const CompiledModel &compiled,
            const Expectations &expect, Tick max_ticks)
{
    CheckedRun cr;
    cr.report = mach.runChecked(compiled.program, max_ticks);

    if (mach.host().functional() && cr.report.ok()) {
        std::string detail;
        for (const auto &[name, e] : expect) {
            if (!compiled.hasTensor(name))
                continue;
            // Compare in place against the host region; only a failure
            // pays for a copy and the scalar pass that names the first
            // diverged element.
            const TensorInfo &t = compiled.tensor(name);
            if (t.rows == e.want.rows && t.cols == e.want.cols &&
                ref::allcloseFast(mach.host().region(t.addr), e.want.data,
                                  e.rtol, e.atol))
                continue;
            std::string why;
            const bool met =
                ref::allclose(readTensor(mach, compiled, name), e.want,
                              e.rtol, e.atol, &why);
            rsn_assert(!met, "in-place and scalar compares disagree on %s",
                       name.c_str());
            detail += (detail.empty() ? "" : "; ") + name + " " + why;
            cr.mismatched.push_back(name);
        }
        if (!cr.mismatched.empty())
            cr.report.status = Status::error(
                StatusCode::OutputMismatch,
                "diverged from the reference: " + detail);
    }
    return cr;
}

CheckedRun
runModelChecked(core::RsnMachine &mach, const Model &model,
                const CompiledModel &compiled, std::uint32_t seed,
                Tick max_ticks)
{
    initTensors(mach, compiled, seed);
    Expectations expect;
    if (mach.host().functional())
        expect = expectations(referenceForward(mach, model, compiled),
                              mach.config().precision);
    return runVerified(mach, compiled, expect, max_ticks);
}

} // namespace rsn::lib
