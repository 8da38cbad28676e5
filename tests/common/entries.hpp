/**
 * @file
 * Run a compiled pipeline through every generated entry -- the OpenMP
 * entry, the task entry (each phase's tasks serially, phases in order)
 * and the instrumented entry -- so suites can check each against the
 * reference interpreter.
 */
#ifndef POLYMAGE_TESTS_COMMON_ENTRIES_HPP
#define POLYMAGE_TESTS_COMMON_ENTRIES_HPP

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "interp/interpreter.hpp"
#include "runtime/executor.hpp"

namespace polymage::testing {

/** @p opts with the task and instrumented entries switched on. */
inline CompileOptions
withEveryEntry(CompileOptions opts)
{
    opts.codegen.instrument = true;
    opts.codegen.taskABI = true;
    return opts;
}

/**
 * Outputs of each entry of @p exe (built with withEveryEntry), as
 * (entry name, outputs) pairs.
 */
inline std::vector<std::pair<std::string, std::vector<rt::Buffer>>>
runEveryEntry(const rt::Executable &exe,
              const std::vector<std::int64_t> &params,
              const std::vector<const rt::Buffer *> &inputs)
{
    const CompiledPipeline &c = exe.info();
    const auto &g = c.graph;
    auto fresh = [&] {
        std::vector<rt::Buffer> outs;
        for (int out : g.outputs())
            outs.emplace_back(g.stage(out).callable->dtype(),
                              interp::stageShape(g.stage(out), g, params));
        return outs;
    };
    std::vector<std::pair<std::string, std::vector<rt::Buffer>>> result;
    result.emplace_back("openmp", exe.run(params, inputs));

    std::vector<rt::Buffer> task_outs = fresh();
    {
        rt::BufferPool pool;
        const rt::TaskInvocation inv =
            exe.prepareTasks(params, inputs, task_outs, pool);
        for (long long p = 0; p < inv.phases(); ++p) {
            const long long n = inv.taskCount(p);
            if (n > 0)
                inv.run(p, 0, n - 1);
        }
    }
    result.emplace_back("task", std::move(task_outs));

    // The instrumented entry, called directly from the same units (a
    // cache hit when the JIT cache is on).
    rt::JitOptions jit;
    jit.vectorize = c.code.vectorizeMode != "off";
    const rt::JitModule mod = rt::JitModule::compile(c.code.units, jit);
    const auto instr =
        reinterpret_cast<rt::InstrFn>(mod.symbol(c.code.instrEntry));
    std::vector<rt::Buffer> instr_outs = fresh();
    std::vector<void *> ins, outs;
    for (const rt::Buffer *b : inputs)
        ins.push_back(const_cast<void *>(b->data()));
    for (rt::Buffer &b : instr_outs)
        outs.push_back(b.data());
    std::vector<long long> p(params.begin(), params.end());
    for (std::int64_t t : exe.dispatchTileSizes(params))
        p.push_back((long long)t);
    rt::BufferPool pool;
    std::vector<void *> slots;
    for (const auto &slot : c.storage.slots) {
        std::int64_t bytes = 0;
        for (int s : slot.stages) {
            std::int64_t numel = 1;
            for (std::int64_t d : interp::stageShape(g.stage(s), g, params))
                numel *= d;
            bytes = std::max(bytes, numel * std::int64_t(dsl::dtypeSize(
                                                c.storage.elemType(s, g))));
        }
        slots.push_back(pool.acquire(std::size_t(bytes)));
    }
    const long long cap = 1 << 16;
    std::vector<double> costs(cap);
    std::vector<long long> phases(cap);
    long long count = 0;
    double serial = 0.0;
    instr(p.data(), ins.data(), outs.data(), slots.data(), costs.data(),
          phases.data(), cap, &count, &serial);
    for (void *s : slots)
        pool.release(s);
    result.emplace_back("instrumented", std::move(instr_outs));
    return result;
}

} // namespace polymage::testing

#endif // POLYMAGE_TESTS_COMMON_ENTRIES_HPP
