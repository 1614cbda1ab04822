// Heap allocations per warm guest invoke.  A transformed program pays for
// invokes, not instructions (every field access becomes an interface
// call), so a warm invoke must not touch the heap: frames are windows on
// the interpreter's value stack, site caches reach the callee's record
// directly, and natives are bound once.  This binary replaces the global
// allocation functions with counting ones and measures one warm
// transformed Driver.spin(500) — 1,004 guest invokes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "transform/local_binder.hpp"
#include "transform/pipeline.hpp"
#include "vm/interp.hpp"
#include "vm/prelude.hpp"

namespace {
bool g_counting = false;
std::size_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
    if (g_counting) ++g_allocations;
    return std::malloc(n ? n : 1);
}
}  // namespace

void* operator new(std::size_t n) {
    if (void* p = counted_alloc(n)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
    if (void* p = counted_alloc(n)) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace rafda::vm {
namespace {

constexpr const char* kHotField = R"(
class Cell {
  field v J
  ctor ()V {
    return
  }
}
class Driver {
  static method spin (LCell;I)J {
    locals 2
  Top:
    load 1
    const 0
    cmple
    iftrue Done
    load 0
    load 0
    getfield Cell.v J
    const 1L
    add
    putfield Cell.v J
    load 1
    const 1
    sub
    store 1
    goto Top
  Done:
    load 0
    getfield Cell.v J
    returnvalue
  }
}
)";

TEST(InvokeAllocations, WarmTransformedSpinStaysOffTheHeap) {
    model::ClassPool pool;
    install_prelude(pool);
    model::assemble_into(pool, kHotField);
    model::verify_pool(pool);
    transform::PipelineResult result = transform::run_pipeline(pool);
    Interpreter interp(result.pool);
    bind_prelude_natives(interp);
    transform::bind_local_factories(interp, result.report);
    Value cell = interp.call_static("Cell_O_Factory", "make", "()LCell_O_Int;");
    interp.call_static("Cell_O_Factory", "init", "(LCell_O_Int;)V", {cell});
    auto spin = [&] {
        return transform::call_transformed_static(interp, pool, result.report, "Driver",
                                                  "spin", "(LCell;I)J",
                                                  {cell, Value::of_int(500)});
    };
    EXPECT_EQ(spin().as_long(), 500);  // cold: fills every cache

    const std::uint64_t invokes_before = interp.counters().total_invokes();
    g_allocations = 0;
    g_counting = true;
    const Value warm = spin();
    g_counting = false;
    EXPECT_EQ(warm.as_long(), 1000);
    EXPECT_EQ(interp.counters().total_invokes() - invokes_before, 1004u);
    // What is left is the host side of the call: the argument vector, the
    // descriptor strings the helper builds and the result.  None of it
    // scales with the guest invokes.
    EXPECT_LE(g_allocations, 16u);
}

}  // namespace
}  // namespace rafda::vm
