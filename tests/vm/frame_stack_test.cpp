// Guest frames are windows on one value stack per interpreter (DESIGN.md
// §11): an invoke hands the callee its arguments in place, the stack grows
// by segments that never move under a live frame, and natives are bound
// once per (class, method).  These tests pin the cases that layout makes
// delicate: re-entry from a native while the caller's operands are live,
// growth in the middle of such a re-entry, unwinding across frames, and a
// native re-registered behind a warm call site.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "support/error.hpp"
#include "vm/interp.hpp"
#include "vm/prelude.hpp"

namespace rafda::vm {
namespace {

struct Fixture {
    model::ClassPool pool;
    std::unique_ptr<Interpreter> interp;

    explicit Fixture(const char* src) {
        install_prelude(pool);
        model::assemble_into(pool, src);
        model::verify_pool(pool);
        interp = std::make_unique<Interpreter>(pool);
        bind_prelude_natives(*interp);
    }
};

// step(n) = n + down(n - 1), with a string and `n` live on step's operand
// stack across the native call; the native re-enters the interpreter with
// step(n - 1).  So down(n) = n * (n + 1) / 2, built through 2n nested
// entries, alternating guest frames and native re-entries.
constexpr const char* kReentry = R"(
class R {
  native static method down (I)I
  static method step (I)I {
    locals 1
    const "keep"
    load 0
    load 0
    const 1
    sub
    invokestatic R.down (I)I
    add
    swap
    pop
    returnvalue
  }
}
)";

void bind_down(Interpreter& vm) {
    vm.register_native("R", "down", "(I)I",
                       [](Interpreter& in, const Value&, std::vector<Value> args) {
                           const std::int32_t n = args.at(0).as_int();
                           if (n == 0) return Value::of_int(0);
                           return in.call_static("R", "step", "(I)I", {Value::of_int(n)});
                       });
}

TEST(FrameStack, NativeReentryGrowsTheStackUnderLiveOperands) {
    Fixture f(kReentry);
    bind_down(*f.interp);
    // 600 guest frames of 4 slots each: far past the first segment, so
    // the stack grows several times while every caller below holds live
    // operands (its "keep" string and its n).
    constexpr std::int32_t kDepth = 600;
    EXPECT_EQ(f.interp->call_static("R", "step", "(I)I", {Value::of_int(kDepth)}).as_int(),
              kDepth * (kDepth + 1) / 2);
    EXPECT_EQ(f.interp->counters().native_calls, static_cast<std::uint64_t>(kDepth));
    // The stack unwound completely: shallow and deep calls still agree.
    EXPECT_EQ(f.interp->call_static("R", "step", "(I)I", {Value::of_int(3)}).as_int(), 6);
    EXPECT_EQ(f.interp->call_static("R", "step", "(I)I", {Value::of_int(kDepth)}).as_int(),
              kDepth * (kDepth + 1) / 2);
}

TEST(FrameStack, GuestThrowCaughtThreeFramesUpRestoresTheOperandTop) {
    Fixture f(R"(
class E {
  static method thrower (I)I {
    new Throwable
    dup
    const "deep"
    invokespecial Throwable.<init> (S)V
    throw
  }
  static method mid1 (I)I {
    const 7
    const 8
    load 0
    invokestatic E.thrower (I)I
    add
    add
    returnvalue
  }
  static method mid2 (I)I {
    const 5
    load 0
    invokestatic E.mid1 (I)I
    add
    returnvalue
  }
  static method plus (II)I {
    load 0
    load 1
    add
    returnvalue
  }
  static method top (I)I {
    locals 2
    const 100
    store 1
    const 1
    const 2
  S:
    load 0
    invokestatic E.mid2 (I)I
    pop
  E:
    const -1
    returnvalue
  H:
    pop
    load 1
    const 20
    const 3
    invokestatic E.plus (II)I
    add
    returnvalue
    catch Throwable from S to E using H
  }
}
)");
    // thrower -> mid1 -> mid2 unwind with live operands (7, 8 and 5) in
    // every frame; top's handler starts on an operand stack holding only
    // the thrown object, its locals intact, and goes on calling.
    for (int k = 0; k < 3; ++k)
        EXPECT_EQ(f.interp->call_static("E", "top", "(I)I", {Value::of_int(k)}).as_int(), 123);
    EXPECT_EQ(f.interp->call_static("E", "plus", "(II)I", {Value::of_int(40), Value::of_int(2)})
                  .as_int(),
              42);
}

TEST(FrameStack, ReregisteredNativeBehindAWarmSiteDispatchesToTheNewFunction) {
    Fixture f(R"(
class N {
  ctor ()V {
    return
  }
  native static method f (I)I
  static method call (I)I {
    load 0
    invokestatic N.f (I)I
    returnvalue
  }
  static method callP (LP;I)I {
    load 0
    load 1
    invokevirtual P.g (I)I
    returnvalue
  }
}
class P {
  ctor ()V {
    return
  }
  native method g (I)I
}
)");
    f.interp->register_native("N", "f", "(I)I", [](Interpreter&, const Value&,
                                                   std::vector<Value> args) {
        return Value::of_int(args.at(0).as_int() + 1);
    });
    f.interp->register_class_native("P", [](Interpreter&, const model::Method&, const Value&,
                                            std::vector<Value> args) {
        return Value::of_int(args.at(0).as_int() + 2);
    });
    Value p = f.interp->construct("P", "()V", {});
    for (int k = 0; k < 2; ++k) {  // warm both sites and both bindings
        EXPECT_EQ(f.interp->call_static("N", "call", "(I)I", {Value::of_int(1)}).as_int(), 2);
        EXPECT_EQ(f.interp->call_static("N", "callP", "(LP;I)I", {p, Value::of_int(1)}).as_int(),
                  3);
    }
    const std::uint64_t misses = f.interp->counters().ic_invoke_misses;
    const std::uint64_t hits = f.interp->counters().ic_invoke_hits;

    f.interp->register_native("N", "f", "(I)I", [](Interpreter&, const Value&,
                                                   std::vector<Value> args) {
        return Value::of_int(args.at(0).as_int() * 10);
    });
    f.interp->register_class_native("P", [](Interpreter&, const model::Method&, const Value&,
                                            std::vector<Value> args) {
        return Value::of_int(args.at(0).as_int() * 100);
    });
    EXPECT_EQ(f.interp->call_static("N", "call", "(I)I", {Value::of_int(1)}).as_int(), 10);
    EXPECT_EQ(f.interp->call_static("N", "callP", "(LP;I)I", {p, Value::of_int(1)}).as_int(),
              100);
    // Rebinding a native is not an inline-cache event: both sites stay warm.
    EXPECT_EQ(f.interp->counters().ic_invoke_misses, misses);
    EXPECT_EQ(f.interp->counters().ic_invoke_hits, hits + 2);

    // A method-level native registered later takes precedence over the
    // class handler, as it does on a cold site.
    f.interp->register_native("P", "g", "(I)I", [](Interpreter&, const Value&,
                                                   std::vector<Value> args) {
        return Value::of_int(-args.at(0).as_int());
    });
    EXPECT_EQ(f.interp->call_static("N", "callP", "(LP;I)I", {p, Value::of_int(1)}).as_int(),
              -1);
}

TEST(FrameStack, ApiArgumentsBeyondTheDescriptorAreDropped) {
    // Frames are sized from the method, not from the argument list: extra
    // host arguments are ignored and missing ones read as null, as before.
    Fixture f(R"(
class A {
  static method first (II)I {
    load 0
    returnvalue
  }
  static method second (II)Z {
    load 1
    const null
    cmpeq
    returnvalue
  }
}
)");
    EXPECT_EQ(f.interp
                  ->call_static("A", "first", "(II)I",
                                {Value::of_int(4), Value::of_int(5), Value::of_int(6)})
                  .as_int(),
              4);
    EXPECT_TRUE(
        f.interp->call_static("A", "second", "(II)Z", {Value::of_int(4)}).as_bool());
}

}  // namespace
}  // namespace rafda::vm
