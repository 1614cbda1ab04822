// Structural verifier for class pools.
//
// Plays the role of the JVM bytecode verifier: the transformation pipeline
// is only allowed to assume properties of code "that has already been
// verified by a standard compiler" (paper, Sec 2.1), and its *output* must
// verify too — every generated pool is re-verified in tests.
//
// Checks performed:
//   - hierarchy: superclasses/interfaces exist, correct kind, no cycles;
//   - interfaces declare only public abstract instance methods, no fields;
//   - member uniqueness: field names and (method name, descriptor) pairs;
//   - symbolic references resolve: field/method/new operands name existing
//     classes and members with matching descriptors and staticness;
//   - `new` targets are instantiable (non-interface, no unimplemented
//     abstract methods);
//   - code sanity: branch targets in range, slots < max_locals, and a
//     stack-depth dataflow pass proving operand counts are consistent on
//     every path and never underflow.
#pragma once

#include <string>
#include <vector>

#include "model/classpool.hpp"

namespace rafda::support {
class ThreadPool;
}

namespace rafda::model {

/// Verifies the whole pool; throws VerifyError naming the first problem.
/// With a thread pool, classes are checked concurrently (every check is a
/// pure read of the pool) and the problem list is merged in class name
/// order, so the reported problems — including which one the thrown
/// VerifyError names — are identical to the serial run.
void verify_pool(const ClassPool& pool, support::ThreadPool* threads = nullptr);

/// Like verify_pool but collects all problems instead of throwing.
std::vector<std::string> verify_pool_collect(const ClassPool& pool,
                                             support::ThreadPool* threads = nullptr);

/// The verifier's operand-stack dataflow over one method body: every
/// reachable pc must be entered at one depth, and no instruction may pop
/// more than the stack holds.  The interpreter sizes frames from `max`.
struct StackDepth {
    int max = 0;          ///< deepest operand stack on any reachable path
    std::string problem;  ///< the first inconsistency found; empty if none
};
StackDepth stack_depth(const Method& m);

}  // namespace rafda::model
