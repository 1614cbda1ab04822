// self_optimizing — closing the paper's loop: the middleware *observes* who
// talks to whom, *decides* new placements and *acts* by moving the live
// objects — all in the AdaptationEngine.  No application change, no
// operator.
//
// Deployment starts wrong on purpose: the three services live on node 2
// while all the callers are on node 0.  The engine tracks the three
// instances; after one observation window a single controller tick moves
// each hot service next to its callers (or, for the read-only Pricer,
// gives node 0 a local replica).  The caller's forwarding chains are then
// shortened, and the next window costs (almost) nothing.
#include <iomanip>
#include <iostream>
#include <utility>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace {

constexpr const char* kApp = R"RIR(
class Catalog {
  field items I
  ctor ()V {
    return
  }
  method count ()I {
    load 0
    load 0
    getfield Catalog.items I
    const 1
    add
    putfield Catalog.items I
    load 0
    getfield Catalog.items I
    returnvalue
  }
}
class Pricer {
  ctor ()V {
    return
  }
  method quote (I)I {
    load 1
    const 3
    mul
    returnvalue
  }
}
class Audit {
  field entries I
  ctor ()V {
    return
  }
  method log ()V {
    load 0
    load 0
    getfield Audit.entries I
    const 1
    add
    putfield Audit.entries I
    return
  }
}
)RIR";

}  // namespace

int main() {
    using namespace rafda;
    using vm::Value;

    model::ClassPool original;
    vm::install_prelude(original);
    model::assemble_into(original, kApp);
    model::verify_pool(original);

    runtime::System system(original);
    system.add_node();  // node 0: the web tier (all the callers)
    system.add_node();  // node 1: spare
    system.add_node();  // node 2: where everything was (mis)deployed

    for (const char* cls : {"Catalog", "Pricer", "Audit"})
        system.policy().set_instance_home(cls, 2, "RMI");

    Value catalog = system.construct(0, "Catalog", "()V");
    Value pricer = system.construct(0, "Pricer", "()V");
    Value audit = system.construct(0, "Audit", "()V");
    const std::pair<const char*, Value> services[] = {
        {"Catalog", catalog}, {"Pricer", pricer}, {"Audit", audit}};

    // The engine finds singletons by itself; instances are registered.
    system.enable_adaptation();
    for (const auto& [cls, ref] : services) {
        auto [n, oid] = system.resolve_terminal(0, ref.as_ref());
        system.adaptation()->track_instance(cls, n, oid);
    }
    vm::Interpreter& web = system.node(0).interp();

    auto window = [&](int requests) {
        std::uint64_t t0 = system.network().now_us();
        for (int r = 0; r < requests; ++r) {
            web.call_virtual(catalog, "count", "()I");
            web.call_virtual(pricer, "quote", "(I)I", {Value::of_int(r)});
            web.call_virtual(audit, "log", "()V");
        }
        return system.network().now_us() - t0;
    };

    std::cout << "window 1 (everything on node 2, callers on node 0): "
              << window(25) << "us\n\n";

    // Observe + decide + act: one forced controller tick.
    system.adaptation_tick(/*force=*/true);
    std::cout << "controller decisions:\n";
    for (const runtime::AdaptDecision& d : system.adaptation()->decisions())
        std::cout << "  " << std::left << std::setw(10)
                  << runtime::adapt_action_name(d.action) << std::setw(8) << d.cls
                  << " node " << d.from << " -> node " << d.to << "  ("
                  << d.window_calls << " remote calls, " << d.window_bytes
                  << " wire bytes in the window)\n";

    // The caller's references still chain through node 2: collapse them.
    for (const auto& [cls, ref] : services)
        if (system.resolve_terminal(0, ref.as_ref()).first == 0)
            system.shorten_chain(0, ref.as_ref());
    std::cout << "\nmigrated " << system.migrations() << " objects\n";

    std::cout << "window 2 (after self-optimisation):                  "
              << window(25) << "us\n";
    std::cout << "\nsame objects, same references, same code — the distribution\n"
                 "boundary moved itself to where the traffic is.\n";
    return 0;
}
