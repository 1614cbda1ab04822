#include "model/verifier.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>

#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace rafda::model {

namespace {

class Verifier {
public:
    explicit Verifier(const ClassPool& pool) : pool_(pool) {}

    std::vector<std::string> run() {
        for (const ClassFile* cf : pool_.all()) check_class(*cf);
        return std::move(problems_);
    }

    /// Checks a single class; used by the parallel mode, which verifies
    /// every class with its own Verifier and merges the problem lists.
    std::vector<std::string> run_one(const ClassFile& cf) {
        check_class(cf);
        return std::move(problems_);
    }

private:
    void problem(const std::string& where, const std::string& what) {
        problems_.push_back(where + ": " + what);
    }

    void check_class(const ClassFile& cf) {
        if (cf.name.empty()) {
            problem("<anonymous>", "class with empty name");
            return;
        }
        check_hierarchy(cf);
        check_members(cf);
        for (const Method& m : cf.methods) {
            if (!m.is_native && !m.is_abstract) check_code(cf, m);
            if (cf.is_interface) {
                if (!m.is_abstract)
                    problem(cf.name + "." + m.name, "interface method must be abstract");
                if (m.vis != Visibility::Public)
                    problem(cf.name + "." + m.name, "interface method must be public");
                if (m.is_static)
                    problem(cf.name + "." + m.name, "interface method cannot be static");
            }
        }
        if (cf.is_interface && !cf.fields.empty())
            problem(cf.name, "interfaces cannot declare fields");
    }

    void check_hierarchy(const ClassFile& cf) {
        if (!cf.super_name.empty()) {
            const ClassFile* super = pool_.find(cf.super_name);
            if (!super) problem(cf.name, "unknown superclass " + cf.super_name);
            else if (super->is_interface)
                problem(cf.name, "superclass " + cf.super_name + " is an interface");
        }
        for (const std::string& i : cf.interfaces) {
            const ClassFile* icf = pool_.find(i);
            if (!icf) problem(cf.name, "unknown interface " + i);
            else if (!icf->is_interface)
                problem(cf.name, "implements non-interface " + i);
        }
        // Cycle check along the superclass chain and interface graph.
        std::set<std::string> seen;
        std::vector<std::string> work{cf.name};
        bool first = true;
        while (!work.empty()) {
            std::string cur = std::move(work.back());
            work.pop_back();
            if (!first && cur == cf.name) {
                problem(cf.name, "inheritance cycle");
                return;
            }
            first = false;
            if (!seen.insert(cur).second) continue;
            const ClassFile* c = pool_.find(cur);
            if (!c) continue;
            if (!c->super_name.empty()) work.push_back(c->super_name);
            for (const std::string& i : c->interfaces) work.push_back(i);
        }
    }

    /// For arrays, the innermost element type; identity otherwise.
    static TypeDesc base_type(const TypeDesc& t) {
        TypeDesc base = t;
        while (base.is_array()) base = base.element();
        return base;
    }

    void check_members(const ClassFile& cf) {
        std::set<std::string> field_names;
        for (const Field& f : cf.fields) {
            if (!field_names.insert(f.name).second)
                problem(cf.name, "duplicate field " + f.name);
            if (f.type.is_void()) problem(cf.name + "." + f.name, "void field");
            TypeDesc base = base_type(f.type);
            if (base.is_ref() && !pool_.contains(base.class_name()))
                problem(cf.name + "." + f.name,
                        "field type names unknown class " + base.class_name());
        }
        std::set<std::string> method_keys;
        for (const Method& m : cf.methods) {
            if (!method_keys.insert(m.name + m.descriptor()).second)
                problem(cf.name, "duplicate method " + m.name + m.descriptor());
            check_sig_types(cf.name + "." + m.name, m.sig);
            if (m.is_ctor() && m.is_static)
                problem(cf.name + "." + m.name, "static constructor");
            if (m.is_clinit() && !m.is_static)
                problem(cf.name + "." + m.name, "non-static <clinit>");
        }
    }

    void check_sig_types(const std::string& where, const MethodSig& sig) {
        for (const TypeDesc& p : sig.params()) {
            TypeDesc base = base_type(p);
            if (base.is_ref() && !pool_.contains(base.class_name()))
                problem(where, "parameter names unknown class " + base.class_name());
        }
        TypeDesc ret_base = base_type(sig.ret());
        if (ret_base.is_ref() && !pool_.contains(ret_base.class_name()))
            problem(where, "return type names unknown class " + ret_base.class_name());
    }

    /// True if `cf` (a class) has an unimplemented abstract method anywhere
    /// in its superclass chain or interfaces.
    bool has_unimplemented_abstract(const ClassFile& cf) {
        // Collect all (name, desc) required by interfaces and abstract
        // declarations, then check each resolves to a concrete method.
        std::set<std::pair<std::string, std::string>> required;
        std::set<std::string> visited;
        std::vector<std::string> work{cf.name};
        while (!work.empty()) {
            std::string cur = std::move(work.back());
            work.pop_back();
            if (!visited.insert(cur).second) continue;
            const ClassFile* c = pool_.find(cur);
            if (!c) continue;
            for (const Method& m : c->methods)
                if (m.is_abstract) required.insert({m.name, m.descriptor()});
            if (!c->super_name.empty()) work.push_back(c->super_name);
            for (const std::string& i : c->interfaces) work.push_back(i);
        }
        for (const auto& [name, desc] : required)
            if (!pool_.resolve_virtual(cf.name, name, desc)) return true;
        return false;
    }

    void check_code(const ClassFile& cf, const Method& m) {
        const std::string where = cf.name + "." + m.name + m.descriptor();
        const Code& code = m.code;
        const int n = static_cast<int>(code.instrs.size());
        if (n == 0) {
            problem(where, "empty body");
            return;
        }
        // Terminal instruction: last instruction must not fall off the end.
        const Op last = code.instrs[n - 1].op;
        if (last != Op::Return && last != Op::ReturnValue && last != Op::Goto &&
            last != Op::Throw)
            problem(where, "control can fall off the end of the code");

        for (int pc = 0; pc < n; ++pc) {
            const Instruction& i = code.instrs[pc];
            if (is_branch(i.op) && (i.a < 0 || i.a >= n))
                problem(where, "branch target out of range at pc " + std::to_string(pc));
            if ((i.op == Op::Load || i.op == Op::Store) &&
                (i.a < 0 || i.a >= code.max_locals))
                problem(where, "slot out of range at pc " + std::to_string(pc));
            check_symbols(where, i, pc);
        }
        for (const Handler& h : code.handlers) {
            if (h.start < 0 || h.end > n || h.start >= h.end || h.target < 0 ||
                h.target >= n)
                problem(where, "handler range invalid");
            if (!pool_.contains(h.class_name))
                problem(where, "handler names unknown class " + h.class_name);
        }
        check_stack(where, m);
    }

    void check_symbols(const std::string& where, const Instruction& i, int pc) {
        auto at = [&] { return where + " at pc " + std::to_string(pc); };
        switch (i.op) {
            case Op::NewArray: {
                model::TypeDesc elem = model::TypeDesc::parse(i.desc);
                model::TypeDesc base = elem;
                while (base.is_array()) base = base.element();
                if (base.is_ref() && !pool_.contains(base.class_name()))
                    problem(at(), "array of unknown class " + base.class_name());
                if (base.is_void()) problem(at(), "array of void");
                break;
            }
            case Op::New: {
                const ClassFile* c = pool_.find(i.owner);
                if (!c) {
                    problem(at(), "new of unknown class " + i.owner);
                } else if (c->is_interface) {
                    problem(at(), "new of interface " + i.owner);
                } else if (has_unimplemented_abstract(*c)) {
                    problem(at(), "new of abstract class " + i.owner);
                }
                break;
            }
            case Op::GetField:
            case Op::PutField: {
                const ClassFile* c = pool_.find(i.owner);
                if (!c) {
                    problem(at(), "field op on unknown class " + i.owner);
                    break;
                }
                // The field may be declared on a superclass.
                bool found = false;
                for (const ClassFile* cur = c; cur;
                     cur = cur->super_name.empty() ? nullptr : pool_.find(cur->super_name)) {
                    const Field* f = cur->find_field(i.member);
                    if (f) {
                        found = true;
                        if (f->is_static) problem(at(), "instance field op on static field");
                        if (f->type.descriptor() != i.desc)
                            problem(at(), "field descriptor mismatch for " + i.member);
                        break;
                    }
                }
                if (!found) problem(at(), "no field " + i.member + " on " + i.owner);
                break;
            }
            case Op::GetStatic:
            case Op::PutStatic: {
                const ClassFile* declaring = pool_.resolve_static_field(i.owner, i.member);
                if (!declaring) {
                    problem(at(), "no static field " + i.member + " on " + i.owner);
                    break;
                }
                const Field* f = declaring->find_field(i.member);
                if (f->type.descriptor() != i.desc)
                    problem(at(), "static field descriptor mismatch for " + i.member);
                break;
            }
            case Op::InvokeStatic: {
                const Method* target = pool_.resolve_static(i.owner, i.member, i.desc);
                if (!target)
                    problem(at(), "unresolved static method " + i.owner + "." + i.member +
                                      i.desc);
                break;
            }
            case Op::InvokeSpecial: {
                const ClassFile* c = pool_.find(i.owner);
                const Method* target = c ? c->find_method(i.member, i.desc) : nullptr;
                if (!target || !target->is_ctor())
                    problem(at(), "invokespecial must name a constructor: " + i.owner + "." +
                                      i.member + i.desc);
                break;
            }
            case Op::InvokeVirtual:
            case Op::InvokeInterface: {
                const ClassFile* c = pool_.find(i.owner);
                if (!c) {
                    problem(at(), "invoke on unknown class " + i.owner);
                    break;
                }
                if (i.op == Op::InvokeInterface && !c->is_interface)
                    problem(at(), "invokeinterface on non-interface " + i.owner);
                if (i.op == Op::InvokeVirtual && c->is_interface)
                    problem(at(), "invokevirtual on interface " + i.owner);
                if (!find_declared(*c, i.member, i.desc))
                    problem(at(), "no method " + i.member + i.desc + " visible on " + i.owner);
                break;
            }
            default:
                break;
        }
    }

    /// Looks up a method declaration anywhere in the type graph above `cf`.
    const Method* find_declared(const ClassFile& cf, std::string_view name,
                                std::string_view desc) {
        std::set<std::string> visited;
        std::vector<const ClassFile*> work{&cf};
        while (!work.empty()) {
            const ClassFile* c = work.back();
            work.pop_back();
            if (!visited.insert(c->name).second) continue;
            if (const Method* m = c->find_method(name, desc)) return m;
            if (!c->super_name.empty())
                if (const ClassFile* s = pool_.find(c->super_name)) work.push_back(s);
            for (const std::string& i : c->interfaces)
                if (const ClassFile* icf = pool_.find(i)) work.push_back(icf);
        }
        return nullptr;
    }

    void check_stack(const std::string& where, const Method& m) {
        const StackDepth depth = stack_depth(m);
        if (!depth.problem.empty()) problem(where, depth.problem);
    }

    const ClassPool& pool_;
    std::vector<std::string> problems_;
};

/// Net stack effect and minimum required depth of one instruction.
std::pair<int, int> stack_effect(const Instruction& i) {
    switch (i.op) {
        case Op::Nop: return {0, 0};
        case Op::Const: return {+1, 0};
        case Op::Load: return {+1, 0};
        case Op::Store: return {-1, 1};
        case Op::Dup: return {+1, 1};
        case Op::Pop: return {-1, 1};
        case Op::Swap: return {0, 2};
        case Op::Add:
        case Op::Sub:
        case Op::Mul:
        case Op::Div:
        case Op::Rem:
        case Op::CmpEq:
        case Op::CmpNe:
        case Op::CmpLt:
        case Op::CmpLe:
        case Op::CmpGt:
        case Op::CmpGe:
        case Op::And:
        case Op::Or:
        case Op::Concat: return {-1, 2};
        case Op::Neg:
        case Op::Not:
        case Op::Conv: return {0, 1};
        case Op::Goto: return {0, 0};
        case Op::IfTrue:
        case Op::IfFalse: return {-1, 1};
        case Op::New: return {+1, 0};
        case Op::GetField: return {0, 1};
        case Op::PutField: return {-2, 2};
        case Op::GetStatic: return {+1, 0};
        case Op::PutStatic: return {-1, 1};
        case Op::InvokeVirtual:
        case Op::InvokeInterface:
        case Op::InvokeStatic:
        case Op::InvokeSpecial: {
            MethodSig sig = MethodSig::parse(i.desc);
            int pops = static_cast<int>(sig.params().size()) +
                       (i.op == Op::InvokeStatic ? 0 : 1);
            int pushes = sig.ret().is_void() ? 0 : 1;
            return {pushes - pops, pops};
        }
        case Op::Return: return {0, 0};
        case Op::ReturnValue: return {-1, 1};
        case Op::Throw: return {-1, 1};
        case Op::NewArray: return {0, 1};   // pop length, push ref
        case Op::ALoad: return {-1, 2};     // pop idx+ref, push elem
        case Op::AStore: return {-3, 3};
        case Op::ALen: return {0, 1};
    }
    return {0, 0};
}

}  // namespace

StackDepth stack_depth(const Method& m) {
    const Code& code = m.code;
    const int n = static_cast<int>(code.instrs.size());
    std::vector<int> depth_at(n, -1);  // -1 = unvisited
    std::vector<std::pair<int, int>> work;  // (pc, depth)
    work.push_back({0, 0});
    for (const Handler& h : code.handlers)
        work.push_back({h.target, 1});  // thrown object on the stack

    StackDepth out;
    while (!work.empty()) {
        auto [pc, depth] = work.back();
        work.pop_back();
        while (pc >= 0 && pc < n) {
            if (depth_at[pc] != -1) {
                if (depth_at[pc] != depth) {
                    out.problem = "inconsistent stack depth at pc " + std::to_string(pc);
                    return out;
                }
                break;  // already explored from here
            }
            depth_at[pc] = depth;
            const Instruction& i = code.instrs[pc];
            auto [net, need] = stack_effect(i);
            if (depth < need) {
                out.problem = "stack underflow at pc " + std::to_string(pc) + " (" +
                              std::string(op_name(i.op)) + ")";
                return out;
            }
            out.max = std::max(out.max, depth);
            depth += net;
            out.max = std::max(out.max, depth);
            if (i.op == Op::Return || i.op == Op::ReturnValue || i.op == Op::Throw) break;
            if (i.op == Op::Goto) {
                pc = i.a;
                continue;
            }
            if (i.op == Op::IfTrue || i.op == Op::IfFalse) work.push_back({i.a, depth});
            ++pc;
        }
    }
    return out;
}

std::vector<std::string> verify_pool_collect(const ClassPool& pool,
                                             support::ThreadPool* threads) {
    if (!threads || threads->thread_count() == 1) return Verifier(pool).run();
    // Per-class checks only read the pool (const resolution walks, no lazy
    // caches), so classes fan out freely; merging the per-class lists in
    // name order reproduces the serial report exactly.
    const std::vector<const ClassFile*> classes = pool.all();
    std::vector<std::vector<std::string>> per_class(classes.size());
    threads->for_each_index(classes.size(), [&](std::size_t i) {
        per_class[i] = Verifier(pool).run_one(*classes[i]);
    });
    std::vector<std::string> problems;
    for (std::vector<std::string>& p : per_class)
        problems.insert(problems.end(), std::make_move_iterator(p.begin()),
                        std::make_move_iterator(p.end()));
    return problems;
}

void verify_pool(const ClassPool& pool, support::ThreadPool* threads) {
    std::vector<std::string> problems = verify_pool_collect(pool, threads);
    if (!problems.empty()) {
        std::ostringstream os;
        os << problems.size() << " problem(s); first: " << problems.front();
        throw VerifyError(os.str());
    }
}

}  // namespace rafda::model
