/**
 * @file
 * The one selection mechanism of the simulator: a process-wide,
 * string-keyed table of value-semantic specs. The paper's central
 * observation (Section 3, Figure 4) is that CC-NUMA, S-COMA, and
 * R-NUMA differ only in their Remote Access Device, so systems,
 * interconnects, and workloads are all chosen by name from a
 * Registry<Spec>: ProtocolRegistry (proto/registry.hh),
 * NetworkRegistry (net/registry.hh), and WorkloadRegistry
 * (workload/registry.hh). Each domain supplies only its Spec, its
 * built-ins, and its factories.
 *
 * A Spec provides:
 *  - `std::string id`: the stable JSON/compare/CLI currency,
 *    lowercase, no whitespace;
 *  - `std::string displayName`: the name tables and logs print;
 *  - `bool valid() const`: an id and a factory are present;
 *  - `static constexpr const char *kind`: the noun diagnostics use
 *    ("protocol"), whose plural names the CLI listing flag
 *    (rnuma_sweep --list-protocols);
 *  - a free function `void addBuiltins(Registry<Spec> &)`, found by
 *    argument-dependent lookup, that registers the built-ins when
 *    global() first runs.
 */

#ifndef RNUMA_COMMON_REGISTRY_HH
#define RNUMA_COMMON_REGISTRY_HH

#include <cctype>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace rnuma
{

/**
 * The process-wide name -> Spec table. Lookup matches a spec's id or
 * display name, case-insensitively, so enum-era spellings such as
 * "CC-NUMA" keep resolving: they are the built-in display names.
 *
 * Thread-safe: registration takes an exclusive lock and lookups a
 * shared one, so sweep workers may register and resolve specs
 * concurrently. Specs are never removed or moved, so a returned
 * spec reference stays valid forever.
 */
template <class Spec>
class Registry
{
  public:
    /** The global registry, with the domain's built-ins registered. */
    static Registry &global()
    {
        static Registry reg;
        return reg;
    }

    /**
     * Register a spec. Panics on an invalid spec or an id that is
     * not lowercase without whitespace; fatal when its id or display
     * name already names a registered spec.
     * @return the registered (stably stored) spec.
     */
    const Spec &add(Spec spec)
    {
        RNUMA_ASSERT(spec.valid(), Spec::kind,
                     " spec needs an id and a factory");
        for (char c : spec.id) {
            auto u = static_cast<unsigned char>(c);
            RNUMA_ASSERT(!std::isupper(u) && !std::isspace(u),
                         Spec::kind, " id '", spec.id,
                         "' is not lowercase without whitespace");
        }
        std::unique_lock<std::shared_mutex> lock(mutex_);
        const Spec *clash = findLocked(spec.id);
        if (!clash && !spec.displayName.empty())
            clash = findLocked(spec.displayName);
        if (clash) {
            RNUMA_FATAL(Spec::kind, " '", spec.id, "' (\"",
                        spec.displayName, "\") clashes with the "
                        "registered '", clash->id, "'");
        }
        specs_.push_back(std::make_unique<Spec>(std::move(spec)));
        return *specs_.back();
    }

    /** Look up by id or display name; nullptr when unknown. */
    const Spec *find(const std::string &name) const
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        return findLocked(name);
    }

    /** Look up; fatal (std::runtime_error under tests) when unknown. */
    const Spec &at(const std::string &name) const
    {
        const Spec *s = find(name);
        if (!s) {
            RNUMA_FATAL("unknown ", Spec::kind, " '", name,
                        "' (see rnuma_sweep --list-", Spec::kind,
                        "s)");
        }
        return *s;
    }

    /** All specs, in registration order (built-ins first). */
    std::vector<const Spec *> all() const
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        std::vector<const Spec *> out;
        out.reserve(specs_.size());
        for (const auto &s : specs_)
            out.push_back(s.get());
        return out;
    }

    std::size_t size() const
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        return specs_.size();
    }

  private:
    Registry() { addBuiltins(*this); }

    /** ASCII case-insensitive equality: the registry's name match. */
    static bool sameName(const std::string &a, const std::string &b)
    {
        if (a.size() != b.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (std::tolower(static_cast<unsigned char>(a[i])) !=
                std::tolower(static_cast<unsigned char>(b[i])))
                return false;
        }
        return true;
    }

    /** find() without taking the lock (callers hold it). */
    const Spec *findLocked(const std::string &name) const
    {
        for (const auto &s : specs_) {
            if (sameName(s->id, name) ||
                (!s->displayName.empty() &&
                 sameName(s->displayName, name)))
                return s.get();
        }
        return nullptr;
    }

    /** Guards specs_: exclusive for add, shared for lookups. */
    mutable std::shared_mutex mutex_;
    std::vector<std::unique_ptr<Spec>> specs_;
};

} // namespace rnuma

#endif // RNUMA_COMMON_REGISTRY_HH
