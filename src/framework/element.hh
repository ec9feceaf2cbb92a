/**
 * @file
 * Element: the modular building block of the packet-processing
 * framework (Click's element model).
 *
 * Elements process batches (FastClick-style), read/write packet
 * metadata through PacketView (so the layout is swappable), touch
 * frame bytes for real, and account every memory access and compute
 * step to the ExecContext.
 */

#ifndef PMILL_FRAMEWORK_ELEMENT_HH
#define PMILL_FRAMEWORK_ELEMENT_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/framework/exec_context.hh"
#include "src/framework/metadata.hh"
#include "src/framework/packet.hh"
#include "src/mem/sim_memory.hh"

namespace pmill {

/**
 * Flow-table pressure counters reported by stateful elements
 * (NAT/conntrack) — the engine publishes them per table through
 * MetricsRegistry so benches can watch occupancy and aging.
 */
struct FlowTableStats {
    std::uint64_t occupancy = 0;      ///< live entries
    std::uint64_t capacity = 0;       ///< entry slots
    std::uint64_t memory_bytes = 0;   ///< simulated table footprint
    std::uint64_t inserts = 0;        ///< new flows admitted
    std::uint64_t failed_inserts = 0; ///< admissions refused (full)
    std::uint64_t displacements = 0;  ///< cuckoo kicks
    std::uint64_t max_kick_chain = 0; ///< longest displacement chain
    std::uint64_t evictions = 0;      ///< idle-timeout expiries
    std::uint64_t half_open = 0;      ///< embryonic TCP connections
};

/** Base class of all processing elements. */
class Element {
  public:
    virtual ~Element() = default;

    /** Click class name (e.g.\ "EtherMirror"). */
    virtual const char *class_name() const = 0;

    /**
     * Parse configuration arguments (the comma-separated list from
     * the config file). @return false with @p err set on bad config.
     */
    virtual bool
    configure(const std::vector<std::string> &args, std::string *err)
    {
        if (!args.empty()) {
            if (err)
                *err = std::string(class_name()) + " takes no arguments";
            return false;
        }
        return true;
    }

    /**
     * Late initialization once simulated state memory is assigned
     * (e.g.\ building route tables). Default: nothing.
     */
    virtual bool
    initialize(SimMemory &, std::string *)
    {
        return true;
    }

    /** Process a batch in place; set dropped / out_port per packet. */
    virtual void process(PacketBatch &batch, ExecContext &ctx) = 0;

    /** Number of output ports. */
    virtual std::uint32_t num_outputs() const { return 1; }

    /** Bytes of element state to place in simulated memory. */
    virtual std::uint32_t state_bytes() const { return 64; }

    /**
     * Establish steady-state cache residency for the element's data
     * structures (the testbed's measurement phase starts after
     * seconds of warm-up; short simulated runs would otherwise be
     * dominated by compulsory misses). Default: nothing.
     */
    virtual void warm_caches(CacheHierarchy &) {}

    /**
     * Metadata fields this element reads/writes per packet — the
     * static access profile the reorder pass consumes (the stand-in
     * for the paper's IR-level reference scan).
     */
    virtual void
    access_profile(std::vector<Field> &, std::vector<Field> &) const
    {}

    /// @name Profile-guided rule hooks (consumed by mill::PlanSearch).
    ///
    /// Elements that try an ordered internal rule list per packet
    /// (classifier patterns, route tables) expose measured per-rule
    /// match counts and accept a semantics-preserving hot-first
    /// reorder of the *match order* — the paper's §5 FAQ extension
    /// ("PacketMill can be extended to exploit profiles").
    /// @{

    /** Number of reorderable rules; 0 when the element has none. */
    virtual std::size_t num_rules() const { return 0; }

    /** Measured per-rule match counts, indexed by rule. */
    virtual std::vector<std::uint64_t> rule_hits() const { return {}; }

    /** Zero the per-rule match counters. */
    virtual void reset_rule_hits() {}

    /**
     * Apply a hot-first match order (@p order is a permutation of
     * [0, num_rules()), first tried first). The element must refuse
     * any order it cannot honour without changing semantics.
     * @return true when the order took effect.
     */
    virtual bool apply_rule_order(const std::vector<std::uint32_t> &)
    {
        return false;
    }

    /**
     * Enable per-rule hit accounting where it costs extra work in the
     * hot path (elements with free counters may ignore this).
     */
    virtual void set_rule_profiling(bool) {}
    /// @}

    /**
     * Fill @p out with this element's flow-table pressure counters.
     * @return false when the element keeps no flow table (default).
     */
    virtual bool flow_table_stats(FlowTableStats *) const
    {
        return false;
    }

    /** Assign the simulated state allocation. */
    void set_state(const MemHandle &h) { state_ = h; }
    const MemHandle &state() const { return state_; }

    /** Assign the metadata layout used for PacketView accesses. */
    void set_layout(const MetadataLayout *l) { layout_ = l; }
    const MetadataLayout *layout() const { return layout_; }

    /** Instance name from the configuration ("input", "rt", ...). */
    void set_name(std::string n) { name_ = std::move(n); }
    const std::string &name() const { return name_; }

  protected:
    /** Build an accounted metadata view for @p h. */
    PacketView
    view(PacketHandle &h, ExecContext &ctx) const
    {
        return PacketView(h, *layout_, &ctx);
    }

    MemHandle state_;
    const MetadataLayout *layout_ = nullptr;
    std::string name_;
};

/** Factory registry mapping Click class names to constructors. */
class ElementRegistry {
  public:
    using Factory = std::function<std::unique_ptr<Element>()>;

    static ElementRegistry &instance();

    /** Register @p factory under @p class_name (idempotent). */
    void add(const std::string &class_name, Factory factory);

    /** True when @p class_name is registered. */
    bool has(const std::string &class_name) const;

    /** Instantiate @p class_name; nullptr when unknown. */
    std::unique_ptr<Element> create(const std::string &class_name) const;

  private:
    std::vector<std::pair<std::string, Factory>> factories_;
};

/**
 * Register every standard element shipped in src/elements. Safe to
 * call multiple times.
 */
void register_standard_elements();

} // namespace pmill

#endif // PMILL_FRAMEWORK_ELEMENT_HH
