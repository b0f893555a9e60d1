#include "workload/source.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/schemas.hpp"
#include "util/thread_annotations.hpp"
#include "workload/programs.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_format.hpp"

namespace hepex::workload {
namespace {

// ---------------------------------------------------------------------------
// Built-in sources

/// The paper's closed-form factory programs plus user-registered analytic
/// specs. Unprefixed references resolve here, so the pre-spine behaviour
/// of `program_by_name` is preserved byte-for-byte, including the
/// unknown-name message listing every resolvable program.
class AnalyticSource final : public Source {
 public:
  std::string name() const override { return "analytic"; }

  std::string description() const override {
    return "closed-form factory programs (the paper's suite + extensions)";
  }

  std::vector<std::string> refs() const override HEPEX_EXCLUDES(mu_) {
    std::vector<std::string> names;
    names.reserve(std::size(kFactories));
    for (const auto& e : kFactories) names.emplace_back(e.name);
    util::MutexLock lock(mu_);
    for (const ProgramSpec& p : user_) names.push_back(p.name);
    return names;
  }

  ResolvedProgram resolve(const std::string& rest,
                          InputClass cls) const override HEPEX_EXCLUDES(mu_) {
    for (const auto& e : kFactories) {
      if (rest == e.name) {
        ResolvedProgram r;
        r.program = e.factory(cls);
        r.provenance.source = name();
        r.provenance.origin = rest;
        r.provenance.detail = "factory program " + rest + " (" +
                              r.program.suite + ") at class " +
                              to_string(cls);
        return r;
      }
    }
    {
      util::MutexLock lock(mu_);
      for (const ProgramSpec& base : user_) {
        if (rest == base.name) {
          ResolvedProgram r;
          // The registered spec IS the program at its own class; other
          // classes derive via the standard grid rescale. Resolving at
          // the registered class must not round-trip through
          // with_input_class — that would clobber a custom iteration
          // count with the class default.
          r.program = base.input == cls ? base : with_input_class(base, cls);
          r.provenance.source = name();
          r.provenance.origin = rest;
          r.provenance.detail =
              "user-registered program " + rest + " (base class " +
              to_string(base.input) + ") at class " + to_string(cls);
          return r;
        }
      }
    }
    std::string known;
    for (const std::string& n : refs()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    fail_require("unknown program '" + rest + "' (use " + known + ")");
  }

  void add_user_program(const ProgramSpec& base) HEPEX_EXCLUDES(mu_) {
    if (base.name.empty()) {
      fail_require(
          "workload registry: analytic program: registered spec has an "
          "empty name");
    }
    base.validate();
    for (const auto& e : kFactories) {
      if (base.name == e.name) {
        fail_require("workload registry: analytic program '" + base.name +
                     "': name collides with the built-in factory program");
      }
    }
    util::MutexLock lock(mu_);
    for (const ProgramSpec& p : user_) {
      if (base.name == p.name) {
        fail_require("workload registry: analytic program '" + base.name +
                     "': duplicate registration (a program with this name "
                     "already exists)");
      }
    }
    user_.push_back(base);
  }

 private:
  struct Factory {
    const char* name;
    ProgramSpec (*factory)(InputClass);
  };
  /// The paper's table order plus extensions — the order `refs()` and
  /// `hepex workload list` report.
  static constexpr Factory kFactories[] = {
      {"LU", make_lu}, {"SP", make_sp}, {"BT", make_bt}, {"CP", make_cp},
      {"LB", make_lb}, {"MG", make_mg}, {"FT", make_ft}, {"CG", make_cg},
  };

  mutable util::Mutex mu_;
  std::vector<ProgramSpec> user_ HEPEX_GUARDED_BY(mu_);
};

/// Replays `hepex-trace/1` files (workload/trace_format.hpp): the rest of
/// the reference is the file path. The trace lowers at its recorded input
/// class; a different requested class rescales with the same grid rule as
/// every other program.
class TraceSource final : public Source {
 public:
  std::string name() const override { return "trace"; }

  std::string description() const override {
    return std::string(util::schemas::kTrace) +
           " files replayed onto the execution engine";
  }

  std::vector<std::string> refs() const override { return {}; }

  ResolvedProgram resolve(const std::string& rest,
                          InputClass cls) const override {
    if (rest.empty()) {
      fail_require("trace reference names no file (use trace:<path>)");
    }
    ResolvedProgram r;
    r.program = load_trace_file(rest);
    const InputClass recorded = r.program.input;
    if (recorded != cls) r.program = with_input_class(r.program, cls);
    r.provenance.source = name();
    r.provenance.origin = rest;
    r.provenance.detail = "trace " + rest + " recorded at class " +
                          to_string(recorded) + ", resolved at class " +
                          to_string(cls);
    return r;
  }
};

/// Seeded signature-space generator (workload/synthetic.hpp): the rest of
/// the reference is a `key=value` parameter list.
class SyntheticSource final : public Source {
 public:
  std::string name() const override { return "synthetic"; }

  std::string description() const override {
    return "seeded generator over the demand-signature space";
  }

  std::vector<std::string> refs() const override { return {}; }

  ResolvedProgram resolve(const std::string& rest,
                          InputClass cls) const override {
    const SyntheticSpec spec = synthetic_from_ref(rest, "synthetic reference");
    ResolvedProgram r;
    r.program = make_synthetic(spec, cls);
    r.provenance.source = name();
    r.provenance.origin = synthetic_ref(spec);
    r.provenance.detail = "synthetic program " + r.program.name + " (" +
                          r.provenance.origin + ") at class " +
                          to_string(cls);
    return r;
  }
};

// ---------------------------------------------------------------------------
// Registry

class Registry {
 public:
  Registry() {
    auto analytic = std::make_unique<AnalyticSource>();
    analytic_ = analytic.get();
    sources_.push_back(std::move(analytic));
    sources_.push_back(std::make_unique<TraceSource>());
    sources_.push_back(std::make_unique<SyntheticSource>());
  }

  std::vector<std::string> names() const HEPEX_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    std::vector<std::string> out;
    out.reserve(sources_.size());
    for (const auto& s : sources_) out.push_back(s->name());
    return out;
  }

  const Source& by_name(const std::string& name) const HEPEX_EXCLUDES(mu_) {
    {
      util::MutexLock lock(mu_);
      // Sources are never unregistered, so the reference stays valid
      // after the lock drops.
      for (const auto& s : sources_) {
        if (s->name() == name) return *s;
      }
    }
    std::string known;
    for (const std::string& n : names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    fail_require("unknown workload source '" + name + "' (use " + known +
                 ")");
  }

  void add(std::unique_ptr<Source> source) HEPEX_EXCLUDES(mu_) {
    HEPEX_REQUIRE(source != nullptr, "workload registry: null source");
    const std::string name = source->name();
    if (name.empty()) {
      fail_require("workload registry: source has an empty name");
    }
    util::MutexLock lock(mu_);
    for (const auto& s : sources_) {
      if (s->name() == name) {
        fail_require("workload registry: source '" + name +
                     "': duplicate registration (a source with this name "
                     "already exists)");
      }
    }
    sources_.push_back(std::move(source));
  }

  /// Resolve `[source:]rest`. A prefix only dispatches when it names a
  /// registered source; everything else is an analytic program name, so
  /// pre-spine references keep their exact meaning (and their exact
  /// unknown-name diagnostics).
  ResolvedProgram resolve(const std::string& ref, InputClass cls) const
      HEPEX_EXCLUDES(mu_) {
    const std::size_t colon = ref.find(':');
    if (colon != std::string::npos) {
      const std::string prefix = ref.substr(0, colon);
      const Source* src = nullptr;
      {
        util::MutexLock lock(mu_);
        for (const auto& s : sources_) {
          if (s->name() == prefix) {
            src = s.get();
            break;
          }
        }
      }
      if (src != nullptr) return src->resolve(ref.substr(colon + 1), cls);
    }
    return analytic_->resolve(ref, cls);
  }

  AnalyticSource& analytic() { return *analytic_; }

 private:
  mutable util::Mutex mu_;
  std::vector<std::unique_ptr<Source>> sources_ HEPEX_GUARDED_BY(mu_);
  AnalyticSource* analytic_ = nullptr;  // owned by sources_[0]
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

std::vector<std::string> source_names() { return registry().names(); }

const Source& source_by_name(const std::string& name) {
  return registry().by_name(name);
}

void register_source(std::unique_ptr<Source> source) {
  registry().add(std::move(source));
}

void register_program(const ProgramSpec& base) {
  registry().analytic().add_user_program(base);
}

ResolvedProgram resolve_program(const std::string& ref, InputClass cls) {
  return registry().resolve(ref, cls);
}

}  // namespace hepex::workload
