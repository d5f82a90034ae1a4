#include "obs/profiler.h"

#include <time.h>

#include <algorithm>
#include <chrono>

#include "detector/event_types.h"
#include "obs/json.h"
#include "obs/metric_sink.h"

namespace sentinel::obs {

std::uint64_t Profiler::NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t Profiler::ThreadCpuNs() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

const char* Profiler::RuleSeamName(RuleSeam seam) {
  switch (seam) {
    case RuleSeam::kCondition:
      return "condition";
    case RuleSeam::kAction:
      return "action";
    case RuleSeam::kCommit:
      return "commit";
  }
  return "?";
}

const char* Profiler::GlobalSeamName(GlobalSeam seam) {
  switch (seam) {
    case GlobalSeam::kCommitBarrier:
      return "commit_barrier";
    case GlobalSeam::kGedForward:
      return "ged_forward";
  }
  return "?";
}

void Profiler::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (mode_.load(std::memory_order_relaxed) == Mode::kOn) return;
  enabled_since_ns_.store(NowNs(), std::memory_order_relaxed);
  mode_.store(Mode::kOn, std::memory_order_relaxed);
}

void Profiler::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (mode_.load(std::memory_order_relaxed) == Mode::kOff) return;
  mode_.store(Mode::kOff, std::memory_order_relaxed);
  active_ns_.fetch_add(
      NowNs() - enabled_since_ns_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
}

std::uint64_t Profiler::duration_ns() const {
  std::uint64_t total = active_ns_.load(std::memory_order_relaxed);
  if (enabled()) {
    total += NowNs() - enabled_since_ns_.load(std::memory_order_relaxed);
  }
  return total;
}

void Profiler::Reset() {
  {
    std::unique_lock lock(rules_mu_);
    for (auto& [name, rule] : rules_) {
      for (CostCell& cell : rule->seams) cell.Zero();
      std::lock_guard<std::mutex> sym_lock(rule->sym_mu);
      rule->symbols.clear();
    }
  }
  {
    std::unique_lock lock(nodes_mu_);
    for (auto& [name, cell] : nodes_) cell->Zero();
  }
  {
    std::unique_lock lock(symbols_mu_);
    for (auto& sym : symbols_) {
      if (sym == nullptr) continue;
      sym->events.Zero();
      sym->rules.Zero();
    }
  }
  for (CostCell& cell : global_) cell.Zero();
  {
    std::unique_lock lock(sites_mu_);
    for (auto& [name, site] : sites_) {
      site->acquisitions.Reset();
      site->contended.Reset();
      site->wait_ns.Reset();
    }
  }
  active_ns_.store(0, std::memory_order_relaxed);
  enabled_since_ns_.store(NowNs(), std::memory_order_relaxed);
}

// -- Feed 1: exact attribution -----------------------------------------------

Profiler::RuleCost* Profiler::GetRuleCost(const std::string& name) {
  {
    std::shared_lock lock(rules_mu_);
    auto it = rules_.find(name);
    if (it != rules_.end()) return it->second.get();
  }
  std::unique_lock lock(rules_mu_);
  auto& slot = rules_[name];
  if (slot == nullptr) slot = std::make_unique<RuleCost>();
  return slot.get();
}

Profiler::SymbolCost* Profiler::GetSymbolCost(common::SymbolId sym) {
  {
    std::shared_lock lock(symbols_mu_);
    if (sym < symbols_.size() && symbols_[sym] != nullptr) {
      return symbols_[sym].get();
    }
  }
  std::unique_lock lock(symbols_mu_);
  if (sym >= symbols_.size()) symbols_.resize(sym + 1);
  if (symbols_[sym] == nullptr) symbols_[sym] = std::make_unique<SymbolCost>();
  return symbols_[sym].get();
}

Profiler::CostCell* Profiler::NodeAccount(const std::string& node_name) {
  {
    std::shared_lock lock(nodes_mu_);
    auto it = nodes_.find(node_name);
    if (it != nodes_.end()) return it->second.get();
  }
  std::unique_lock lock(nodes_mu_);
  auto& slot = nodes_[node_name];
  if (slot == nullptr) slot = std::make_unique<CostCell>();
  return slot.get();
}

void Profiler::AttributeRuleCost(RuleCost* rule,
                                 const detector::Occurrence& occurrence,
                                 std::uint64_t cpu, std::uint64_t wall) {
  // Distinct class symbols among the triggering constituents — a composite
  // rule spanning several classes is exactly the coupling the shard report
  // must know about.
  common::SymbolId inline_syms[8];
  std::size_t sym_count = 0;
  for (const auto& constituent : occurrence.constituents) {
    if (constituent == nullptr) continue;
    const common::SymbolId sym = constituent->class_sym;
    if (sym == common::kInvalidSymbol) continue;
    bool seen = false;
    for (std::size_t i = 0; i < sym_count; ++i) {
      if (inline_syms[i] == sym) {
        seen = true;
        break;
      }
    }
    if (!seen && sym_count < std::size(inline_syms)) {
      inline_syms[sym_count++] = sym;
    }
  }
  if (sym_count == 0) return;

  {
    std::lock_guard<std::mutex> lock(rule->sym_mu);
    for (std::size_t i = 0; i < sym_count; ++i) {
      auto it = std::lower_bound(rule->symbols.begin(), rule->symbols.end(),
                                 inline_syms[i]);
      if (it == rule->symbols.end() || *it != inline_syms[i]) {
        rule->symbols.insert(it, inline_syms[i]);
      }
    }
  }

  // Split the rule's own compute (commit cost belongs to the storage layer)
  // evenly across the contributing symbols.
  for (std::size_t i = 0; i < sym_count; ++i) {
    GetSymbolCost(inline_syms[i])
        ->rules.Record(cpu / sym_count, wall / sym_count);
  }
}

Profiler::CostCell* Profiler::SymbolEvents(common::SymbolId sym) {
  if (sym == common::kInvalidSymbol) return nullptr;
  return &GetSymbolCost(sym)->events;
}

// -- Feed 2: lock contention -------------------------------------------------

Profiler::ContentionSite* Profiler::GetContentionSite(const std::string& name) {
  {
    std::shared_lock lock(sites_mu_);
    auto it = sites_.find(name);
    if (it != sites_.end()) return it->second.get();
  }
  std::unique_lock lock(sites_mu_);
  auto& slot = sites_[name];
  if (slot == nullptr) {
    slot = std::make_unique<ContentionSite>();
    slot->name = name;
  }
  return slot.get();
}

std::vector<Profiler::ContentionSnapshot> Profiler::TopContended(
    std::size_t k) const {
  std::vector<ContentionSnapshot> all;
  {
    std::shared_lock lock(sites_mu_);
    all.reserve(sites_.size());
    for (const auto& [name, site] : sites_) {
      ContentionSnapshot snap;
      snap.site = name;
      snap.acquisitions = site->acquisitions.value();
      snap.contended = site->contended.value();
      snap.wait_ns = site->wait_ns.value();
      if (snap.acquisitions == 0) continue;
      all.push_back(std::move(snap));
    }
  }
  std::sort(all.begin(), all.end(),
            [](const ContentionSnapshot& a, const ContentionSnapshot& b) {
              if (a.wait_ns != b.wait_ns) return a.wait_ns > b.wait_ns;
              if (a.contended != b.contended) return a.contended > b.contended;
              return a.site < b.site;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

// -- Snapshots & export ------------------------------------------------------

std::vector<Profiler::RuleSnapshot> Profiler::RuleSnapshots() const {
  std::vector<RuleSnapshot> out;
  std::shared_lock lock(rules_mu_);
  out.reserve(rules_.size());
  for (const auto& [name, rule] : rules_) {
    RuleSnapshot snap;
    snap.name = name;
    for (int i = 0; i < kRuleSeams; ++i) snap.seams[i] = rule->seams[i].Snap();
    {
      std::lock_guard<std::mutex> sym_lock(rule->sym_mu);
      snap.symbols.reserve(rule->symbols.size());
      for (common::SymbolId sym : rule->symbols) {
        snap.symbols.push_back(common::SymbolTable::Global().NameOf(sym));
      }
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::vector<Profiler::NodeSnapshot> Profiler::NodeSnapshots() const {
  std::vector<NodeSnapshot> out;
  std::shared_lock lock(nodes_mu_);
  out.reserve(nodes_.size());
  for (const auto& [name, cell] : nodes_) {
    out.push_back(NodeSnapshot{name, cell->Snap()});
  }
  return out;
}

std::vector<Profiler::SymbolSnapshot> Profiler::SymbolSnapshots() const {
  std::vector<SymbolSnapshot> out;
  std::shared_lock lock(symbols_mu_);
  for (std::size_t sym = 0; sym < symbols_.size(); ++sym) {
    if (symbols_[sym] == nullptr) continue;
    SymbolSnapshot snap;
    snap.symbol = common::SymbolTable::Global().NameOf(
        static_cast<common::SymbolId>(sym));
    snap.events = symbols_[sym]->events.Snap();
    snap.rules = symbols_[sym]->rules.Snap();
    if (snap.events.invocations == 0 && snap.rules.invocations == 0) continue;
    out.push_back(std::move(snap));
  }
  return out;
}

namespace {

/// One folded line per rule seam with nonzero wall time ("rule;seam
/// wall_ns"), in rule-name order: FoldedStacks and the /profile "folded"
/// array render the same lines.
std::vector<std::string> FoldedLines(
    const std::vector<Profiler::RuleSnapshot>& rules) {
  std::vector<std::string> lines;
  for (const Profiler::RuleSnapshot& rule : rules) {
    for (int i = 0; i < Profiler::kRuleSeams; ++i) {
      if (rule.seams[i].wall_ns == 0) continue;
      lines.push_back(
          rule.name + ";" +
          Profiler::RuleSeamName(static_cast<Profiler::RuleSeam>(i)) + " " +
          std::to_string(rule.seams[i].wall_ns));
    }
  }
  return lines;
}

/// The rule-seam intervals the folded lines sum.
std::uint64_t Invocations(const std::vector<Profiler::RuleSnapshot>& rules) {
  std::uint64_t total = 0;
  for (const Profiler::RuleSnapshot& rule : rules) {
    for (const Profiler::CostSnapshot& seam : rule.seams) {
      total += seam.invocations;
    }
  }
  return total;
}

}  // namespace

std::string Profiler::FoldedStacks() const {
  std::string out;
  for (const std::string& line : FoldedLines(RuleSnapshots())) {
    out += line;
    out += '\n';
  }
  return out;
}

std::uint64_t Profiler::samples() const { return Invocations(RuleSnapshots()); }

Profiler::CostSnapshot Profiler::GlobalSnapshot(GlobalSeam seam) const {
  return global_[static_cast<int>(seam)].Snap();
}

std::string Profiler::TopCostRule() const {
  std::string best;
  std::uint64_t best_wall = 0;
  for (const RuleSnapshot& rule : RuleSnapshots()) {
    const std::uint64_t wall = rule.total_wall_ns();
    if (wall > best_wall) {
      best_wall = wall;
      best = rule.name;
    }
  }
  return best;
}

namespace {

void WriteCost(JsonWriter& w, const std::string& key,
               const Profiler::CostSnapshot& snap) {
  w.Key(key).BeginObject();
  w.Field("invocations", snap.invocations);
  w.Field("cpu_ns", snap.cpu_ns);
  w.Field("wall_ns", snap.wall_ns);
  w.EndObject();
}

}  // namespace

std::string Profiler::ProfileJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Field("mode", enabled() ? "on" : "off");
  w.Field("duration_ns", duration_ns());
  // One snapshot feeds "samples", "rules" and "folded", so they agree.
  const std::vector<RuleSnapshot> rules = RuleSnapshots();
  w.Field("samples", Invocations(rules));

  w.Key("rules").BeginArray();
  for (const RuleSnapshot& rule : rules) {
    w.BeginObject();
    w.Field("name", rule.name);
    for (int i = 0; i < kRuleSeams; ++i) {
      WriteCost(w, RuleSeamName(static_cast<RuleSeam>(i)), rule.seams[i]);
    }
    w.Field("total_wall_ns", rule.total_wall_ns());
    w.Key("symbols").BeginArray();
    for (const std::string& sym : rule.symbols) w.Value(sym);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  w.Key("nodes").BeginArray();
  for (const NodeSnapshot& node : NodeSnapshots()) {
    w.BeginObject();
    w.Field("name", node.name);
    WriteCost(w, "eval", node.eval);
    w.EndObject();
  }
  w.EndArray();

  w.Key("symbols").BeginArray();
  for (const SymbolSnapshot& sym : SymbolSnapshots()) {
    w.BeginObject();
    w.Field("symbol", sym.symbol);
    WriteCost(w, "events", sym.events);
    WriteCost(w, "rules", sym.rules);
    w.Field("total_wall_ns", sym.events.wall_ns + sym.rules.wall_ns);
    w.EndObject();
  }
  w.EndArray();

  w.Key("seams").BeginArray();
  for (int i = 0; i < kGlobalSeams; ++i) {
    const CostSnapshot snap = GlobalSnapshot(static_cast<GlobalSeam>(i));
    w.BeginObject();
    w.Field("seam", GlobalSeamName(static_cast<GlobalSeam>(i)));
    w.Field("invocations", snap.invocations);
    w.Field("cpu_ns", snap.cpu_ns);
    w.Field("wall_ns", snap.wall_ns);
    w.EndObject();
  }
  w.EndArray();

  w.Key("contention").BeginArray();
  for (const ContentionSnapshot& site : TopContended(16)) {
    w.BeginObject();
    w.Field("site", site.site);
    w.Field("acquisitions", site.acquisitions);
    w.Field("contended", site.contended);
    w.Field("wait_ns", site.wait_ns);
    w.EndObject();
  }
  w.EndArray();

  w.Key("folded").BeginArray();
  for (const std::string& line : FoldedLines(rules)) w.Value(line);
  w.EndArray();

  w.EndObject();
  return w.Take();
}

void Profiler::WriteMetrics(MetricSink& s) const {
  s.Flag({"sentinel_profile_mode", "Profiling mode (0=off, 1=on)", "enabled"},
         enabled());
  s.Gauge({"sentinel_profile_duration_ns",
           "Cumulative nanoseconds profiling has been enabled", "duration_ns"},
          duration_ns());
  const std::vector<RuleSnapshot> rules = RuleSnapshots();
  s.Counter({"sentinel_profile_samples_total",
             "Rule seam intervals the folded stacks sum (rule cell"
             " invocations)",
             "samples"},
            Invocations(rules));

  s.OpenList("rules");
  for (const RuleSnapshot& rule : rules) {
    s.OpenItem();
    s.Info("name", rule.name);
    for (int i = 0; i < kRuleSeams; ++i) {
      const char* seam = RuleSeamName(static_cast<RuleSeam>(i));
      const MetricSink::Labels labels = {{"rule", rule.name}, {"seam", seam}};
      s.Open(seam);
      s.Counter({"sentinel_profile_rule_invocations_total",
                 "Rule seam invocations attributed by the profiler",
                 "invocations", labels},
                rule.seams[i].invocations);
      s.Counter({"sentinel_profile_rule_cpu_ns_total",
                 "Per-rule seam CPU time (thread clock), nanoseconds",
                 "cpu_ns", labels},
                rule.seams[i].cpu_ns);
      s.Counter({"sentinel_profile_rule_wall_ns_total",
                 "Per-rule seam wall time, nanoseconds", "wall_ns", labels},
                rule.seams[i].wall_ns);
      s.Close();
    }
    s.Close();
  }
  s.Close();

  s.OpenList("nodes");
  for (const NodeSnapshot& node : NodeSnapshots()) {
    const MetricSink::Labels labels = {{"node", node.name}};
    s.OpenItem();
    s.Info("name", node.name);
    s.Counter({"sentinel_profile_node_invocations_total",
               "Operator-node evaluations attributed by the profiler",
               "invocations", labels},
              node.eval.invocations);
    s.Counter({"sentinel_profile_node_cpu_ns_total",
               "Per-event-node evaluation CPU time, nanoseconds", "cpu_ns",
               labels},
              node.eval.cpu_ns);
    s.Counter({"sentinel_profile_node_wall_ns_total",
               "Per-event-node evaluation wall time, nanoseconds", "wall_ns",
               labels},
              node.eval.wall_ns);
    s.Close();
  }
  s.Close();

  s.OpenList("symbols");
  for (const SymbolSnapshot& sym : SymbolSnapshots()) {
    const MetricSink::Labels labels = {{"symbol", sym.symbol}};
    s.OpenItem();
    s.Info("symbol", sym.symbol);
    s.Counter({"sentinel_profile_symbol_events_total",
               "Primitive event dispatches per interned class symbol",
               "events", labels},
              sym.events.invocations);
    s.Counter({"sentinel_profile_symbol_cpu_ns_total",
               "Attributed CPU time per class symbol (dispatch + rules),"
               " nanoseconds",
               "cpu_ns", labels},
              sym.events.cpu_ns + sym.rules.cpu_ns);
    s.Counter({"sentinel_profile_symbol_wall_ns_total",
               "Attributed wall time per class symbol (dispatch + rules),"
               " nanoseconds",
               "wall_ns", labels},
              sym.events.wall_ns + sym.rules.wall_ns);
    s.Close();
  }
  s.Close();

  s.Open("seam_wall_ns");
  for (int i = 0; i < kGlobalSeams; ++i) {
    const char* seam = GlobalSeamName(static_cast<GlobalSeam>(i));
    s.Counter({"sentinel_profile_seam_wall_ns_total",
               "Process-level seam wall time (commit barrier, GED forward),"
               " nanoseconds",
               seam, {{"seam", seam}}},
              GlobalSnapshot(static_cast<GlobalSeam>(i)).wall_ns);
  }
  s.Close();

  s.OpenList("contention");
  for (const ContentionSnapshot& site : TopContended(16)) {
    const MetricSink::Labels labels = {{"site", site.site}};
    s.OpenItem();
    s.Info("site", site.site);
    s.Counter({"sentinel_profile_contention_acquisitions_total",
               "Profiled lock acquisitions per contention site",
               "acquisitions", labels},
              site.acquisitions);
    s.Counter({"sentinel_profile_contention_contended_total",
               "Acquisitions that blocked, per contention site", "contended",
               labels},
              site.contended);
    s.Counter({"sentinel_profile_contention_wait_ns_total",
               "Summed blocked wait time per contention site, nanoseconds",
               "wait_ns", labels},
              site.wait_ns);
    s.Close();
  }
  s.Close();
}

}  // namespace sentinel::obs
