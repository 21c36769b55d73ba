#include "tools/saba_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "tools/saba_lint/model.h"
#include "tools/saba_lint/project.h"
#include "tools/saba_lint/scanner.h"

namespace saba {
namespace lint {
namespace {

// ---------------------------------------------------------------------------
// Rule scoping and suppression.
// ---------------------------------------------------------------------------

bool StartsWith(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

struct FileScope {
  bool rng_impl = false;        // src/sim/rng.{h,cc}: R1 exempt.
  bool wallclock_impl = false;  // src/sim/wallclock.h: R2 exempt.
  bool knobs_impl = false;      // src/exp/knobs.{h,cc}: R5 exempt.
  bool pool_impl = false;       // src/sim/worker_pool.{h,cc}: R7 exempt.
  bool bench = false;           // bench/: R3 applies.
  bool header = false;          // *.h: guard check applies.
  bool alloc_core = false;      // src/net/{allocation_engine,allocator}.*: R8 applies.
};

FileScope ScopeFor(const std::string& rel_path) {
  FileScope scope;
  scope.rng_impl = rel_path == "src/sim/rng.h" || rel_path == "src/sim/rng.cc";
  scope.wallclock_impl = rel_path == "src/sim/wallclock.h";
  scope.knobs_impl = rel_path == "src/exp/knobs.h" || rel_path == "src/exp/knobs.cc";
  scope.pool_impl =
      rel_path == "src/sim/worker_pool.h" || rel_path == "src/sim/worker_pool.cc";
  scope.bench = StartsWith(rel_path, "bench/");
  scope.header = rel_path.size() >= 2 && rel_path.compare(rel_path.size() - 2, 2, ".h") == 0;
  scope.alloc_core =
      rel_path == "src/net/allocation_engine.h" || rel_path == "src/net/allocation_engine.cc" ||
      rel_path == "src/net/allocator.h";
  return scope;
}

// R4's dedicated annotation doubles as its suppression: the reason inside the
// parentheses is the audit record. Same line or the line above.
bool HasUnorderedAnnotation(const ScannedFile& scanned, int line) {
  return HasAuditAnnotation(scanned, line, line, "unordered-iter-ok");
}

// ---------------------------------------------------------------------------
// The rules.
// ---------------------------------------------------------------------------

const std::set<std::string>& R1BannedIdentifiers() {
  static const std::set<std::string> kBanned = {
      "rand",        "srand",         "rand_r",           "drand48",
      "lrand48",     "mrand48",       "erand48",          "nrand48",
      "jrand48",     "random",        "srandom",          "mt19937",
      "mt19937_64",  "random_device", "default_random_engine",
      "minstd_rand", "minstd_rand0",  "ranlux24",         "ranlux48",
      "ranlux24_base", "ranlux48_base", "knuth_b",
      "mersenne_twister_engine", "linear_congruential_engine",
      "subtract_with_carry_engine"};
  return kBanned;
}

const std::set<std::string>& R2BannedIdentifiers() {
  // `time`/`clock` are handled separately (call-form only) to avoid flagging
  // ordinary variables and members named `time`.
  static const std::set<std::string> kBanned = {
      "system_clock", "steady_clock", "high_resolution_clock", "gettimeofday",
      "clock_gettime", "timespec_get", "localtime",  "localtime_r",
      "gmtime",        "gmtime_r",     "mktime",     "ctime",
      "asctime",       "strftime",     "ftime"};
  return kBanned;
}

const std::set<std::string>& R4UnorderedContainers() {
  static const std::set<std::string> kContainers = {"unordered_map", "unordered_set",
                                                    "unordered_multimap", "unordered_multiset"};
  return kContainers;
}

const std::set<std::string>& R5BannedIdentifiers() {
  static const std::set<std::string> kBanned = {"getenv", "secure_getenv", "setenv", "putenv",
                                                "unsetenv"};
  return kBanned;
}

// Identifiers that mark a statement as thread-count- or wall-clock-dependent
// for R3. String literals are blanked by the scanner, so a stderr note that
// merely *mentions* SABA_JOBS in its text does not trip this.
const std::set<std::string>& R3TimingIdentifiers() {
  static const std::set<std::string> kTiming = {"ElapsedSeconds", "Stopwatch", "EnvJobs",
                                                "hardware_concurrency"};
  return kTiming;
}

// R7: raw threading primitives. Only the std::-qualified forms are banned so
// an ordinary variable named `thread` or `mutex` stays legal; the pthread/C11
// thread entry points are banned by call form.
const std::set<std::string>& R7BannedStdIdentifiers() {
  static const std::set<std::string> kBanned = {
      "thread",        "jthread",        "async",
      "mutex",         "recursive_mutex", "timed_mutex",
      "recursive_timed_mutex",           "shared_mutex",
      "shared_timed_mutex",              "condition_variable",
      "condition_variable_any",          "promise",
      "packaged_task", "future",         "shared_future"};
  return kBanned;
}

const std::set<std::string>& R7BannedThreadCalls() {
  static const std::set<std::string> kBanned = {"pthread_create", "thrd_create"};
  return kBanned;
}

struct RuleContext {
  const ScannedTu* tu;
  FileScope scope;
  std::vector<Finding>* findings;
};

void Report(const RuleContext& ctx, int line, const char* rule, std::string message) {
  if (IsSuppressed(ctx.tu->scanned, line, rule)) {
    return;
  }
  ctx.findings->push_back({ctx.tu->display_path, line, rule, std::move(message)});
}

void CheckIdentifierRules(const RuleContext& ctx) {
  const std::vector<Token>& tokens = ctx.tu->tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (!tok.is_ident) {
      continue;
    }
    const Token* prev = i > 0 ? &tokens[i - 1] : nullptr;
    const Token* next = i + 1 < tokens.size() ? &tokens[i + 1] : nullptr;
    const bool member_access = prev != nullptr && (prev->text == "." || prev->text == "->");
    const bool call_form = next != nullptr && next->text == "(";

    if (!ctx.scope.rng_impl && !member_access && R1BannedIdentifiers().count(tok.text) != 0) {
      Report(ctx, tok.line, "R1",
             "raw randomness source '" + tok.text +
                 "'; all randomness flows through saba::Rng with an explicit seed "
                 "(src/sim/rng.h) so results are reproducible from the printed seed");
    }
    if (!ctx.scope.wallclock_impl && !member_access) {
      if (R2BannedIdentifiers().count(tok.text) != 0) {
        Report(ctx, tok.line, "R2",
               "wall-clock read '" + tok.text +
                   "'; real-time measurement goes through saba::Stopwatch "
                   "(src/sim/wallclock.h), simulated time through SimTime");
      } else if ((tok.text == "time" || tok.text == "clock") && call_form &&
                 !(prev != nullptr && prev->is_ident)) {
        // Only the free-function call forms: `std::time(`, `= time(` —
        // members like scheduler->time() and declarations like
        // `double time()` (previous token an identifier) stay legal.
        Report(ctx, tok.line, "R2",
               "wall-clock read '" + tok.text +
                   "()'; real-time measurement goes through saba::Stopwatch "
                   "(src/sim/wallclock.h), simulated time through SimTime");
      }
    }
    if (R4UnorderedContainers().count(tok.text) != 0 &&
        !HasUnorderedAnnotation(ctx.tu->scanned, tok.line)) {
      // One finding per line: a single annotation covers e.g. a nested
      // unordered_map<K, unordered_set<V>> declaration.
      if (ctx.findings->empty() || ctx.findings->back().rule != "R4" ||
          ctx.findings->back().line != tok.line ||
          ctx.findings->back().file != ctx.tu->display_path) {
        Report(ctx, tok.line, "R4",
               "'" + tok.text +
                   "' has implementation-defined iteration order; audit every "
                   "iteration/accumulation over it and annotate the use with "
                   "// saba-lint: unordered-iter-ok(<reason>), or switch to an "
                   "ordered container (DESIGN.md §7.1 canonical-order contract)");
      }
    }
    if (!ctx.scope.knobs_impl && !member_access && R5BannedIdentifiers().count(tok.text) != 0) {
      Report(ctx, tok.line, "R5",
             "raw environment access '" + tok.text +
                 "'; knobs are read through src/exp/knobs.h (strict parsing, "
                 "registry-backed banners) so a typo'd variable aborts instead of "
                 "silently defaulting");
    }
    if (!ctx.scope.pool_impl) {
      const Token* prev2 = i >= 2 ? &tokens[i - 2] : nullptr;
      const bool std_qualified = prev != nullptr && prev->text == "::" && prev2 != nullptr &&
                                 prev2->is_ident && prev2->text == "std";
      if ((std_qualified && R7BannedStdIdentifiers().count(tok.text) != 0) ||
          (call_form && !member_access && R7BannedThreadCalls().count(tok.text) != 0)) {
        Report(ctx, tok.line, "R7",
               "raw threading primitive '" + tok.text +
                   "'; threads and locks are constructed only inside saba::WorkerPool "
                   "(src/sim/worker_pool.h) — fan work over WorkerPool or SweepRunner "
                   "so the determinism argument and TSan coverage stay centralized "
                   "(DESIGN.md §7.3)");
      }
    }
  }
}

// R8: the allocation core is fixed-point (units.h Bps64); its bit-exactness
// contract (DESIGN.md §7.1) dies the moment a rate or capacity lives in a
// double again. Two patterns are banned in src/net/allocation_engine.{h,cc}
// and src/net/allocator.h:
//  * a floating-point declaration whose name says it holds a rate/capacity
//    ("double rate", "float capacity_bps", ...), and
//  * ==/!= against a floating-point literal (exact float comparison — rate
//    math compares integers; fluid-boundary code uses explicit tolerances).

bool IsRateName(const std::string& ident) {
  std::string lower;
  lower.reserve(ident.size());
  for (char c : ident) {
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  for (const char* needle : {"rate", "capacity", "goodput", "bandwidth", "bps"}) {
    if (lower.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

bool IsFloatLiteral(const Token& tok) {
  if (tok.is_ident || tok.text.empty() ||
      std::isdigit(static_cast<unsigned char>(tok.text[0])) == 0) {
    return false;
  }
  if (tok.text.size() >= 2 && tok.text[0] == '0' && (tok.text[1] == 'x' || tok.text[1] == 'X')) {
    return false;  // Hex: the 'e'/'f' digits are not exponent/suffix.
  }
  const char back = tok.text.back();
  return tok.text.find('.') != std::string::npos ||
         tok.text.find('e') != std::string::npos || tok.text.find('E') != std::string::npos ||
         back == 'f' || back == 'F';
}

void CheckAllocCoreFixedPointRule(const RuleContext& ctx) {
  if (!ctx.scope.alloc_core) {
    return;
  }
  const std::vector<Token>& tokens = ctx.tu->tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    const Token* next = i + 1 < tokens.size() ? &tokens[i + 1] : nullptr;
    if (tok.is_ident && (tok.text == "double" || tok.text == "float") && next != nullptr &&
        next->is_ident && IsRateName(next->text)) {
      Report(ctx, next->line, "R8",
             "raw " + tok.text + " rate/capacity '" + next->text +
                 "'; the allocation core is fixed-point — hold rates and capacities "
                 "in Bps64 (src/net/units.h) and convert at the fluid boundary via "
                 "RoundBps/BpsToDouble (DESIGN.md §7.1)");
    }
    // ==/!= tokenize as '='+'=' and '!'+'='.
    const bool eq_op = next != nullptr && next->text == "=" &&
                       (tok.text == "=" || tok.text == "!");
    if (eq_op) {
      const Token* lhs = i > 0 ? &tokens[i - 1] : nullptr;
      const Token* rhs = i + 2 < tokens.size() ? &tokens[i + 2] : nullptr;
      if ((lhs != nullptr && IsFloatLiteral(*lhs)) || (rhs != nullptr && IsFloatLiteral(*rhs))) {
        Report(ctx, tok.line, "R8",
               "exact floating-point comparison in the allocation core; rate math is "
               "integer (Bps64) — compare the integers, or use an explicit tolerance "
               "at the fluid boundary (DESIGN.md §7.1)");
      }
    }
  }
}

// R3: in bench/ code, a statement that writes to stdout must not also touch a
// timing/thread-count source; `printf`/`puts` (stdout writers that bypass the
// report helpers) are flagged outright.
void CheckBenchStdoutRule(const RuleContext& ctx) {
  if (!ctx.scope.bench) {
    return;
  }
  const std::vector<Token>& tokens = ctx.tu->tokens;
  size_t stmt_begin = 0;
  for (size_t i = 0; i <= tokens.size(); ++i) {
    const bool boundary = i == tokens.size() || tokens[i].text == ";" || tokens[i].text == "{" ||
                          tokens[i].text == "}";
    if (!boundary) {
      continue;
    }
    bool writes_stdout = false;
    bool touches_timing = false;
    int stdout_line = 0;
    for (size_t j = stmt_begin; j < i; ++j) {
      const Token& tok = tokens[j];
      if (!tok.is_ident) {
        continue;
      }
      if (tok.text == "cout" || tok.text == "printf" || tok.text == "puts") {
        writes_stdout = true;
        stdout_line = tok.line;
        if (tok.text != "cout") {
          Report(ctx, tok.line, "R3",
                 "'" + tok.text +
                     "' writes to stdout outside the report helpers; bench stdout is "
                     "the diffable report (src/exp/report.h) — diagnostics go to "
                     "stderr via std::cerr/fprintf(stderr, ...)");
        }
      } else if (R3TimingIdentifiers().count(tok.text) != 0) {
        touches_timing = true;
      }
    }
    if (writes_stdout && touches_timing) {
      Report(ctx, stdout_line, "R3",
             "stdout statement mixes in a timing/thread-count source; bench stdout "
             "must be byte-identical across runs and SABA_JOBS (DESIGN.md §7) — "
             "print wall-clock or job-count diagnostics to stderr");
    }
    stmt_begin = i + 1;
  }
}

// R6: quote-includes must be repo-rooted, and headers carry the canonical
// guard derived from their repo-relative path (src/sim/rng.h →
// SRC_SIM_RNG_H_).
std::string ExpectedGuard(const std::string& rel_path) {
  std::string guard;
  guard.reserve(rel_path.size() + 1);
  for (char c : rel_path) {
    guard.push_back(std::isalnum(static_cast<unsigned char>(c))
                        ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                        : '_');
  }
  guard.push_back('_');
  return guard;
}

std::string Trimmed(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) {
    ++b;
  }
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
    --e;
  }
  return s.substr(b, e - b);
}

void CheckIncludeAndGuardRule(const RuleContext& ctx) {
  // Operates on raw lines: include paths are string literals, which the
  // scanner blanks out of the code view.
  const std::vector<std::string>& code = ctx.tu->scanned.raw;
  const char* kRoots[] = {"src/", "bench/", "tests/", "examples/", "tools/"};

  std::string first_ifndef;
  std::string first_define;
  int guard_line = 0;

  for (size_t li = 0; li < code.size(); ++li) {
    const std::string line = Trimmed(code[li]);
    const int line_no = static_cast<int>(li) + 1;
    if (line.empty() || line[0] != '#') {
      continue;
    }
    const std::string directive = Trimmed(line.substr(1));
    if (StartsWith(directive, "include")) {
      const std::string rest = Trimmed(directive.substr(7));
      if (rest.size() >= 2 && rest.front() == '"') {
        const size_t close = rest.find('"', 1);
        const std::string path = close == std::string::npos ? "" : rest.substr(1, close - 1);
        const bool rooted = std::any_of(std::begin(kRoots), std::end(kRoots),
                                        [&](const char* root) { return StartsWith(path, root); });
        if (!rooted) {
          Report(ctx, line_no, "R6",
                 "quote-include \"" + path +
                     "\" is not repo-rooted; include project headers by their "
                     "repository path (e.g. \"src/net/topology.h\")");
        }
      }
    } else if (StartsWith(directive, "pragma") &&
               StartsWith(Trimmed(directive.substr(6)), "once") && ctx.scope.header) {
      Report(ctx, line_no, "R6",
             "#pragma once; this repository uses canonical include guards "
             "(" + ExpectedGuard(ctx.tu->rel_path) + ")");
    } else if (first_ifndef.empty() && StartsWith(directive, "ifndef")) {
      std::istringstream iss(Trimmed(directive.substr(6)));
      iss >> first_ifndef;  // First token only: a trailing comment is legal.
      guard_line = line_no;
    } else if (!first_ifndef.empty() && first_define.empty() && StartsWith(directive, "define")) {
      std::istringstream iss(Trimmed(directive.substr(6)));
      iss >> first_define;
    }
  }

  if (ctx.scope.header) {
    const std::string expected = ExpectedGuard(ctx.tu->rel_path);
    if (first_ifndef.empty()) {
      Report(ctx, 1, "R6", "header has no include guard; expected " + expected);
    } else if (first_ifndef != expected || first_define != expected) {
      Report(ctx, guard_line, "R6",
             "include guard '" + first_ifndef + "'" +
                 (first_define != first_ifndef ? " / '#define " + first_define + "'" : "") +
                 " does not match the canonical path-derived guard " + expected);
    }
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// GitHub workflow commands use %-encoding for their own delimiters.
std::string GithubEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '%':
        out += "%25";
        break;
      case '\n':
        out += "%0A";
        break;
      case '\r':
        out += "%0D";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

// Walks up from `start` looking for the checked-in layer map; returns ""
// when no enclosing directory carries one.
std::string DiscoverLayersFile(const std::string& start) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path p = fs::absolute(fs::path(start), ec);
  if (ec) {
    return "";
  }
  if (fs::is_regular_file(p, ec)) {
    p = p.parent_path();
  }
  while (!p.empty()) {
    const fs::path candidate = p / "tools" / "saba_lint" / "layers.txt";
    if (fs::is_regular_file(candidate, ec)) {
      return candidate.generic_string();
    }
    const fs::path parent = p.parent_path();
    if (parent == p) {
      break;
    }
    p = parent;
  }
  return "";
}

}  // namespace

std::vector<std::pair<std::string, std::string>> RuleTable() {
  return {
      {"R1", "randomness only through saba::Rng (src/sim/rng.h) with explicit seeds"},
      {"R2", "wall-clock reads only via saba::Stopwatch (src/sim/wallclock.h)"},
      {"R3", "bench stdout is the diffable report: no timings or job counts on stdout"},
      {"R4", "unordered-container uses carry // saba-lint: unordered-iter-ok(<reason>)"},
      {"R5", "environment access only through src/exp/knobs.h"},
      {"R6", "repo-rooted quote-includes and canonical path-derived header guards"},
      {"R7", "threads and locks constructed only inside saba::WorkerPool (src/sim/worker_pool.h)"},
      {"R8", "allocation-core rates stay fixed-point Bps64: no double rate/capacity fields, "
             "no float ==/!="},
      {"R9", "includes respect the layer DAG (tools/saba_lint/layers.txt, DESIGN.md §9): "
             "no upward, lateral, or cyclic includes"},
      {"R10", "mutable namespace-scope / static-local state outside src/sim/ carries "
              "// saba-lint: shared-state-ok(<reason>)"},
      {"R11", "lambdas dispatched to saba::WorkerPool capture by reference only under "
              "// saba-lint: pool-capture-ok(<reason>)"},
  };
}

std::vector<Finding> LintTu(const ScannedTu& tu) {
  std::vector<Finding> findings;
  RuleContext ctx{&tu, ScopeFor(tu.rel_path), &findings};
  CheckIdentifierRules(ctx);
  CheckAllocCoreFixedPointRule(ctx);
  CheckBenchStdoutRule(ctx);
  CheckIncludeAndGuardRule(ctx);
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.line, a.rule, a.message) < std::tie(b.line, b.rule, b.message);
  });
  return findings;
}

std::vector<Finding> LintFile(const std::string& rel_path, const std::string& display_path,
                              std::string_view content) {
  return LintTu(MakeScannedTu(rel_path, display_path, content));
}

std::vector<Finding> LintFile(const std::string& rel_path, std::string_view content) {
  return LintFile(rel_path, rel_path, content);
}

std::string RelativizePath(const std::string& path) {
  std::string normalized = path;
  std::replace(normalized.begin(), normalized.end(), '\\', '/');
  const char* kRoots[] = {"src/", "bench/", "tests/", "examples/", "tools/"};
  size_t best = std::string::npos;
  for (const char* root : kRoots) {
    const std::string marker = std::string("/") + root;
    const size_t pos = normalized.rfind(marker);
    if (pos != std::string::npos && (best == std::string::npos || pos > best)) {
      best = pos;
    }
    if (StartsWith(normalized, root)) {
      return normalized;  // Already repo-relative.
    }
  }
  return best == std::string::npos ? normalized : normalized.substr(best + 1);
}

TreeLintResult LintTree(const std::vector<std::string>& paths, const TreeLintOptions& options) {
  namespace fs = std::filesystem;
  TreeLintResult result;
  std::vector<std::string> files;
  auto want = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".h" || ext == ".cpp";
  };
  for (const std::string& path : paths) {
    fs::path p(path);
    if (fs::is_directory(p)) {
      for (fs::recursive_directory_iterator it(p), end; it != end; ++it) {
        if (it->is_directory()) {
          const std::string name = it->path().filename().string();
          // Fixture snippets violate rules on purpose; hidden and build
          // directories are not part of the tree contract.
          if (name == "testdata" || name == "build" || (!name.empty() && name[0] == '.')) {
            it.disable_recursion_pending();
          }
          continue;
        }
        if (it->is_regular_file() && want(it->path())) {
          files.push_back(it->path().generic_string());
        }
      }
    } else if (fs::is_regular_file(p)) {
      files.push_back(p.generic_string());
    } else {
      result.findings.push_back({path, 0, "R0", "path does not exist"});
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // The layer map: explicit path, or auto-discovered by walking up from the
  // inputs. R9 is a build gate — a missing or malformed map is a finding,
  // never a silent skip.
  LayerMap layers;
  bool have_layers = false;
  std::string layers_path = options.layers_path;
  if (layers_path.empty()) {
    for (const std::string& path : paths) {
      layers_path = DiscoverLayersFile(path);
      if (!layers_path.empty()) {
        break;
      }
    }
  }
  if (layers_path.empty()) {
    result.findings.push_back({"tools/saba_lint/layers.txt", 0, "R0",
                               "layer map not found from the input paths; pass "
                               "--layers=<path> so the R9 DAG check can run"});
  } else {
    std::ifstream in(layers_path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    if (!in.good() && buffer.str().empty()) {
      result.findings.push_back({layers_path, 0, "R0", "layer map is unreadable"});
    } else if (!ParseLayerMap(buffer.str(), &layers, &error)) {
      result.findings.push_back({layers_path, 0, "R0", error});
    } else {
      have_layers = true;
    }
  }

  // Phase 1: one read + scan per file, shared by the per-file rules and the
  // TU models (the tokenizer cache — no rule re-reads the tree).
  std::vector<ScannedTu> tus;
  std::vector<TuModel> models;
  tus.reserve(files.size());
  models.reserve(files.size());
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string rel = RelativizePath(file);
    tus.push_back(MakeScannedTu(rel, rel, buffer.str()));
    std::vector<Finding> findings = LintTu(tus.back());
    result.findings.insert(result.findings.end(), std::make_move_iterator(findings.begin()),
                           std::make_move_iterator(findings.end()));
    models.push_back(BuildTuModel(tus.back()));
  }
  result.files_scanned = files.size();

  // Phase 2: whole-program rules over the merged models.
  std::vector<Finding> project =
      CheckProjectRules(tus, models, have_layers ? &layers : nullptr);
  result.findings.insert(result.findings.end(), std::make_move_iterator(project.begin()),
                         std::make_move_iterator(project.end()));
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });

  if (have_layers) {
    result.graph_edges = LayerGraphEdges(models, layers);
  }
  return result;
}

std::vector<Finding> LintPaths(const std::vector<std::string>& paths, std::ostream& out) {
  TreeLintResult result = LintTree(paths, TreeLintOptions{});
  PrintFindings(result.findings, OutputFormat::kText, result.files_scanned, out);
  return std::move(result.findings);
}

void PrintFindings(const std::vector<Finding>& findings, OutputFormat format,
                   size_t files_scanned, std::ostream& out) {
  switch (format) {
    case OutputFormat::kText:
      for (const Finding& f : findings) {
        out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
      }
      break;
    case OutputFormat::kJson: {
      out << "{\n  \"tool\": \"saba_lint\",\n  \"schema\": 1,\n  \"files_scanned\": "
          << files_scanned << ",\n  \"findings\": [";
      for (size_t i = 0; i < findings.size(); ++i) {
        const Finding& f = findings[i];
        out << (i == 0 ? "\n" : ",\n") << "    {\"file\": \"" << JsonEscape(f.file)
            << "\", \"line\": " << f.line << ", \"rule\": \"" << JsonEscape(f.rule)
            << "\", \"message\": \"" << JsonEscape(f.message) << "\"}";
      }
      out << (findings.empty() ? "]" : "\n  ]") << ",\n  \"count\": " << findings.size()
          << "\n}\n";
      break;
    }
    case OutputFormat::kGithub:
      for (const Finding& f : findings) {
        out << "::error file=" << GithubEscape(f.file) << ",line=" << f.line
            << ",title=saba-lint " << GithubEscape(f.rule) << "::" << GithubEscape(f.message)
            << "\n";
      }
      break;
  }
}

}  // namespace lint
}  // namespace saba
