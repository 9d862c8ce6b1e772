#include "tools/lint/lint_rules.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace hido {
namespace lint {
namespace {

std::vector<std::string> RuleNames(const std::vector<Finding>& findings) {
  std::vector<std::string> names;
  for (const Finding& f : findings) names.push_back(f.rule);
  return names;
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  const std::vector<std::string> names = RuleNames(findings);
  return std::find(names.begin(), names.end(), rule) != names.end();
}

// ---------------------------------------------------------------------------
// no-exceptions

TEST(NoExceptionsRule, FlagsThrowTryCatch) {
  const std::string bad =
      "int F(int x) {\n"
      "  try {\n"
      "    if (x < 0) throw x;\n"
      "  } catch (int e) {\n"
      "    return e;\n"
      "  }\n"
      "  return x;\n"
      "}\n";
  const std::vector<Finding> findings = LintContent("src/core/f.cc", bad);
  EXPECT_TRUE(HasRule(findings, "no-exceptions"));
  // try{, throw, and catch( are three separate offending lines.
  const std::vector<std::string> names = RuleNames(findings);
  EXPECT_EQ(std::count(names.begin(), names.end(),
                       std::string("no-exceptions")),
            3);
}

TEST(NoExceptionsRule, SuppressedByAllowComment) {
  const std::string suppressed =
      "void G() {\n"
      "  throw 1;  // hido-lint: allow(no-exceptions)\n"
      "}\n";
  EXPECT_FALSE(
      HasRule(LintContent("src/core/g.cc", suppressed), "no-exceptions"));
}

TEST(NoExceptionsRule, IgnoresCommentsStringsAndIdentifiers) {
  const std::string clean =
      "// a comment may say throw or try { freely\n"
      "const char* kMsg = \"throw\";\n"
      "int try_count = 0;  // identifier containing 'try'\n"
      "int rethrown_total = try_count;\n";
  EXPECT_TRUE(LintContent("src/core/h.cc", clean).empty());
}

// ---------------------------------------------------------------------------
// no-raw-random

TEST(NoRawRandomRule, FlagsRawEngines) {
  EXPECT_TRUE(HasRule(
      LintContent("src/core/a.cc", "std::mt19937 gen(1);\n"), "no-raw-random"));
  EXPECT_TRUE(HasRule(
      LintContent("src/core/a.cc", "std::mt19937_64 gen(1);\n"),
      "no-raw-random"));
  EXPECT_TRUE(HasRule(
      LintContent("src/core/a.cc", "std::random_device rd;\n"),
      "no-raw-random"));
  EXPECT_TRUE(HasRule(LintContent("src/core/a.cc", "int x = rand();\n"),
                      "no-raw-random"));
  EXPECT_TRUE(HasRule(LintContent("src/core/a.cc", "srand(42);\n"),
                      "no-raw-random"));
  EXPECT_TRUE(HasRule(
      LintContent("src/core/a.cc", "auto seed = time(nullptr);\n"),
      "no-raw-random"));
  EXPECT_TRUE(HasRule(
      LintContent("src/core/a.cc", "auto seed = std::time(0);\n"),
      "no-raw-random"));
}

TEST(NoRawRandomRule, AllowedInsideRngImplementation) {
  // common/rng.* is where the engine legitimately lives.
  EXPECT_TRUE(
      LintContent("src/common/rng.cc", "std::mt19937_64 engine_;\n").empty());
  EXPECT_TRUE(
      LintContent("src/common/rng.h", "#ifndef HIDO_COMMON_RNG_H_\n"
                                      "#define HIDO_COMMON_RNG_H_\n"
                                      "std::mt19937_64 engine_;\n"
                                      "#endif\n")
          .empty());
}

TEST(NoRawRandomRule, DoesNotFlagUnrelatedIdentifiers) {
  // Substrings like Elapsed"time(" must not match the time(nullptr) form,
  // and mt19937 inside a longer identifier is not an engine.
  const std::string clean =
      "double t = ElapsedTime();\n"
      "int not_mt19937_related = 0;\n"
      "auto when = timestamp(now);\n";
  EXPECT_TRUE(LintContent("src/core/b.cc", clean).empty());
}

TEST(NoRawRandomRule, SuppressedByAllowComment) {
  const std::string suppressed =
      "std::random_device rd;  // hido-lint: allow(no-raw-random)\n";
  EXPECT_TRUE(LintContent("src/core/c.cc", suppressed).empty());
}

// ---------------------------------------------------------------------------
// no-raw-mutex

TEST(NoRawMutexRule, FlagsStdMutexFamilyOutsideCommon) {
  EXPECT_TRUE(HasRule(LintContent("src/core/d.cc", "std::mutex mu;\n"),
                      "no-raw-mutex"));
  EXPECT_TRUE(HasRule(
      LintContent("src/core/d.cc", "std::condition_variable cv;\n"),
      "no-raw-mutex"));
  EXPECT_TRUE(HasRule(
      LintContent("tools/t.cc", "std::lock_guard<std::mutex> l(mu);\n"),
      "no-raw-mutex"));
  EXPECT_TRUE(HasRule(
      LintContent("tests/x_test.cc", "std::unique_lock<std::mutex> l(mu);\n"),
      "no-raw-mutex"));
  EXPECT_TRUE(HasRule(
      LintContent("src/grid/e.cc", "std::shared_mutex rw;\n"), "no-raw-mutex"));
}

TEST(NoRawMutexRule, AllowedOnlyInTheWrapperFile) {
  // The allowlist is an exact file, not a directory prefix: only
  // src/common/mutex.h may own raw primitives (it IS the wrapper).
  EXPECT_TRUE(
      LintContent("src/common/mutex.h",
                  "#ifndef HIDO_COMMON_MUTEX_H_\n"
                  "#define HIDO_COMMON_MUTEX_H_\n"
                  "std::mutex mu_;\n"
                  "#endif  // HIDO_COMMON_MUTEX_H_\n")
          .empty());
}

TEST(NoRawMutexRule, ExactFileAllowlistDoesNotLeakToSiblings) {
  // A new file dropped beside the wrapper gets no free pass — this is the
  // difference between allowed_files and allowed_prefixes.
  EXPECT_TRUE(HasRule(
      LintContent("src/common/mutex.cc", "std::mutex mu_;\n"),
      "no-raw-mutex"));
  EXPECT_TRUE(HasRule(
      LintContent("src/common/mutex_extras.h", "std::mutex mu_;\n"),
      "no-raw-mutex"));
  // Nor does it match on a bare suffix from another directory.
  EXPECT_TRUE(HasRule(
      LintContent("src/grid/src/common/mutex.h", "std::mutex mu_;\n"),
      "no-raw-mutex"));
}

TEST(NoRawMutexRule, ThreadPoolStaysOnTheWrapper) {
  // The thread pool is the most heavily locked component outside the
  // wrapper itself; sharing src/common/ with mutex.h earns it no escape
  // from common::Mutex.
  const std::string clean =
      "common::Mutex mu;\n"
      "common::MutexLock lock(&mu);\n";
  EXPECT_TRUE(LintContent("src/common/thread_pool.cc", clean).empty());
  EXPECT_TRUE(HasRule(
      LintContent("src/common/thread_pool.cc", "std::mutex mu_;\n"),
      "no-raw-mutex"));
}

TEST(NoRawMutexRule, AnnotatedWrapperIsClean) {
  const std::string clean =
      "common::Mutex mu;\n"
      "common::MutexLock lock(&mu);\n";
  EXPECT_TRUE(LintContent("src/core/f.cc", clean).empty());
}

// ---------------------------------------------------------------------------
// simd-confinement

TEST(SimdConfinementRule, FlagsIntrinsicsOutsideKernelFiles) {
  EXPECT_TRUE(HasRule(
      LintContent("src/grid/fast.cc",
                  "__m256i v = _mm256_loadu_si256(ptr);\n"),
      "simd-confinement"));
  EXPECT_TRUE(HasRule(
      LintContent("src/core/x.cc", "#include <immintrin.h>\n"),
      "simd-confinement"));
  EXPECT_TRUE(HasRule(
      LintContent("src/common/bitset.cc",
                  "#if defined(__AVX2__)\nint x;\n#endif\n"),
      "simd-confinement"));
  EXPECT_TRUE(HasRule(
      LintContent("src/serve/s.cc",
                  "if (__builtin_cpu_supports(\"avx2\")) {}\n"),
      "simd-confinement"));
  EXPECT_TRUE(HasRule(
      LintContent("src/grid/neon.cc", "auto v = vcntq_u8(bytes);\n"),
      "simd-confinement"));
}

TEST(SimdConfinementRule, AllowedOnlyInKernelFiles) {
  EXPECT_TRUE(LintContent("src/common/bitset_kernels.cc",
                          "__m256i v = _mm256_and_si256(a, b);\n")
                  .empty());
  // Exact-file allowlist: a sibling gets no free pass.
  EXPECT_TRUE(HasRule(
      LintContent("src/common/bitset_kernels_extra.cc",
                  "__m256i v = _mm256_and_si256(a, b);\n"),
      "simd-confinement"));
}

TEST(SimdConfinementRule, DoesNotFlagKernelTableUsers) {
  // Routing through the dispatch table — the sanctioned pattern — is
  // clean, as are identifiers that merely mention a kernel kind.
  const std::string clean =
      "const BitsetKernels& k = ActiveKernels();\n"
      "size_t c = k.and_count(a, b, n);\n"
      "ScopedKernelOverride forced(KernelKind::kAvx2);\n";
  EXPECT_TRUE(LintContent("src/grid/grid_model.cc", clean).empty());
}

TEST(SimdConfinementRule, CommentsAndStringsDoNotTrip) {
  const std::string prose =
      "// the avx2 path calls _mm256_and_si256 under the hood\n"
      "const char* doc = \"__AVX2__\";\n";
  EXPECT_TRUE(LintContent("src/core/doc.cc", prose).empty());
}

// ---------------------------------------------------------------------------
// no-stdio-in-core

TEST(NoStdioInCoreRule, FlagsStdioUnderCoreOnly) {
  const std::string bad = "std::cerr << \"oops\";\n";
  EXPECT_TRUE(HasRule(LintContent("src/core/g.cc", bad), "no-stdio-in-core"));
  EXPECT_TRUE(HasRule(LintContent("src/core/sub/g.cc", bad),
                      "no-stdio-in-core"));
  // The same line is fine outside src/core (tools print by design).
  EXPECT_TRUE(LintContent("tools/cli.cc", bad).empty());
  EXPECT_TRUE(LintContent("src/eval/table.cc", bad).empty());
}

TEST(NoStdioInCoreRule, FlagsPrintfFamily) {
  EXPECT_TRUE(HasRule(
      LintContent("src/core/h.cc", "printf(\"%d\", x);\n"),
      "no-stdio-in-core"));
  EXPECT_TRUE(HasRule(
      LintContent("src/core/h.cc", "fprintf(stderr, \"x\");\n"),
      "no-stdio-in-core"));
}

TEST(NoStdioInCoreRule, SuppressedByAllowComment) {
  const std::string suppressed =
      "std::cerr << x;  // hido-lint: allow(no-stdio-in-core)\n";
  EXPECT_TRUE(LintContent("src/core/i.cc", suppressed).empty());
}

// ---------------------------------------------------------------------------
// no-naked-new

TEST(NoNakedNewRule, FlagsBareNewEverywhere) {
  const std::string bad = "int* p = new int(42);\n";
  EXPECT_TRUE(HasRule(LintContent("src/core/n.cc", bad), "no-naked-new"));
  EXPECT_TRUE(HasRule(LintContent("tools/t.cc", bad), "no-naked-new"));
  EXPECT_TRUE(HasRule(LintContent("tests/x_test.cc", bad), "no-naked-new"));
  EXPECT_TRUE(HasRule(
      LintContent("src/obs/o.cc", "auto* a = new Widget[8];\n"),
      "no-naked-new"));
}

TEST(NoNakedNewRule, IgnoresCommentsStringsAndIdentifiers) {
  const std::string clean =
      "// a comment may mention new freely\n"
      "const char* kMsg = \"brand new\";\n"
      "int new_shard = renewals + newest;\n"
      "auto p = std::make_unique<int>(42);\n";
  EXPECT_TRUE(LintContent("src/core/o.cc", clean).empty());
}

TEST(NoNakedNewRule, SuppressedByAllowComment) {
  const std::string suppressed =
      "static Tracer* const t = new Tracer();  "
      "// hido-lint: allow(no-naked-new)\n";
  EXPECT_TRUE(LintContent("src/obs/trace.cc", suppressed).empty());
}

// ---------------------------------------------------------------------------
// header-guard

TEST(HeaderGuardRule, ExpectedGuardDerivation) {
  EXPECT_EQ(ExpectedHeaderGuard("src/common/mutex.h"),
            "HIDO_COMMON_MUTEX_H_");
  EXPECT_EQ(ExpectedHeaderGuard("src/core/best_set.h"),
            "HIDO_CORE_BEST_SET_H_");
  EXPECT_EQ(ExpectedHeaderGuard("tools/lint/lint_rules.h"),
            "HIDO_TOOLS_LINT_LINT_RULES_H_");
}

TEST(HeaderGuardRule, AcceptsCanonicalGuard) {
  const std::string good =
      "#ifndef HIDO_CORE_WIDGET_H_\n"
      "#define HIDO_CORE_WIDGET_H_\n"
      "#endif  // HIDO_CORE_WIDGET_H_\n";
  EXPECT_TRUE(LintContent("src/core/widget.h", good).empty());
}

TEST(HeaderGuardRule, FlagsWrongOrMissingGuard) {
  const std::string wrong =
      "#ifndef WIDGET_H\n"
      "#define WIDGET_H\n"
      "#endif\n";
  const std::vector<Finding> findings =
      LintContent("src/core/widget.h", wrong);
  ASSERT_TRUE(HasRule(findings, "header-guard"));
  EXPECT_EQ(findings[0].line, 0u) << "header-guard is a file-level finding";
  EXPECT_TRUE(HasRule(LintContent("src/core/empty.h", "int x;\n"),
                      "header-guard"));
  // .cc files have no guard requirement.
  EXPECT_TRUE(LintContent("src/core/widget.cc", "int x;\n").empty());
}

TEST(HeaderGuardRule, SuppressedByAllowComment) {
  const std::string suppressed =
      "#pragma once  // hido-lint: allow(header-guard)\n"
      "int x;\n";
  EXPECT_TRUE(LintContent("src/core/pragma.h", suppressed).empty());
}

// ---------------------------------------------------------------------------
// include-order

TEST(IncludeOrderRule, AcceptsConventionalLayout) {
  const std::string good =
      "#include \"core/widget.h\"\n"  // own header first: new block below
      "\n"
      "#include <string>\n"
      "#include <vector>\n"
      "\n"
      "#include \"common/status.h\"\n"
      "#include \"core/best_set.h\"\n";
  EXPECT_TRUE(LintContent("src/core/widget.cc", good).empty());
}

TEST(IncludeOrderRule, FlagsUnsortedBlock) {
  const std::string bad =
      "#include <vector>\n"
      "#include <string>\n";
  const std::vector<Finding> findings = LintContent("src/core/j.cc", bad);
  ASSERT_TRUE(HasRule(findings, "include-order"));
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(IncludeOrderRule, FlagsMixedStylesInOneBlock) {
  const std::string bad =
      "#include <vector>\n"
      "#include \"common/status.h\"\n";
  EXPECT_TRUE(HasRule(LintContent("src/core/k.cc", bad), "include-order"));
}

TEST(IncludeOrderRule, BlankLineStartsANewBlock) {
  // Unsorted across a blank line is fine: blocks are independent.
  const std::string good =
      "#include <vector>\n"
      "\n"
      "#include <algorithm>\n";
  EXPECT_TRUE(LintContent("src/core/l.cc", good).empty());
}

TEST(IncludeOrderRule, SuppressedByAllowComment) {
  const std::string suppressed =
      "#include <vector>\n"
      "#include <string>  // hido-lint: allow(include-order)\n";
  EXPECT_TRUE(LintContent("src/core/m.cc", suppressed).empty());
}

// ---------------------------------------------------------------------------
// doc-comment

namespace {
const char kServeHeaderPrologue[] =
    "#ifndef HIDO_SERVE_WIDGET_H_\n"
    "#define HIDO_SERVE_WIDGET_H_\n"
    "namespace hido {\n"
    "namespace serve {\n";
const char kServeHeaderEpilogue[] =
    "}  // namespace serve\n"
    "}  // namespace hido\n"
    "#endif  // HIDO_SERVE_WIDGET_H_\n";

std::vector<Finding> LintServeHeader(const std::string& body) {
  return LintContent("src/serve/widget.h",
                     kServeHeaderPrologue + body + kServeHeaderEpilogue);
}
}  // namespace

TEST(DocCommentRule, FlagsUndocumentedPublicDeclarations) {
  // An undocumented class at namespace scope and an undocumented public
  // method are two separate findings.
  const std::vector<Finding> findings = LintServeHeader(
      "class Widget {\n"
      " public:\n"
      "  int Size() const;\n"
      "};\n");
  const std::vector<std::string> names = RuleNames(findings);
  EXPECT_EQ(
      std::count(names.begin(), names.end(), std::string("doc-comment")), 2);
}

TEST(DocCommentRule, AcceptsAdjacentAndTrailingDocs) {
  EXPECT_TRUE(LintServeHeader(
                  "/// A documented widget.\n"
                  "class Widget {\n"
                  " public:\n"
                  "  /// Its size.\n"
                  "  int Size() const;\n"
                  "  int count = 0;  ///< trailing member doc\n"
                  "};\n"
                  "/// Free function doc.\n"
                  "int MakeWidget();\n")
                  .empty());
}

TEST(DocCommentRule, PlainCommentDoesNotCount) {
  EXPECT_TRUE(HasRule(LintServeHeader("// not a doc comment\n"
                                      "int MakeWidget();\n"),
                      "doc-comment"));
}

TEST(DocCommentRule, PrivateAndNestedHiddenScopesAreExempt) {
  // Private members, members of a struct nested in a private section, and
  // function-local code need no docs.
  EXPECT_TRUE(LintServeHeader(
                  "/// Documented.\n"
                  "class Widget {\n"
                  " public:\n"
                  "  /// Documented accessor (the body line is exempt).\n"
                  "  int Size() const {\n"
                  "    int local = 0;\n"
                  "    return local;\n"
                  "  }\n"
                  "\n"
                  " private:\n"
                  "  struct Impl {\n"
                  "    int undocumented_field = 0;\n"
                  "  };\n"
                  "  int size_ = 0;\n"
                  "};\n")
                  .empty());
}

TEST(DocCommentRule, StructuralNoiseIsExempt) {
  // Access labels, defaulted/deleted members, friends, using-aliases,
  // forward declarations, and multi-line continuations produce no
  // findings of their own.
  EXPECT_TRUE(LintServeHeader(
                  "class Helper;\n"
                  "/// Documented.\n"
                  "class Widget {\n"
                  " public:\n"
                  "  Widget() = default;\n"
                  "  Widget(const Widget&) = delete;\n"
                  "  using Ptr = Widget*;\n"
                  "  friend class Helper;\n"
                  "  /// Spans lines: only the first line is checked.\n"
                  "  int Measure(int a,\n"
                  "              int b) const;\n"
                  "};\n")
                  .empty());
}

TEST(DocCommentRule, AppliesToEverySrcHeaderButNotSourcesOrTools) {
  const std::string undocumented =
      "#ifndef HIDO_CORE_WIDGET_H_\n"
      "#define HIDO_CORE_WIDGET_H_\n"
      "namespace hido {\n"
      "int Undocumented();\n"
      "}  // namespace hido\n"
      "#endif  // HIDO_CORE_WIDGET_H_\n";
  // Every src/ header is covered, not just src/serve/.
  EXPECT_TRUE(
      HasRule(LintContent("src/core/widget.h", undocumented), "doc-comment"));
  EXPECT_TRUE(
      HasRule(LintContent("src/serve/widget.h", undocumented), "doc-comment"));
  // .cc files are exempt: the rule covers the API surface.
  EXPECT_TRUE(
      LintContent("src/serve/widget.cc", "int Undocumented() { return 0; }\n")
          .empty());
  // Headers outside any src/ segment are exempt (tools, tests harnesses).
  EXPECT_FALSE(HasRule(LintContent("tools/lint/widget.h", undocumented),
                       "doc-comment"));
  // The testdata fixture path contains src/, so it IS covered.
  EXPECT_TRUE(HasRule(
      LintContent("tests/lint/testdata/src/serve/widget.h",
                  "#ifndef HIDO_TESTS_LINT_TESTDATA_SRC_SERVE_WIDGET_H_\n"
                  "#define HIDO_TESTS_LINT_TESTDATA_SRC_SERVE_WIDGET_H_\n"
                  "namespace hido {\n"
                  "int Undocumented();\n"
                  "}  // namespace hido\n"
                  "#endif\n"),
      "doc-comment"));
}

TEST(DocCommentRule, IgnoresBackslashContinuedMacroBodies) {
  // A multi-line #define's continuation lines are part of the directive,
  // not namespace-scope declarations.
  const std::string macro_header =
      "#ifndef HIDO_CORE_M_H_\n"
      "#define HIDO_CORE_M_H_\n"
      "namespace hido {\n"
      "#define HIDO_RETRY(expr)   \\\n"
      "  do {                     \\\n"
      "    (void)(expr);          \\\n"
      "  } while (0)\n"
      "}  // namespace hido\n"
      "#endif  // HIDO_CORE_M_H_\n";
  EXPECT_FALSE(HasRule(LintContent("src/core/m.h", macro_header),
                       "doc-comment"));
}

TEST(DocCommentRule, SuppressedByAllowComment) {
  EXPECT_TRUE(LintServeHeader(
                  "int Odd();  // hido-lint: allow(doc-comment)\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// Stripper

TEST(StripCommentsAndStrings, RemovesCommentsPreservingLines) {
  const std::string source =
      "int a;  // trailing throw\n"
      "/* block\n"
      "   spanning throw\n"
      "   lines */ int b;\n";
  const std::string stripped = StripCommentsAndStrings(source);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(source.begin(), source.end(), '\n'));
  EXPECT_EQ(stripped.find("throw"), std::string::npos);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(StripCommentsAndStrings, EmptiesStringAndCharLiterals) {
  const std::string source =
      "const char* s = \"throw \\\" inside\";\n"
      "char c = '\\'';\n";
  const std::string stripped = StripCommentsAndStrings(source);
  EXPECT_EQ(stripped.find("throw"), std::string::npos);
  EXPECT_EQ(stripped.find("inside"), std::string::npos);
}

TEST(StripCommentsAndStrings, HandlesRawStrings) {
  const std::string source =
      "auto re = \"x\";\n"
      "auto raw = R\"(throw inside ) quote \" still inside)\";\n"
      "int after = 1;\n";
  const std::string stripped = StripCommentsAndStrings(source);
  EXPECT_EQ(stripped.find("throw"), std::string::npos);
  EXPECT_NE(stripped.find("int after = 1;"), std::string::npos);
}

TEST(StripCommentsAndStrings, HandlesDelimitedRawStrings) {
  const std::string source =
      "auto raw = R\"xy(body with )\" fake end)xy\";\n"
      "int after = 2;\n";
  const std::string stripped = StripCommentsAndStrings(source);
  EXPECT_EQ(stripped.find("body"), std::string::npos);
  EXPECT_EQ(stripped.find("fake end"), std::string::npos);
  EXPECT_NE(stripped.find("int after = 2;"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Token-rule anchors: a token rule's regex runs only on lines that hold one
// of its anchors, so a line the regex matches without one would be missed.

bool HoldsAnchor(const std::string& line,
                 const std::vector<std::string>& anchors) {
  return std::any_of(anchors.begin(), anchors.end(),
                     [&line](const std::string& anchor) {
                       return line.find(anchor) != std::string::npos;
                     });
}

TEST(TokenRuleAnchors, EveryMatchHoldsAnAnchor) {
  struct Case {
    const char* rule;
    const char* fixture;  // under tests/lint/testdata, or null
    std::vector<std::string> spellings;  // lines the regex matches
  };
  const std::vector<Case> cases = {
      {"no-exceptions",
       "bad_exceptions.cc",
       {"throw x;", "throw;", "  try {", "try{", "} catch (int e) {",
        "catch(...) {}"}},
      {"no-raw-random",
       "bad_random.cc",
       {"std::mt19937 gen(1);", "std::mt19937_64 gen;",
        "std::random_device rd;", "int x = rand();", "srand (42);",
        "seed = time(nullptr);", "std::time( NULL )", "time(0);"}},
      {"no-raw-mutex",
       "bad_mutex.cc",
       {"std::mutex mu;", "std::recursive_mutex mu;", "std::shared_mutex mu;",
        "std::timed_mutex mu;", "std::condition_variable cv;",
        "std::condition_variable_any cv;", "std::lock_guard<M> l(mu);",
        "std::unique_lock l(mu);", "std::scoped_lock l(a, b);",
        "std::shared_lock l(mu);"}},
      {"no-stdio-in-core",
       nullptr,
       {"printf(x);", "fprintf (stderr, x);", "sprintf(buf, x);", "puts(x);",
        "std::cout << x;", "std::cerr << x;", "std::clog << x;"}},
      {"no-naked-new",
       "bad_naked_new.cc",
       {"auto* p = new int;", "new (buf) T();", "T* t = new T[3];"}},
      {"simd-confinement",
       "bad_simd.cc",
       {"__m256i v;", "__m128 a;", "__m512d z;", "_mm256_and_si256(a, b);",
        "_mm_popcnt_u64 (x);", "#include <immintrin.h>",
        "#include <arm_neon.h>", "vcntq_u8(v);", "vaddq_s32(a, b);",
        "__builtin_cpu_supports(x)", "#if defined(__AVX2__)",
        "#ifdef __ARM_NEON"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.rule);
    const std::vector<std::string>& anchors = TokenRuleAnchors(c.rule);
    ASSERT_FALSE(anchors.empty());
    std::vector<std::string> lines = c.spellings;
    for (const std::string& spelling : c.spellings) {
      EXPECT_TRUE(TokenRuleMatches(c.rule, spelling)) << spelling;
    }
    if (c.fixture != nullptr) {
      std::ifstream in(std::string(HIDO_LINT_TESTDATA) + "/" + c.fixture);
      ASSERT_TRUE(in) << c.fixture;
      std::stringstream content;
      content << in.rdbuf();
      const std::vector<std::string> fixture_lines =
          SplitLines(StripCommentsAndStrings(content.str()));
      lines.insert(lines.end(), fixture_lines.begin(), fixture_lines.end());
    }
    size_t matched = 0;
    for (const std::string& line : lines) {
      if (!TokenRuleMatches(c.rule, line)) continue;
      ++matched;
      EXPECT_TRUE(HoldsAnchor(line, anchors)) << line;
    }
    if (c.fixture != nullptr) {
      EXPECT_GT(matched, c.spellings.size()) << "no fixture line matched";
    }
  }
  EXPECT_TRUE(TokenRuleAnchors("include-order").empty());
}

// ---------------------------------------------------------------------------
// Rule table

TEST(RuleTable, ListsEveryRuleOnce) {
  std::vector<std::string> names;
  for (const RuleInfo& rule : Rules()) names.push_back(rule.name);
  const std::vector<std::string> expected = {
      "no-exceptions", "no-raw-random",    "no-raw-mutex",
      "no-stdio-in-core", "no-naked-new",  "simd-confinement",
      "header-guard",  "include-order",    "doc-comment",
      "layering",      "metric-contract"};
  EXPECT_EQ(names, expected);
}

TEST(RuleTable, SuppressionTagIsPerRule) {
  EXPECT_TRUE(IsSuppressed("x;  // hido-lint: allow(no-exceptions)",
                           "no-exceptions"));
  EXPECT_FALSE(IsSuppressed("x;  // hido-lint: allow(no-exceptions)",
                            "no-raw-random"));
  EXPECT_FALSE(IsSuppressed("x;  // unrelated comment", "no-exceptions"));
}

}  // namespace
}  // namespace lint
}  // namespace hido
