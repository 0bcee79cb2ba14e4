#include "tidy_checks.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <string>

namespace dbs3_tidy {
namespace {

using Kind = Token::Kind;

bool TextIn(const Token& t, std::initializer_list<const char*> names) {
  for (const char* n : names) {
    if (t.text == n) return true;
  }
  return false;
}

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

// ------------------------------------------------------------- scope model

struct Scope {
  enum class Kind {
    kNamespace,
    kClass,
    kEnum,
    kFunction,
    kLambda,
    kControl,  // if/else/switch/catch/try body
    kLoop,     // for/while/do body
    kBlock,    // bare block or brace we could not classify
  };
  Kind kind = Kind::kBlock;
  std::string name;     // Function or class name when known.
  size_t open = 0;      // '{' token index.
  size_t close = 0;     // '}' token index.
  size_t keyword = 0;   // Loop/Control: index of the introducing keyword.
};

/// Scoped view of one source: every matched brace pair classified by the
/// tokens in front of it (function signature, class head, control keyword,
/// constructor init list, lambda introducer, ...).
class ScopedSource {
 public:
  explicit ScopedSource(const TidySource& src) : src_(src) {
    const auto& toks = src.tokens();
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind == Kind::kPunct && toks[i].text == "{") {
        const size_t close = src.MatchingBracket(i);
        if (close == TidySource::npos) continue;
        scopes_.push_back(Classify(i, close));
      }
    }
  }

  const TidySource& src() const { return src_; }
  const std::vector<Token>& tokens() const { return src_.tokens(); }
  const std::vector<Scope>& scopes() const { return scopes_; }

  /// Innermost scope of `kind` containing token `i`, or npos.
  size_t InnermostOfKind(size_t i, std::initializer_list<Scope::Kind> kinds)
      const {
    size_t best = TidySource::npos;
    size_t best_span = static_cast<size_t>(-1);
    for (size_t s = 0; s < scopes_.size(); ++s) {
      const Scope& sc = scopes_[s];
      if (sc.open < i && i < sc.close) {
        bool match = false;
        for (Scope::Kind k : kinds) match = match || sc.kind == k;
        if (match && sc.close - sc.open < best_span) {
          best = s;
          best_span = sc.close - sc.open;
        }
      }
    }
    return best;
  }

 private:
  // Walks back from `j` over one constructor-init-list worth of tokens
  // (identifiers, ::, commas, template args, balanced () {} groups).
  // Returns the index of the introducing ':' when the shape matches an
  // init list whose signature close-paren precedes it, else npos.
  size_t InitListIntro(size_t j) const {
    const auto& toks = src_.tokens();
    size_t k = j;
    bool first = true;
    while (k != TidySource::npos && k > 0) {
      const Token& t = toks[k];
      if (t.kind == Kind::kPunct && (t.text == ")" || t.text == "}")) {
        const size_t open = src_.MatchingBracket(k);
        if (open == TidySource::npos || open == 0) return TidySource::npos;
        // Only step over real initializer groups `a_(x)` / `b_{y}` —
        // identifier (or template `>`) right before the open bracket.
        // Without this the walk crosses previous function *bodies* and
        // misreads an ordinary signature as an init-list tail. The very
        // first group is the candidate itself and is always stepped.
        const Token& intro = toks[open - 1];
        if (!first && !(intro.kind == Kind::kIdent ||
                        (intro.kind == Kind::kPunct && intro.text == ">"))) {
          return TidySource::npos;
        }
        first = false;
        k = open - 1;
        continue;
      }
      first = false;
      if (t.kind == Kind::kIdent || t.kind == Kind::kNumber ||
          t.kind == Kind::kString ||
          (t.kind == Kind::kPunct &&
           TextIn(t, {"::", ",", "<", ">", "&", "*"}))) {
        --k;
        continue;
      }
      if (t.kind == Kind::kPunct && t.text == ":" && k > 0 &&
          toks[k - 1].kind == Kind::kPunct && toks[k - 1].text == ")") {
        return k;
      }
      return TidySource::npos;
    }
    return TidySource::npos;
  }

  std::string FunctionNameBefore(size_t open_paren) const {
    const auto& toks = src_.tokens();
    if (open_paren == 0) return "";
    const Token& t = toks[open_paren - 1];
    if (t.kind == Kind::kIdent) return t.text;
    return "";
  }

  Scope Classify(size_t open, size_t close) const {
    const auto& toks = src_.tokens();
    Scope s;
    s.open = open;
    s.close = close;
    if (open == 0) {
      s.kind = Scope::Kind::kBlock;
      return s;
    }
    size_t j = open - 1;
    // Skip trailing signature qualifiers: `) const noexcept override {`.
    while (j > 0 &&
           ((toks[j].kind == Kind::kIdent &&
             TextIn(toks[j],
                    {"const", "noexcept", "override", "final", "mutable"})) ||
            (toks[j].kind == Kind::kPunct && TextIn(toks[j], {"&", "&&"})))) {
      --j;
    }
    const Token& p = toks[j];
    if (p.kind == Kind::kIdent && TextIn(p, {"else", "try"})) {
      s.kind = Scope::Kind::kControl;
      s.keyword = j;
      return s;
    }
    if (p.kind == Kind::kIdent && p.text == "do") {
      s.kind = Scope::Kind::kLoop;
      s.keyword = j;
      return s;
    }
    if (p.kind == Kind::kIdent && p.text == "namespace") {
      s.kind = Scope::Kind::kNamespace;
      return s;
    }
    if (p.kind == Kind::kPunct && p.text == ")") {
      const size_t sig_open = src_.MatchingBracket(j);
      if (sig_open == TidySource::npos || sig_open == 0) {
        s.kind = Scope::Kind::kBlock;
        return s;
      }
      const Token& before = toks[sig_open - 1];
      if (before.kind == Kind::kIdent &&
          TextIn(before, {"if", "for", "while", "switch", "catch"})) {
        s.kind = TextIn(before, {"for", "while"}) ? Scope::Kind::kLoop
                                                  : Scope::Kind::kControl;
        s.keyword = sig_open - 1;
        return s;
      }
      if (before.kind == Kind::kPunct && before.text == "]") {
        s.kind = Scope::Kind::kLambda;
        s.name = "lambda";
        return s;
      }
      // `Foo::Foo(...) : a_(x), b_{y} {` — the token run before this `)`
      // may be the *last initializer* of a constructor init list; if so the
      // real signature is the paren group before the introducing ':'.
      const size_t intro = InitListIntro(j);
      if (intro != TidySource::npos) {
        const size_t ctor_close = intro - 1;
        const size_t ctor_open = src_.MatchingBracket(ctor_close);
        if (ctor_open != TidySource::npos && ctor_open > 0 &&
            !(toks[ctor_open - 1].kind == Kind::kIdent &&
              TextIn(toks[ctor_open - 1],
                     {"if", "for", "while", "switch", "catch"}))) {
          s.kind = Scope::Kind::kFunction;
          s.name = FunctionNameBefore(ctor_open);
          return s;
        }
      }
      s.kind = Scope::Kind::kFunction;
      s.name = FunctionNameBefore(sig_open);
      return s;
    }
    // Class-like head: walk back over the head tokens looking for the
    // introducing keyword (`class CAPABILITY("mutex") Mutex {`,
    // `struct S : public B {`, `enum class E : int {`, ...).
    size_t k = j;
    while (k != TidySource::npos) {
      const Token& t = toks[k];
      if (t.kind == Kind::kIdent &&
          TextIn(t, {"class", "struct", "union"})) {
        s.kind = (k > 0 && toks[k - 1].kind == Kind::kIdent &&
                  toks[k - 1].text == "enum")
                     ? Scope::Kind::kEnum
                     : Scope::Kind::kClass;
        // Name: first plain identifier after the keyword (skipping
        // attribute-macro groups).
        for (size_t m = k + 1; m <= j; ++m) {
          if (toks[m].kind == Kind::kIdent) {
            if (m + 1 <= j && toks[m + 1].kind == Kind::kPunct &&
                toks[m + 1].text == "(") {
              m = src_.MatchingBracket(m + 1);
              if (m == TidySource::npos) break;
              continue;  // Attribute macro like CAPABILITY("mutex").
            }
            s.name = toks[m].text;
            break;
          }
        }
        return s;
      }
      if (t.kind == Kind::kIdent && t.text == "enum") {
        s.kind = Scope::Kind::kEnum;
        return s;
      }
      if (t.kind == Kind::kPunct && (t.text == ")" || t.text == "]")) {
        const size_t o = src_.MatchingBracket(k);
        if (o == TidySource::npos || o == 0) break;
        k = o - 1;
        continue;
      }
      if (t.kind == Kind::kIdent || t.kind == Kind::kNumber ||
          t.kind == Kind::kString ||
          (t.kind == Kind::kPunct &&
           TextIn(t, {"::", ":", ",", "<", ">", "&", "*"}))) {
        if (k == 0) break;
        --k;
        continue;
      }
      break;
    }
    s.kind = Scope::Kind::kBlock;
    return s;
  }

  const TidySource& src_;
  std::vector<Scope> scopes_;
};

bool IsCall(const std::vector<Token>& toks, size_t i) {
  return i + 1 < toks.size() && toks[i].kind == Kind::kIdent &&
         toks[i + 1].kind == Kind::kPunct && toks[i + 1].text == "(";
}

/// Textual receiver chain of a member call whose '.'/'->' sits at `dot`:
/// `state.parts[i].build.tuples` -> "state.parts[].build.tuples".
std::string ReceiverChain(const ScopedSource& ss, size_t dot) {
  const auto& toks = ss.tokens();
  std::vector<std::string> parts;
  size_t k = dot;  // Index of the '.' or '->'.
  while (k != TidySource::npos && k > 0) {
    const Token& t = toks[k];
    if (t.kind == Kind::kPunct && (t.text == "." || t.text == "->")) {
      --k;
      continue;
    }
    if (t.kind == Kind::kPunct && (t.text == "]" || t.text == ")")) {
      const size_t open = ss.src().MatchingBracket(k);
      if (open == TidySource::npos || open == 0) break;
      parts.push_back(t.text == "]" ? "[]" : "()");
      k = open - 1;
      continue;
    }
    if (t.kind == Kind::kIdent || (t.kind == Kind::kPunct && t.text == "::")) {
      parts.push_back(t.text);
      if (k == 0) break;
      const Token& prev = toks[k - 1];
      if (prev.kind == Kind::kPunct &&
          TextIn(prev, {".", "->", "::", "]", ")"})) {
        --k;
        continue;
      }
      break;
    }
    break;
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) out += *it;
  return out;
}

// ---------------------------------------------- dbs3-no-lock-across-emit

void CheckNoLockAcrossEmit(const ScopedSource& ss, std::vector<Diag>* out) {
  const auto& toks = ss.tokens();
  struct HeldLock {
    size_t scope_close;  // RAII: released at this token. Manual: npos.
    std::string name;
    int line;
  };
  // Active scope stack is implied by token position; locks pop when the
  // position passes their scope close. Manual Lock() entries are keyed by
  // receiver text and live until Unlock() or end of enclosing function.
  std::vector<HeldLock> raii;
  std::map<std::string, HeldLock> manual;
  size_t function_close = TidySource::npos;

  for (size_t i = 0; i < toks.size(); ++i) {
    while (!raii.empty() && raii.back().scope_close <= i) raii.pop_back();
    if (function_close != TidySource::npos && i >= function_close) {
      manual.clear();
      function_close = TidySource::npos;
    }
    const Token& t = toks[i];
    if (t.kind != Kind::kIdent) continue;

    // RAII acquisition: `MutexLock lock(&mu);` (declaration position).
    if (TextIn(t, {"MutexLock", "CountingMutexLock"}) && i + 2 < toks.size() &&
        toks[i + 1].kind == Kind::kIdent && toks[i + 2].kind == Kind::kPunct &&
        toks[i + 2].text == "(") {
      const size_t enclosing = ss.InnermostOfKind(
          i, {Scope::Kind::kFunction, Scope::Kind::kLambda,
              Scope::Kind::kControl, Scope::Kind::kLoop, Scope::Kind::kBlock});
      if (enclosing != TidySource::npos) {
        raii.push_back(
            {ss.scopes()[enclosing].close, toks[i + 1].text, t.line});
      }
      continue;
    }
    // Manual acquisition / release: `mu_.Lock()` / `mu_.Unlock()`.
    if (TextIn(t, {"Lock", "Unlock"}) && IsCall(toks, i) && i > 0 &&
        toks[i - 1].kind == Kind::kPunct &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
      const std::string recv = ReceiverChain(ss, i - 1);
      if (t.text == "Lock") {
        manual[recv] = {TidySource::npos, recv, t.line};
        const size_t fn = ss.InnermostOfKind(
            i, {Scope::Kind::kFunction, Scope::Kind::kLambda});
        if (fn != TidySource::npos) {
          function_close = std::min(function_close == TidySource::npos
                                        ? ss.scopes()[fn].close
                                        : function_close,
                                    ss.scopes()[fn].close);
        }
      } else {
        manual.erase(recv);
      }
      continue;
    }
    // Emit-family call while a lock is held.
    if (TextIn(t, {"Emit", "EmitCopy", "EmitConcat", "EmitSelect", "PushData",
                   "PushDataChunk", "PushTrigger"}) &&
        IsCall(toks, i) && (!raii.empty() || !manual.empty())) {
      const HeldLock& held = !raii.empty() ? raii.back() : manual.begin()->second;
      out->push_back(
          {ss.src().path(), t.line, kNoLockAcrossEmit,
           "'" + t.text + "' called while lock '" + held.name +
               "' (acquired line " + std::to_string(held.line) +
               ") is held; emitting can block on a bounded ActivationQueue "
               "under back-pressure — the engine's canonical deadlock "
               "shape. Release the lock (move state out) before emitting"});
    }
  }
}

// --------------------------------------------- dbs3-no-alloc-in-hot-path

const std::set<std::string>& HotPathNames() {
  static const std::set<std::string> names = {
      "OnData",      "OnDataBatch",    "OnTrigger",   "Probe",
      "ProbeKeys",   "ProbeHashed",    "SelectRows",  "EvalPredAll",
      "EvalPredFilter", "LeafAll",     "LeafFilter",  "EvalRow",
      "MayContain",  "HashColumn",     "EmitTagged"};
  return names;
}

void CheckNoAllocInHotPath(const ScopedSource& ss, std::vector<Diag>* out) {
  const auto& toks = ss.tokens();
  for (const Scope& fn : ss.scopes()) {
    if (fn.kind != Scope::Kind::kFunction || HotPathNames().count(fn.name) == 0)
      continue;
    for (size_t i = fn.open + 1; i < fn.close; ++i) {
      const Token& t = toks[i];
      if (t.kind != Kind::kIdent) continue;
      if (t.text == "new") {
        // Placement new (`new (arena...) T`) is the arena path; plain
        // operator new is heap traffic the bench gates forbid.
        if (i + 1 < toks.size() &&
            !(toks[i + 1].kind == Kind::kPunct && toks[i + 1].text == "(")) {
          out->push_back({ss.src().path(), t.line, kNoAllocInHotPath,
                          "hot-path function '" + fn.name +
                              "' allocates with operator new; kernel "
                              "surfaces must stay allocation-free (use the "
                              "execution Arena or ChunkPool)"});
        }
        continue;
      }
      if (TextIn(t, {"malloc", "calloc", "realloc", "strdup"}) &&
          IsCall(toks, i)) {
        out->push_back({ss.src().path(), t.line, kNoAllocInHotPath,
                        "hot-path function '" + fn.name + "' calls " +
                            t.text + "(); kernel surfaces must stay "
                            "allocation-free"});
        continue;
      }
      if (TextIn(t, {"push_back", "emplace_back", "resize", "reserve",
                     "insert", "emplace", "append", "assign"}) &&
          IsCall(toks, i) && i > 0 && toks[i - 1].kind == Kind::kPunct &&
          (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
        const std::string recv = Lower(ReceiverChain(ss, i - 1));
        if (recv.find("arena") != std::string::npos ||
            recv.find("pool") != std::string::npos) {
          continue;  // The blessed allocators.
        }
        out->push_back({ss.src().path(), t.line, kNoAllocInHotPath,
                        "hot-path function '" + fn.name + "' grows '" +
                            ReceiverChain(ss, i - 1) + "' with " + t.text +
                            "(); only ChunkPool/Arena-backed storage may "
                            "grow on the kernel surface"});
      }
    }
  }
}

// --------------------------------------------------- dbs3-quota-pairing

/// True when the call whose callee identifier sits at `call_ident` is a
/// full statement (its receiver chain starts right after ';', '{' or '}'),
/// i.e. its return value is dropped.
bool IsStatementHead(const ScopedSource& ss, size_t call_ident) {
  const auto& toks = ss.tokens();
  size_t k = call_ident;
  while (k > 0) {
    const Token& prev = toks[k - 1];
    if (prev.kind == Kind::kPunct && TextIn(prev, {".", "->", "::"})) {
      if (k < 2) return false;
      k -= 2;  // Step over the separator onto the token before it.
      if (toks[k].kind == Kind::kPunct &&
          (toks[k].text == ")" || toks[k].text == "]")) {
        const size_t o = ss.src().MatchingBracket(k);
        if (o == TidySource::npos) return false;
        k = o;
      }
      continue;
    }
    break;
  }
  if (k == 0) return true;
  const Token& head_prev = toks[k - 1];
  return head_prev.kind == Kind::kPunct && TextIn(head_prev, {";", "{", "}"});
}

void CheckQuotaPairing(const ScopedSource& ss, std::vector<Diag>* out) {
  const auto& toks = ss.tokens();
  for (const Scope& fn : ss.scopes()) {
    if (fn.kind != Scope::Kind::kFunction && fn.kind != Scope::Kind::kLambda)
      continue;
    // Nested lambdas are analyzed on their own; skip their tokens when
    // looking at the outer function so each charge is judged once, in the
    // innermost callable that contains it.
    std::vector<const Scope*> nested;
    for (const Scope& other : ss.scopes()) {
      if (&other != &fn &&
          (other.kind == Scope::Kind::kFunction ||
           other.kind == Scope::Kind::kLambda) &&
          fn.open < other.open && other.close < fn.close) {
        nested.push_back(&other);
      }
    }
    const auto in_nested = [&](size_t i) {
      for (const Scope* n : nested) {
        if (n->open < i && i < n->close) return true;
      }
      return false;
    };

    std::vector<size_t> charges;
    bool has_pairing = false;
    for (size_t i = fn.open + 1; i < fn.close; ++i) {
      if (in_nested(i)) continue;
      const Token& t = toks[i];
      if (t.kind != Kind::kIdent) continue;
      if (TextIn(t, {"TryCharge", "ForceCharge"}) && IsCall(toks, i)) {
        charges.push_back(i);
        continue;
      }
      if (t.text == "ChargeGuard") has_pairing = true;
      if (TextIn(t, {"Release", "ReleaseNow", "Disarm"}) && IsCall(toks, i)) {
        has_pairing = true;
      }
      // A recorded ledger: `++state.charged`, `part.charged += n`,
      // `held_ = units` — an identifier that names held units adjacent to
      // a mutation.
      const std::string lower = Lower(t.text);
      if (lower.find("charged") != std::string::npos ||
          lower.find("held") != std::string::npos) {
        bool mutated =
            i + 1 < toks.size() && toks[i + 1].kind == Kind::kPunct &&
            TextIn(toks[i + 1], {"++", "+=", "-=", "="});
        // Prefix form mutating a member chain: `++state.charged`. Walk the
        // receiver chain leftward to see whether a `++`/`--` introduces it.
        if (!mutated) {
          size_t k = i;
          while (k > 0 && (toks[k - 1].kind == Kind::kIdent ||
                           (toks[k - 1].kind == Kind::kPunct &&
                            TextIn(toks[k - 1], {".", "->", "::"})))) {
            --k;
          }
          mutated = k > 0 && toks[k - 1].kind == Kind::kPunct &&
                    TextIn(toks[k - 1], {"++", "--"});
        }
        if (mutated) has_pairing = true;
      }
    }
    for (size_t c : charges) {
      // A charge whose result is dropped on the floor is always a bug,
      // pairing or not: either it succeeded and nobody owns the units, or
      // the code assumes memory it was never granted.
      const size_t close = ss.src().MatchingBracket(c + 1);
      const bool result_dropped =
          toks[c].text == "TryCharge" && close != TidySource::npos &&
          close + 1 < toks.size() && toks[close + 1].kind == Kind::kPunct &&
          toks[close + 1].text == ";" && IsStatementHead(ss, c);
      if (result_dropped) {
        out->push_back({ss.src().path(), toks[c].line, kQuotaPairing,
                        "TryCharge result is dropped: the charge either "
                        "leaked or never happened; hold it in a ChargeGuard "
                        "or branch on the result"});
        continue;
      }
      if (!has_pairing) {
        out->push_back(
            {ss.src().path(), toks[c].line, kQuotaPairing,
             "quota charge has no matching Release, ChargeGuard, or "
             "recorded charge ledger in '" + fn.name +
                 "'; every exit path must return these units (use "
                 "ChargeGuard — see common/memory_quota.h)"});
      }
    }
  }
}

// ------------------------------------- dbs3-cancel-check-in-consume-loop

void CheckCancelInConsumeLoop(const ScopedSource& ss, std::vector<Diag>* out) {
  const auto& toks = ss.tokens();
  struct LoopExtent {
    size_t begin, end;  // Token range [begin, end] incl. condition + body.
    int line;
  };
  std::vector<LoopExtent> loops;
  // Brace-bodied loops (from scopes): extend the extent left to the loop
  // keyword so pops in the condition are covered too.
  for (const Scope& sc : ss.scopes()) {
    if (sc.kind != Scope::Kind::kLoop) continue;
    loops.push_back({sc.keyword, sc.close, toks[sc.keyword].line});
  }
  // Single-statement loops: `for (...) Stmt();` / `while (...) Stmt();`.
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind == Kind::kIdent && TextIn(toks[i], {"for", "while"}) &&
        i + 1 < toks.size() && toks[i + 1].kind == Kind::kPunct &&
        toks[i + 1].text == "(") {
      const size_t cond_close = ss.src().MatchingBracket(i + 1);
      if (cond_close == TidySource::npos || cond_close + 1 >= toks.size())
        continue;
      const Token& after = toks[cond_close + 1];
      if (after.kind == Kind::kPunct && (after.text == "{" || after.text == ";"))
        continue;  // Brace-bodied (covered above) or `while (...);`.
      size_t end = cond_close + 1;
      while (end < toks.size() &&
             !(toks[end].kind == Kind::kPunct && toks[end].text == ";")) {
        if (toks[end].kind == Kind::kPunct &&
            (toks[end].text == "(" || toks[end].text == "[")) {
          const size_t m = ss.src().MatchingBracket(end);
          if (m == TidySource::npos) break;
          end = m;
        }
        ++end;
      }
      loops.push_back({i, end, toks[i].line});
    }
  }

  std::set<size_t> flagged;  // Loop begin tokens already reported.
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!(toks[i].kind == Kind::kIdent &&
          TextIn(toks[i], {"PopBatch", "ReadChunk", "AcquireBatch"}) &&
          IsCall(toks, i))) {
      continue;
    }
    // Innermost loop containing the consuming call.
    const LoopExtent* innermost = nullptr;
    for (const LoopExtent& le : loops) {
      if (le.begin < i && i <= le.end &&
          (innermost == nullptr ||
           le.end - le.begin < innermost->end - innermost->begin)) {
        innermost = &le;
      }
    }
    if (innermost == nullptr) continue;
    bool has_cancel = false;
    for (size_t k = innermost->begin; k <= innermost->end; ++k) {
      if (toks[k].kind == Kind::kIdent &&
          TextIn(toks[k], {"ShouldStop", "cancelled"}) && IsCall(toks, k)) {
        has_cancel = true;
        break;
      }
    }
    if (!has_cancel && flagged.insert(innermost->begin).second) {
      out->push_back(
          {ss.src().path(), innermost->line, kCancelCheckInConsumeLoop,
           "loop consumes work (" + toks[i].text +
               ") but never consults a CancelToken; check "
               "ShouldStop()/cancelled() each iteration so cancellation "
               "latency stays bounded"});
    }
  }
}

// ---------------------------------------------- dbs3-guarded-member-init

const std::set<std::string>& ScalarTypeNames() {
  static const std::set<std::string> names = {
      "bool",    "char",     "short",    "int",      "long",     "unsigned",
      "signed",  "float",    "double",   "size_t",   "ssize_t",  "int8_t",
      "int16_t", "int32_t",  "int64_t",  "uint8_t",  "uint16_t", "uint32_t",
      "uint64_t", "intptr_t", "uintptr_t", "ptrdiff_t"};
  return names;
}

struct GuardedMember {
  std::string class_name;
  std::string member;
  std::string file;
  int line;
};

/// Collects scalar GUARDED_BY members lacking in-class initializers, and
/// every constructor-init-list region of every class, across one source.
struct MemberScan {
  std::vector<GuardedMember> uninitialized;
  /// class name -> declared-a-constructor (even `= default` counts).
  std::map<std::string, bool> has_ctor_decl;
  /// class name -> member names initialized in some ctor init list.
  std::map<std::string, std::set<std::string>> ctor_inits;
};

void ScanMembers(const ScopedSource& ss, MemberScan* scan) {
  const auto& toks = ss.tokens();

  // Constructor init lists, both in-class and out-of-line: find
  // `Name (args) : inits... {` where a preceding `Name ::` or an enclosing
  // class scope of the same name marks it as a constructor of Name.
  for (const Scope& fn : ss.scopes()) {
    if (fn.kind != Scope::Kind::kFunction || fn.name.empty()) continue;
    std::string owner;
    const size_t cls = ss.InnermostOfKind(fn.open, {Scope::Kind::kClass});
    if (cls != TidySource::npos && ss.scopes()[cls].name == fn.name) {
      owner = fn.name;  // In-class constructor definition.
    }
    // Out-of-line: `Foo::Foo(...)`. Find the signature open paren: first
    // '(' after the name going backward from the body; easier forward from
    // keyword: locate tokens `fn.name` `::`? Walk back from fn.open.
    if (owner.empty()) {
      // Find the signature '(' by scanning back from the body '{' over the
      // init list (if any).
      size_t j = fn.open - 1;
      while (j > 0 &&
             !(toks[j].kind == Kind::kPunct && toks[j].text == ")")) {
        if (toks[j].kind == Kind::kPunct &&
            (toks[j].text == "}" || toks[j].text == "]")) {
          const size_t o = ss.src().MatchingBracket(j);
          if (o == TidySource::npos || o == 0) break;
          j = o;
        }
        --j;
      }
      size_t sig_close = j;
      size_t sig_open = ss.src().MatchingBracket(sig_close);
      // Walk further back when this `)` closes a trailing initializer
      // rather than the signature: `Foo::Foo(int x) : a_(x) {`.
      while (sig_open != TidySource::npos && sig_open > 1) {
        const Token& before = toks[sig_open - 1];
        if (before.kind == Kind::kIdent && before.text == fn.name &&
            sig_open >= 2 && toks[sig_open - 2].kind == Kind::kPunct &&
            toks[sig_open - 2].text == "::" && sig_open >= 3 &&
            toks[sig_open - 3].kind == Kind::kIdent &&
            toks[sig_open - 3].text == fn.name) {
          owner = fn.name;
          break;
        }
        // Step past one more initializer group leftward.
        size_t k = sig_open - 1;
        while (k > 0 &&
               !(toks[k].kind == Kind::kPunct && toks[k].text == ")")) {
          if (toks[k].kind == Kind::kPunct &&
              (toks[k].text == "}" || toks[k].text == "]")) {
            const size_t o = ss.src().MatchingBracket(k);
            if (o == TidySource::npos || o == 0) {
              k = 0;
              break;
            }
            k = o;
          }
          --k;
        }
        if (k == 0) break;
        sig_close = k;
        sig_open = ss.src().MatchingBracket(sig_close);
      }
    }
    if (owner.empty()) continue;
    scan->has_ctor_decl[owner] = true;
    // Init region: signature close .. body open. Every `ident (` / `ident {`
    // at init-list position records an initialized member.
    size_t sig_close = fn.open - 1;  // Recompute forward for simplicity.
    // Find the ':' introducing the init list by walking back as above.
    for (size_t k = fn.open - 1; k > 0; --k) {
      const Token& t = toks[k];
      if (t.kind == Kind::kPunct && (t.text == "}" || t.text == ")")) {
        const size_t o = ss.src().MatchingBracket(k);
        if (o == TidySource::npos || o == 0) break;
        k = o;
        continue;
      }
      if (t.kind == Kind::kPunct && t.text == ":") {
        sig_close = k;
        break;
      }
      if (t.kind == Kind::kPunct && (t.text == ";" || t.text == "{")) break;
    }
    for (size_t k = sig_close; k < fn.open; ++k) {
      if (toks[k].kind == Kind::kIdent && k + 1 < toks.size() &&
          toks[k + 1].kind == Kind::kPunct &&
          (toks[k + 1].text == "(" || toks[k + 1].text == "{")) {
        scan->ctor_inits[owner].insert(toks[k].text);
        const size_t m = ss.src().MatchingBracket(k + 1);
        if (m != TidySource::npos) k = m;
      }
    }
  }

  // Constructor *declarations* without bodies still count as "class has a
  // constructor" (including `Foo() = default;`): member-level `Name (...)`
  // inside class Name.
  for (const Scope& cls : ss.scopes()) {
    if (cls.kind != Scope::Kind::kClass || cls.name.empty()) continue;
    for (size_t i = cls.open + 1; i < cls.close; ++i) {
      // Skip nested scopes.
      if (toks[i].kind == Kind::kPunct && toks[i].text == "{") {
        const size_t m = ss.src().MatchingBracket(i);
        if (m != TidySource::npos) i = m;
        continue;
      }
      if (toks[i].kind == Kind::kIdent && toks[i].text == cls.name &&
          IsCall(toks, i) &&
          (i == cls.open + 1 ||
           (toks[i - 1].kind == Kind::kPunct &&
            TextIn(toks[i - 1], {";", "{", "}", ":", "~"})) ||
           (toks[i - 1].kind == Kind::kIdent &&
            TextIn(toks[i - 1], {"explicit", "constexpr", "public",
                                 "private", "protected"})))) {
        if (i > 0 && toks[i - 1].kind == Kind::kPunct &&
            toks[i - 1].text == "~") {
          continue;  // Destructor.
        }
        scan->has_ctor_decl[cls.name] = true;
        const size_t m = ss.src().MatchingBracket(i + 1);
        if (m != TidySource::npos) i = m;
      }
    }
  }

  // Member declarations with GUARDED_BY.
  for (const Scope& cls : ss.scopes()) {
    if (cls.kind != Scope::Kind::kClass) continue;
    std::vector<size_t> decl;  // Token indexes of the current declaration.
    for (size_t i = cls.open + 1; i < cls.close; ++i) {
      const Token& t = toks[i];
      if (t.kind == Kind::kPunct && t.text == "{") {
        // Nested scope (method body, nested class, braced init): braced
        // member initializers stay part of the declaration; real scopes
        // end it.
        const size_t m = ss.src().MatchingBracket(i);
        bool is_scope = false;
        for (const Scope& sc : ss.scopes()) {
          if (sc.open == i && sc.kind != Scope::Kind::kBlock) {
            is_scope = true;
            break;
          }
        }
        if (is_scope) {
          decl.clear();
          if (m != TidySource::npos) i = m;
          continue;
        }
        decl.push_back(i);
        if (m != TidySource::npos) {
          for (size_t k = i + 1; k <= m; ++k) decl.push_back(k);
          i = m;
        }
        continue;
      }
      if (t.kind == Kind::kPunct && t.text == ";") {
        // Analyze the finished declaration.
        size_t guard = TidySource::npos;
        for (size_t k = 0; k < decl.size(); ++k) {
          if (toks[decl[k]].kind == Kind::kIdent &&
              toks[decl[k]].text == "GUARDED_BY") {
            guard = k;
            break;
          }
        }
        if (guard != TidySource::npos && guard > 0 &&
            toks[decl[guard - 1]].kind == Kind::kIdent) {
          const std::string member = toks[decl[guard - 1]].text;
          // Initializer: any '=' or '{' after the GUARDED_BY(...) group.
          bool initialized = false;
          size_t k = guard + 1;
          if (k < decl.size() && toks[decl[k]].text == "(") {
            const size_t m = ss.src().MatchingBracket(decl[k]);
            while (k < decl.size() && decl[k] != m) ++k;
            ++k;
          }
          for (; k < decl.size(); ++k) {
            if (toks[decl[k]].kind == Kind::kPunct &&
                (toks[decl[k]].text == "=" || toks[decl[k]].text == "{")) {
              initialized = true;
              break;
            }
          }
          // Scalar type? Tokens before the member name form the type.
          std::vector<size_t> type_toks(decl.begin(),
                                        decl.begin() + (guard - 1));
          while (!type_toks.empty() &&
                 toks[type_toks.front()].kind == Kind::kIdent &&
                 TextIn(toks[type_toks.front()],
                        {"const", "mutable", "static", "volatile",
                         "inline"})) {
            type_toks.erase(type_toks.begin());
          }
          bool scalar = false;
          if (!type_toks.empty()) {
            const Token& first = toks[type_toks.front()];
            const Token& last = toks[type_toks.back()];
            scalar = (first.kind == Kind::kIdent &&
                      ScalarTypeNames().count(first.text) > 0) ||
                     (last.kind == Kind::kPunct && last.text == "*");
          }
          if (scalar && !initialized) {
            scan->uninitialized.push_back({cls.name, member, ss.src().path(),
                                           toks[decl[guard - 1]].line});
          }
        }
        decl.clear();
        continue;
      }
      decl.push_back(i);
    }
  }
}

void CheckGuardedMemberInit(const std::vector<MemberScan>& scans,
                            const std::vector<const TidySource*>& sources,
                            std::vector<Diag>* out) {
  // Merge corpus-wide constructor knowledge, then judge each member.
  std::map<std::string, bool> has_ctor;
  std::map<std::string, std::set<std::string>> inits;
  for (const MemberScan& s : scans) {
    for (const auto& [cls, has] : s.has_ctor_decl) {
      has_ctor[cls] = has_ctor[cls] || has;
    }
    for (const auto& [cls, members] : s.ctor_inits) {
      inits[cls].insert(members.begin(), members.end());
    }
  }
  (void)sources;
  for (const MemberScan& s : scans) {
    for (const GuardedMember& m : s.uninitialized) {
      if (inits[m.class_name].count(m.member) > 0) continue;
      out->push_back(
          {m.file, m.line, kGuardedMemberInit,
           "GUARDED_BY member '" + m.member + "' of '" + m.class_name +
               "' has no in-class initializer and no constructor "
               "initializes it; -Wthread-safety does not cover "
               "construction, so this reads garbage until first locked "
               "write. Initialize it at the declaration"});
    }
  }
}

}  // namespace

std::vector<std::string> AllCheckNames() {
  return {kNoLockAcrossEmit, kNoAllocInHotPath, kQuotaPairing,
          kCancelCheckInConsumeLoop, kGuardedMemberInit};
}

std::vector<Diag> RunChecks(const std::vector<TidySource>& sources,
                            const std::set<std::string>& enabled) {
  const auto on = [&](const char* name) {
    return enabled.empty() || enabled.count(name) > 0;
  };
  std::vector<Diag> diags;
  std::vector<MemberScan> scans;
  std::vector<const TidySource*> ptrs;
  std::vector<ScopedSource> scoped;
  scoped.reserve(sources.size());
  for (const TidySource& src : sources) scoped.emplace_back(src);
  for (size_t i = 0; i < scoped.size(); ++i) {
    const ScopedSource& ss = scoped[i];
    if (on(kNoLockAcrossEmit)) CheckNoLockAcrossEmit(ss, &diags);
    if (on(kNoAllocInHotPath)) CheckNoAllocInHotPath(ss, &diags);
    if (on(kQuotaPairing)) CheckQuotaPairing(ss, &diags);
    if (on(kCancelCheckInConsumeLoop)) CheckCancelInConsumeLoop(ss, &diags);
    if (on(kGuardedMemberInit)) {
      scans.emplace_back();
      ScanMembers(ss, &scans.back());
      ptrs.push_back(&sources[i]);
    }
  }
  if (on(kGuardedMemberInit)) CheckGuardedMemberInit(scans, ptrs, &diags);

  // NOLINT filtering against the owning source.
  std::vector<Diag> kept;
  for (const Diag& d : diags) {
    bool suppressed = false;
    for (const TidySource& src : sources) {
      if (src.path() == d.file && src.IsSuppressed(d.line, d.check)) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(d);
  }
  std::sort(kept.begin(), kept.end(), [](const Diag& a, const Diag& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.check < b.check;
  });
  return kept;
}

}  // namespace dbs3_tidy
