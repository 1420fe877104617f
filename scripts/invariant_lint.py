#!/usr/bin/env python3
"""Project-specific invariant lints the compiler cannot enforce.

Rules (see DESIGN.md "Concurrency invariants & analysis tooling"):

  R1 determinism   std::rand / std::random_device / srand are forbidden
                   everywhere except src/common/rng.* — all randomness must
                   flow through the seeded project RNG so runs replay
                   bit-identically.
  R2 allocation    raw `new` / `delete` are forbidden outside src/linalg and
                   src/common — everything else goes through containers or
                   the linalg/common owners (`= delete`d special members are
                   of course fine).
  R3 telemetry     std::cout is forbidden in src/ — library code reports via
                   telemetry / return values; stream output belongs to
                   bench/, examples/, tests/ and tools taking an ostream.
  R4 headers       every .hpp under src/ and include/ must be self-contained:
                   a TU consisting of just `#include "x.hpp"` compiles.
  R5 sync comment  every ThreadPool dispatch (`parallel_for` / `run_tasks`)
                   in src/ must carry a `// sync:` comment within the 10
                   lines above the call naming why the shared state it
                   touches is safe (disjoint writes, guarded by which mutex,
                   join-before-read, ...). Mutable state captured by
                   reference without a stated discipline is how silent races
                   land.
  R6 syscalls      ::-qualified socket/fd syscalls (::socket, ::connect,
                   ::read, ::readv, ::writev, ::poll, ::epoll_create1,
                   ::epoll_ctl, ::epoll_wait, ...) are forbidden outside
                   src/net/socket.* — everything rides the EINTR-safe
                   wrappers there (the epoll backend included: no other
                   file under src/net/ may touch the epoll fd directly).
                   Inside socket.*, every blocking-capable call site
                   (::epoll_wait and the batched ::readv/::writev
                   included) must mention EINTR within 8 lines either
                   way: a raw syscall without a stated interruption story
                   is a hang or a lost frame waiting for a signal to land.
  R7 hot regions   between a named `// hot: <name>` marker (decide,
                   dispatch, ...) and its closing
                   `// hot: end` in src/, heap-allocating constructs
                   (new, push_back, emplace_back, resize, reserve, assign,
                   make_shared, make_unique, std::vector<, std::string,
                   std::function) are forbidden: the sub-millisecond
                   decision loop (FusedAcquisition's sweeps) must stay
                   allocation-free past configure(). Unbalanced
                   markers are themselves violations.
  R8 raw sync      std::mutex / std::condition_variable / std::lock_guard /
                   std::unique_lock (and friends) are forbidden outside
                   src/common/sync.* — all locking rides the annotated
                   wrappers (common::Mutex / LockGuard / MutexLock /
                   CondVar) so lockdep and the clang thread-safety
                   attributes see every acquisition.
  R9 guarded       a member declared `EB_GUARDED_BY(mu)` may only be
                   touched in scopes that hold `mu`: under a LockGuard /
                   MutexLock on it, or inside a function definition whose
                   declaration carries `EB_REQUIRES(mu)`. The check is a
                   per-component (hpp + cpp sharing a path stem) scope
                   heuristic, not a points-to analysis; a deliberate
                   unguarded touch gets a `// unguarded-ok: <reason>`
                   escape on the line.
  R10 isa          a function-level ISA clone in src/ (`gnu::target(...)`
                   or `__attribute__((target(...)))`) names only "avx2" or
                   "avx512f" (never "fma": contraction would fuse a
                   multiply-subtract and change the clone's bits), carries
                   `flatten` in the same attribute list (so the shared
                   templates compile at the clone's width). See
                   src/gp/lanes.hpp.

The lexer that feeds every rule is a comment/string-aware tokenizer: raw
strings, encoding prefixes, digit separators (1'000'000 is a number, not a
char literal), and escapes are lexed for real, so tokens inside literals
never fire a rule and code after a digit separator is still scanned.

Usage:
    scripts/invariant_lint.py [--skip-header-check] [paths...]

Exits 0 when clean; 1 with one `file:line: [rule] message` per violation.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CODE_DIRS = ["src", "bench", "tests", "examples", "tools"]
# The lint self-test corpus: .cc files with seeded violations, linted only
# by scripts/lint_selftest.py under virtual paths — never as repo sources.
CORPUS_DIR = os.path.join("tests", "lint_corpus")
CXX = os.environ.get("CXX", "g++")


# ---------------------------------------------------------------------------
# Lexer

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# pp-number: a digit (optionally .-led) then any run of digits, identifier
# chars, dots, digit separators, or sign-bearing exponents. Matches
# 1'000'000, 0x1Fu, 0b1010'1010, 1.5e-3, 12.0_kb.
_PP_NUMBER = re.compile(r"\.?\d(?:'?[0-9A-Za-z_.]|[eEpP][+-])*")
_STRING_PREFIXES = {"u8", "u", "U", "L"}
_RAW_DELIM = re.compile(r'([^ ()\\\t\v\f\r\n]{0,16})\(')


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string literals (raw strings and encoding
    prefixes included), and char literals, preserving newlines so line
    numbers survive. Numbers are lexed as pp-numbers so C++14 digit
    separators don't open a phantom char literal."""
    out = []
    i, n = 0, len(text)

    def blank(segment):
        for ch in segment:
            out.append("\n" if ch == "\n" else " ")

    def skip_quoted(j, quote):
        """Consume a quoted literal body starting after the opening quote;
        returns the index just past the closing quote (or line/file end)."""
        while j < n:
            ch = text[j]
            if ch == "\\" and j + 1 < n:
                blank(text[j:j + 2])
                j += 2
                continue
            if ch == quote:
                out.append(" ")
                return j + 1
            if ch == "\n":  # unterminated literal: resync at the newline
                out.append("\n")
                return j + 1
            out.append(" ")
            j += 1
        return j

    def skip_raw_string(j):
        """`j` sits on the R of R"delim( — consume through )delim"."""
        m = _RAW_DELIM.match(text, j + 2)
        if not m:  # not actually a raw string; treat the R literally
            out.append(text[j])
            return j + 1
        close = ")" + m.group(1) + '"'
        end = text.find(close, m.end())
        end = n if end == -1 else end + len(close)
        blank(text[j:end])
        return end

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = i
            while j < n and text[j] != "\n":
                if text[j] == "\\" and j + 1 < n and text[j + 1] == "\n":
                    # Line continuation extends the comment.
                    out.append(" \n")
                    j += 2
                    continue
                out.append(" ")
                j += 1
            i = j
            continue
        if c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            blank(text[i:end])
            i = end
            continue
        if c.isalpha() or c == "_":
            m = _IDENT.match(text, i)
            word = m.group(0)
            after = text[m.end()] if m.end() < n else ""
            if after == '"' and word in _STRING_PREFIXES:
                blank(word + '"')
                i = skip_quoted(m.end() + 1, '"')
                continue
            if word == "R" and after == '"':
                i = skip_raw_string(i)
                continue
            if after == '"' and word.endswith("R") and \
                    word[:-1] in _STRING_PREFIXES:
                blank(word[:-1])
                i = skip_raw_string(i + len(word) - 1)
                continue
            out.append(word)
            i = m.end()
            continue
        if c.isdigit() or (c == "." and nxt.isdigit()):
            m = _PP_NUMBER.match(text, i)
            out.append(m.group(0))
            i = m.end()
            continue
        if c == '"':
            out.append(" ")
            i = skip_quoted(i + 1, '"')
            continue
        if c == "'":
            out.append(" ")
            i = skip_quoted(i + 1, "'")
            continue
        out.append(c)
        i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Per-file source model

class Source:
    """One file's raw text plus its comment/string-stripped twin."""

    def __init__(self, rel_path: str, raw: str):
        self.rel = rel_path
        self.raw = raw
        self.code = strip_comments_and_strings(raw)
        self.raw_lines = raw.splitlines()
        self.code_lines = self.code.splitlines()

    def line_of(self, offset: int) -> int:
        return self.code.count("\n", 0, offset) + 1


def rel(path: str) -> str:
    return os.path.relpath(path, REPO)


def iter_sources(paths, exts=(".cpp", ".hpp")):
    for root in paths:
        for dirpath, _dirs, files in os.walk(root):
            if os.path.relpath(dirpath, REPO).startswith(CORPUS_DIR):
                continue
            for f in sorted(files):
                if f.endswith(exts):
                    yield os.path.join(dirpath, f)


# ---------------------------------------------------------------------------
# R1 determinism

def check_rng(s: Source, errors):
    if s.rel.startswith(os.path.join("src", "common", "rng")):
        return
    for m in re.finditer(r"\bstd::rand\b|\brandom_device\b|\bsrand\s*\(",
                         s.code):
        errors.append(f"{s.rel}:{s.line_of(m.start())}: [rng] "
                      f"'{m.group(0)}' outside "
                      "src/common/rng.* — use edgebol::common::Rng")


# ---------------------------------------------------------------------------
# R2 allocation

def check_new_delete(s: Source, errors):
    r = s.rel
    if r.startswith(os.path.join("src", "linalg")) or \
       r.startswith(os.path.join("src", "common")):
        return
    # `new Type(...)` / `new Type[...]` — require an identifier after `new`
    # so `= delete`, placement-new-free code, and words like `renew` don't
    # trip it.
    for m in re.finditer(r"\bnew\s+[A-Za-z_:][\w:<>, ]*[\[(;{]?", s.code):
        errors.append(f"{r}:{s.line_of(m.start())}: [alloc] raw 'new' "
                      "outside linalg/common "
                      "— use containers or the owning allocator")
    for m in re.finditer(r"\bdelete(\s*\[\s*\])?\s+[A-Za-z_*(]", s.code):
        # `= delete;` for special members never matches (followed by `;`),
        # but guard against `operator delete` declarations anyway.
        prefix = s.code[max(0, m.start() - 16):m.start()]
        if re.search(r"=\s*$|operator\s*$", prefix):
            continue
        errors.append(f"{r}:{s.line_of(m.start())}: [alloc] raw 'delete' "
                      "outside linalg/common — use owning containers")


# ---------------------------------------------------------------------------
# R3 telemetry

def check_cout(s: Source, errors):
    if not s.rel.startswith("src" + os.sep):
        return
    for m in re.finditer(r"\bstd::cout\b", s.code):
        errors.append(f"{s.rel}:{s.line_of(m.start())}: [telemetry] "
                      "std::cout in src/ — "
                      "library code takes an ostream or reports telemetry")


# ---------------------------------------------------------------------------
# R5 sync comment

def check_parallel_sync_comment(s: Source, errors):
    """R5: pool dispatches in src/ need a nearby `// sync:` comment."""
    r = s.rel
    if not r.startswith("src" + os.sep):
        return
    if r.startswith(os.path.join("src", "common", "thread_pool")):
        return  # the implementation itself
    for m in re.finditer(r"(?:\.|->)\s*(parallel_for|run_tasks)\s*\(",
                         s.code):
        line = s.line_of(m.start())
        window = s.raw_lines[max(0, line - 11):line]
        if not any(re.search(r"//.*\bsync:", w) for w in window):
            errors.append(
                f"{r}:{line}: [sync] {m.group(1)} dispatch without a "
                "'// sync:' comment in the preceding 10 lines naming the "
                "sharing discipline (disjoint writes / mutex / join order)")


# ---------------------------------------------------------------------------
# R6 syscalls

SOCKET_SYSCALLS = (
    "socket", "connect", "accept", "bind", "listen", "recv", "recvmsg",
    "send", "sendmsg", "read", "write", "readv", "writev", "poll", "select",
    "close", "shutdown", "setsockopt", "getsockopt", "getsockname", "fcntl",
    "epoll_create1", "epoll_ctl", "epoll_wait",
)
BLOCKING_SYSCALLS = (
    "connect", "accept", "recv", "recvmsg", "send", "sendmsg", "read",
    "write", "readv", "writev", "poll", "select", "close", "epoll_wait",
)


def check_socket_syscalls(s: Source, errors):
    """R6: raw syscalls live in src/net/socket.* only, with EINTR stories."""
    r = s.rel
    call = re.compile(
        r"(?<![\w)])::(" + "|".join(SOCKET_SYSCALLS) + r")\s*\(")
    if not r.startswith(os.path.join("src", "net", "socket")):
        for m in call.finditer(s.code):
            errors.append(
                f"{r}:{s.line_of(m.start())}: [syscall] raw "
                f"'::{m.group(1)}' outside "
                "src/net/socket.* — use the EINTR-safe wrappers in "
                "edgebol::net")
        return
    blocking = set(BLOCKING_SYSCALLS)
    for m in call.finditer(s.code):
        if m.group(1) not in blocking:
            continue
        line = s.line_of(m.start())
        window = s.raw_lines[max(0, line - 9):line + 8]
        if not any("EINTR" in w for w in window):
            errors.append(
                f"{r}:{line}: [syscall] blocking-capable '::{m.group(1)}' "
                "without an EINTR mention within 8 lines — state the "
                "interruption story (retry / descriptor released / not "
                "restartable)")


# ---------------------------------------------------------------------------
# R7 hot regions

DECIDE_HOT_ALLOC = re.compile(
    r"\bnew\b|\bpush_back\s*\(|\bemplace_back\s*\(|\bresize\s*\(|"
    r"\breserve\s*\(|\bassign\s*\(|\bmake_shared\b|\bmake_unique\b|"
    r"\bstd::vector\s*<|\bstd::string\b|\bstd::function\b")


def check_decide_hot_alloc(s: Source, errors):
    """R7: no heap allocation inside `// hot: <name>` ... `// hot: end`.

    Regions are NAMED so each subsystem labels its own steady-state loop:
    `// hot: decide` for the per-cell decision path (safe set +
    acquisition), `// hot: dispatch` for the fleet engine's batched
    dispatch. Any name other than `end` opens a region.
    """
    r = s.rel
    if not r.startswith("src" + os.sep):
        return
    # Markers live in comments, so find them on the RAW lines; allocation
    # tokens are matched on the STRIPPED lines so comments and strings
    # mentioning them don't trip the rule (same split as R5's sync check).
    open_line = None
    open_name = None
    for idx, rline in enumerate(s.raw_lines, start=1):
        m = re.search(r"//\s*hot:\s*(\w+)\b", rline)
        if m and m.group(1) != "end":
            if open_line is not None:
                errors.append(f"{r}:{idx}: [hot] nested '// hot: "
                              f"{m.group(1)}' (previous '{open_name}' "
                              f"opened at line {open_line})")
            open_line = idx
            open_name = m.group(1)
            continue
        if m:  # // hot: end
            if open_line is None:
                errors.append(f"{r}:{idx}: [hot] '// hot: end' without a "
                              "matching '// hot: <name>'")
            open_line = None
            open_name = None
            continue
        if open_line is None or idx - 1 >= len(s.code_lines):
            continue
        m = DECIDE_HOT_ALLOC.search(s.code_lines[idx - 1])
        if m:
            errors.append(
                f"{r}:{idx}: [hot] '{m.group(0).strip()}' inside a "
                f"'// hot: {open_name}' region — the steady-state loop "
                "must not allocate (hoist to setup or use fixed storage)")
    if open_line is not None:
        errors.append(f"{r}:{open_line}: [hot] '// hot: {open_name}' "
                      "without a closing '// hot: end'")


# ---------------------------------------------------------------------------
# R8 raw sync primitives

RAW_SYNC = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable|"
    r"condition_variable_any|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b")


def check_raw_sync(s: Source, errors):
    """R8: locking goes through the annotated wrappers in common/sync.hpp.

    src/common/sync.* is the one exemption — it owns the raw primitives
    (and the lockdep registry's own mutex, which must sit below every
    wrapped lock)."""
    if s.rel.startswith(os.path.join("src", "common", "sync.")):
        return
    for m in RAW_SYNC.finditer(s.code):
        errors.append(
            f"{s.rel}:{s.line_of(m.start())}: [rawsync] 'std::{m.group(1)}' "
            "outside src/common/sync.* — use common::Mutex / LockGuard / "
            "MutexLock / CondVar so lockdep and the clang thread-safety "
            "annotations see the acquisition")


# ---------------------------------------------------------------------------
# R9 guarded members

def _guard_base(expr: str) -> str:
    """`ep_->mu_` and `other.mu_` guard the same class of scopes as a plain
    `mu_`: the heuristic keys on the trailing identifier."""
    idents = re.findall(r"[A-Za-z_]\w*", expr)
    return idents[-1] if idents else ""


def component_of(rel_path: str) -> str:
    """hpp/cpp pairs sharing a path stem form one analysis component."""
    stem, _ext = os.path.splitext(rel_path)
    return stem


_GUARDED_DECL = re.compile(r"\b([A-Za-z_]\w*)\s+EB_GUARDED_BY\s*\(([^)]*)\)")


def _on_pp_directive(code: str, pos: int) -> bool:
    """True when `pos` sits on a preprocessor line (the macro definitions
    of EB_GUARDED_BY itself must not register as member declarations)."""
    start = code.rfind("\n", 0, pos) + 1
    return code[start:pos + 1].lstrip().startswith("#")
_REQUIRES = re.compile(r"EB_REQUIRES\s*\(([^)]*)\)")
_LOCK_ACQ = re.compile(
    r"\b(?:common::)?(?:LockGuard|MutexLock)\s+\w+\s*[({]([^)}]*)[)}]")


def collect_guard_maps(sources):
    """Scan every file for EB_GUARDED_BY member declarations and
    EB_REQUIRES function declarations, grouped by component."""
    guards = {}    # component -> {member: set(guard bases)}
    requires = {}  # component -> {function: set(guard bases)}
    for s in sources:
        comp = component_of(s.rel)
        for m in _GUARDED_DECL.finditer(s.code):
            if _on_pp_directive(s.code, m.start()):
                continue
            member, expr = m.group(1), m.group(2)
            guards.setdefault(comp, {}).setdefault(
                member, set()).add(_guard_base(expr))
        for m in _REQUIRES.finditer(s.code):
            if _on_pp_directive(s.code, m.start()):
                continue
            bases = {_guard_base(g) for g in m.group(1).split(",") if
                     _guard_base(g)}
            # The function name owns the parameter list immediately before
            # the macro: walk back over one balanced (...) group.
            head = s.code[:m.start()]
            j = head.rfind(")")
            if j < 0:
                continue
            depth, k = 1, j - 1
            while k >= 0 and depth:
                if head[k] == ")":
                    depth += 1
                elif head[k] == "(":
                    depth -= 1
                k -= 1
            name_m = re.search(r"([A-Za-z_]\w*)\s*$", head[:k + 1])
            if name_m:
                requires.setdefault(comp, {}).setdefault(
                    name_m.group(1), set()).update(bases)
    return guards, requires


def check_guarded_access(s: Source, guards, requires, errors):
    """R9: every touch of an EB_GUARDED_BY member must sit in a scope that
    holds the guard.

    Scope heuristic, per line, tracking brace depth:
      * a LockGuard/MutexLock declaration holds its guard until the
        enclosing block closes (manual MutexLock::unlock() is invisible —
        the escape comment covers the rare early-release read);
      * a function definition whose name carries EB_REQUIRES(mu) in this
        component's declarations holds mu for its whole body (definitions
        are recognized at namespace level only, so call sites of the same
        name inside other bodies don't inherit the guard);
      * `// unguarded-ok: <reason>` on the line waives the rule (intended
        for pre-publication writes in constructors and teardown paths that
        are single-threaded by contract).
    """
    comp = component_of(s.rel)
    comp_guards = guards.get(comp, {})
    if not comp_guards:
        return
    comp_requires = requires.get(comp, {})
    member_pat = re.compile(
        r"\b(" + "|".join(re.escape(m) for m in sorted(comp_guards)) +
        r")\b")
    defn_pat = None
    if comp_requires:
        defn_pat = re.compile(
            r"(?:^|[\s:*&])(" +
            "|".join(re.escape(f) for f in sorted(comp_requires)) +
            r")\s*\(")

    # Declaration sites span lines (`std::vector<T> streams_\n
    # EB_GUARDED_BY(mu_);`): the member name on the first line is a
    # declaration, not an access.
    decl_lines = set()
    for m in _GUARDED_DECL.finditer(s.code):
        for ln in range(s.line_of(m.start()), s.line_of(m.end() - 1) + 1):
            decl_lines.add(ln)

    depth = 0
    held = []  # (alive_while_depth_at_least, guard base)

    def held_bases():
        return {b for _d, b in held}

    for idx, line in enumerate(s.code_lines, start=1):
        raw_line = s.raw_lines[idx - 1] if idx - 1 < len(s.raw_lines) else ""
        decl_line = idx in decl_lines or "EB_GUARDED_BY" in line
        waived = "unguarded-ok:" in raw_line

        for m in _LOCK_ACQ.finditer(line):
            base = _guard_base(m.group(1))
            if base:
                # Alive for the rest of the enclosing block (which is the
                # depth in force at the declaration).
                held.append((depth if depth else 1, base))
        if defn_pat and depth <= 1:
            m = defn_pat.search(line)
            if m and not line.rstrip().endswith(";"):
                for b in comp_requires.get(m.group(1), ()):
                    held.append((depth + 1, b))
        # EB_REQUIRES spelled directly on an inline definition in a header.
        if "EB_REQUIRES" in line and not line.rstrip().endswith(";"):
            for rm in _REQUIRES.finditer(line):
                for g in rm.group(1).split(","):
                    b = _guard_base(g)
                    if b:
                        held.append((depth + 1, b))

        if not decl_line and not waived:
            have = held_bases()
            for m in member_pat.finditer(line):
                member = m.group(1)
                want = comp_guards[member]
                if want & have:
                    continue
                guard_txt = " / ".join(sorted(want))
                errors.append(
                    f"{s.rel}:{idx}: [guarded] '{member}' "
                    f"(EB_GUARDED_BY({guard_txt})) accessed without "
                    f"holding '{guard_txt}' — take a common::LockGuard/"
                    "MutexLock, annotate the function EB_REQUIRES, or "
                    "append '// unguarded-ok: <reason>'")
                break  # one report per line keeps the output readable

        for ch in line:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth = max(0, depth - 1)
                held = [(d, b) for d, b in held if d <= depth]


# ---------------------------------------------------------------------------
# R10 ISA clones

ISA_TARGETS = {"avx2", "avx512f"}
_TARGET_ATTR = re.compile(r"\bgnu::target\s*\(|"
                          r"\b__attribute__\s*\(\(\s*target\s*\(")


def _balanced_end(code: str, open_paren: int) -> int:
    """Index just past the parenthesis that closes code[open_paren]."""
    depth = 0
    for k in range(open_paren, len(code)):
        if code[k] == "(":
            depth += 1
        elif code[k] == ")":
            depth -= 1
            if depth == 0:
                return k + 1
    return len(code)


def check_isa_targets(s: Source, errors):
    """R10: target() clones are avx2/avx512f only and flattened.

    The attribute list is the enclosing [[...]] or __attribute__((...)):
    its features are read from the raw text (they are string literals,
    which the stripped twin blanks out at the same offsets)."""
    r = s.rel
    if not r.startswith("src" + os.sep):
        return
    for m in _TARGET_ATTR.finditer(s.code):
        line = s.line_of(m.start())
        args_end = _balanced_end(s.code, m.end() - 1)
        features = []
        for lit in re.findall(r'"([^"]*)"', s.raw[m.end():args_end]):
            features += [f.strip() for f in lit.split(",") if f.strip()]
        if m.group(0).startswith("gnu::"):
            start = s.code.rfind("[[", 0, m.start())
            end = s.code.find("]]", args_end)
            attr_list = s.code[start:end if end != -1 else len(s.code)]
        else:
            attr_list = s.code[m.start():_balanced_end(
                s.code, s.code.index("(", m.start()))]
        bad = [f for f in features if f not in ISA_TARGETS]
        if not features or bad:
            named = ", ".join(f'"{f}"' for f in bad) or "nothing"
            why = (" (fma would contract multiply-subtracts)"
                   if any("fma" in f for f in bad) else "")
            errors.append(
                f"{r}:{line}: [isa] target() names {named}{why} — a clone "
                'names only "avx2" or "avx512f"')
        if not re.search(r"\bflatten\b", attr_list):
            errors.append(
                f"{r}:{line}: [isa] target() clone without flatten in the "
                "same attribute list — the shared templates it calls "
                "would stay at the baseline width")


# ---------------------------------------------------------------------------
# R4 headers (filesystem-backed; not part of analyze_sources)

def check_headers_self_contained(errors):
    headers = sorted(
        list(iter_sources([os.path.join(REPO, "src")], exts=(".hpp",))) +
        list(iter_sources([os.path.join(REPO, "include")], exts=(".hpp",))))
    with tempfile.TemporaryDirectory() as tmp:
        tu = os.path.join(tmp, "self_contained.cpp")
        for h in headers:
            with open(tu, "w", encoding="utf-8") as f:
                f.write(f'#include "{h}"\n')
            proc = subprocess.run(
                [CXX, "-std=c++20", "-fsyntax-only",
                 "-I", os.path.join(REPO, "src"),
                 "-I", os.path.join(REPO, "include"), tu],
                capture_output=True, text=True)
            if proc.returncode != 0:
                first = proc.stderr.strip().splitlines()
                detail = first[0] if first else "compile failed"
                errors.append(f"{rel(h)}:1: [header] not self-contained: "
                              f"{detail}")


# ---------------------------------------------------------------------------
# Driver

def analyze_sources(sources):
    """All text rules over a list of Source objects. Takes pre-built
    Sources (not paths) so the self-test can feed virtual files."""
    guards, requires = collect_guard_maps(sources)
    errors = []
    for s in sources:
        check_rng(s, errors)
        check_new_delete(s, errors)
        check_cout(s, errors)
        check_parallel_sync_comment(s, errors)
        check_socket_syscalls(s, errors)
        check_decide_hot_alloc(s, errors)
        check_raw_sync(s, errors)
        check_guarded_access(s, guards, requires, errors)
        check_isa_targets(s, errors)
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("paths", nargs="*",
                    help="dirs/files to lint (default: src bench tests "
                         "examples)")
    ap.add_argument("--skip-header-check", action="store_true",
                    help="skip the (slower) header self-containment compile")
    args = ap.parse_args()

    roots = [os.path.join(REPO, d) for d in CODE_DIRS]
    files = [p for p in (args.paths or []) if os.path.isfile(p)]
    if args.paths and not files:
        roots = [os.path.abspath(p) for p in args.paths]
    elif not args.paths:
        files = []

    paths = files if files else list(iter_sources(roots))
    sources = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            sources.append(Source(rel(path), f.read()))
    errors = analyze_sources(sources)

    if not args.skip_header_check and not files:
        check_headers_self_contained(errors)

    for e in errors:
        print(e)
    n = len(sources)
    if errors:
        print(f"invariant lint: {len(errors)} violation(s) in {n} files",
              file=sys.stderr)
        return 1
    print(f"invariant lint: clean ({n} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
