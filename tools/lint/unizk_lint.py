#!/usr/bin/env python3
"""unizk_lint: repo-specific invariant linter for the UniZK reproduction.

Enforces correctness invariants that generic tools (clang-tidy, compiler
warnings) cannot know about, because they are properties of *this*
codebase's proof-soundness and determinism contracts:

  fp-raw-arith      Raw uint64_t arithmetic on Fp::value() results is only
                    allowed inside src/field/ — everywhere else, modular
                    reduction mistakes silently corrupt proofs instead of
                    crashing.  Use Fp operators or the helpers exported by
                    field/goldilocks.h (e.g. fpIndexBelow).
  nondet-container  Prover paths must be deterministic: no
                    std::unordered_map / std::unordered_set (iteration
                    order varies across libstdc++ versions), and no
                    rand()/srand()/std::mt19937/std::random_device
                    (SplitMix64 is the only sanctioned RNG).  Violations
                    break the byte-identical-proof guarantee.
  assert-side-effect
                    assert()/unizk_assert() conditions must be pure:
                    ++/--/assignment inside an assertion changes behaviour
                    between build types or reads as if it does.
  unguarded-shift   `1 << n` with a non-literal shift amount has type int:
                    it overflows at n >= 31 and is UB at n >= 32, long
                    before the 2-adicity limit of 32 used by NTT index
                    math.  Use uint64_t{1} << n or size_t{1} << n.
  float-in-core     No float/double in src/field, src/ntt, src/hash:
                    field arithmetic is exact; a stray floating-point
                    intermediate destroys soundness silently.
  raw-chrono        No raw std::chrono timing in prover/kernel paths:
                    kernel-class time goes through KernelScope
                    (trace/kernel_class.h), other timing through
                    Stopwatch (common/stats.h) or obs spans (UNIZK_SPAN),
                    so instrumentation stays centralized.
  raw-simd-intrinsic
                    Raw vector intrinsics (_mm*/__m128/__m256/__m512,
                    <immintrin.h> and friends) are confined to
                    src/field/goldilocks_simd*: everywhere else goes
                    through laneKernels() / Poseidon::permuteBatch / the
                    hashing.h batch entry points so runtime dispatch
                    (UNIZK_SIMD) stays the only arbiter of which backend
                    runs, and no TU compiled without -mavx2 can leak
                    AVX2 codegen.
  raw-sync-primitive
                    No bare std::mutex / std::condition_variable /
                    std::lock_guard (or friends) outside
                    src/common/sync.h: all locking goes through the
                    capability-annotated unizk::Mutex / unizk::CondVar /
                    MutexLock wrappers so Clang's thread-safety analysis
                    (-Werror=thread-safety, CI `thread-safety` job) can
                    check every locking contract at compile time.
  unguarded-mutex-member
                    Every unizk::Mutex declared as a member (or at
                    namespace scope) must guard something: at least one
                    sibling declaration in the same file must carry
                    UNIZK_GUARDED_BY(that_mutex) (or UNIZK_PT_GUARDED_BY).
                    A mutex that protects no annotated data is invisible
                    to the thread-safety analysis; if it exists purely to
                    order events (e.g. a condvar handshake), suppress
                    with a comment saying so.
  obs-registry-direct
                    obs/registry.h (the per-thread blocks, name tables
                    and window-rotation baselines) is private to
                    src/obs: no #include "obs/registry.h" and no
                    obs::internal reference anywhere else.  The window
                    sequence/baseline state is only consistent when
                    every consumer rotates through obs::snapshotDelta();
                    an exporter iterating the blocks directly observes
                    totals mid-rebaseline and breaks the
                    delta-reconciliation guarantee the stats windows
                    are validated against.  Use the snapshot APIs in
                    obs/obs.h.

Suppressions (per line, per rule):

    some_code();  // unizk-lint: disable=rule-name
    // unizk-lint: disable-next-line=rule-name,other-rule
    some_code();

File-wide (anywhere in the file):

    // unizk-lint: disable-file=rule-name

Usage:
    python3 tools/lint/unizk_lint.py [--list-rules] [paths...]

Paths may be files or directories (searched recursively for C++ sources).
Exit status is nonzero iff at least one finding is reported.

Stdlib-only by design; runs anywhere python3 exists.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

CXX_EXTENSIONS = {".h", ".hpp", ".hh", ".inl", ".cpp", ".cc", ".cxx"}

# Directories whose contents feed the byte-identical-proof guarantee.
PROVER_PATHS = (
    "src/fri/",
    "src/plonk/",
    "src/stark/",
    "src/merkle/",
    "src/hash/",
)

# Directories where floating point is banned outright.
EXACT_ARITHMETIC_PATHS = ("src/field/", "src/ntt/", "src/hash/")

# Prover/kernel directories where ad-hoc std::chrono timing is banned;
# the sanctioned timers are KernelScope (trace/kernel_class.h), Stopwatch
# (common/stats.h) and the spans of src/obs/.
TIMED_KERNEL_PATHS = PROVER_PATHS + (
    "src/ntt/",
    "src/poly/",
    "src/sumcheck/",
    "src/unizk/",
)

SUPPRESS_LINE_RE = re.compile(r"unizk-lint:\s*disable=([\w,-]+)")
SUPPRESS_NEXT_RE = re.compile(r"unizk-lint:\s*disable-next-line=([\w,-]+)")
SUPPRESS_FILE_RE = re.compile(r"unizk-lint:\s*disable-file=([\w,-]+)")


@dataclasses.dataclass(frozen=True)
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclasses.dataclass(frozen=True)
class Rule:
    """One table entry of the rule engine.

    Exactly one of `pattern` or `checker` drives the rule:
      - `pattern` rules flag every stripped source line matching the regex;
      - `checker` rules receive the whole stripped file and return
        (line_number, detail) pairs, for checks that need multi-line
        context (e.g. balanced parentheses).
    Scoping: a rule applies to a file iff the file's repo-relative path
    starts with one of `include` (empty tuple = everywhere) and with none
    of `exclude`.
    """

    name: str
    summary: str
    message: str
    pattern: Optional[re.Pattern] = None
    checker: Optional[
        Callable[[Sequence[str]], Iterable[Tuple[int, str]]]
    ] = None
    include: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        if self.include and not any(
            relpath.startswith(p) for p in self.include
        ):
            return False
        return not any(relpath.startswith(p) for p in self.exclude)


# --------------------------------------------------------------------------
# Source preprocessing: strip string/char literals and comments so rule
# regexes only ever see code. Suppression comments are extracted *before*
# comments are removed.
# --------------------------------------------------------------------------

def strip_source(lines: Sequence[str]) -> List[str]:
    """Blank out string literals, char literals, and comments.

    Replaced regions become spaces so column/line structure is preserved.
    Handles multi-line /* */ comments, escape sequences, and C++14 digit
    separators (1'000'000 is not a char literal). Quoted #include
    filenames are *kept*: they name code structure, not data, and rules
    like obs-registry-direct match on them.
    """
    out: List[str] = []
    in_block_comment = False
    include_re = re.compile(r'\s*#\s*include\s*"[^"]*"')
    for line in lines:
        res = []
        i = 0
        n = len(line)
        if not in_block_comment:
            m = include_re.match(line)
            if m:
                res.append(m.group(0))
                i = m.end()
        while i < n:
            c = line[i]
            if in_block_comment:
                if c == "*" and i + 1 < n and line[i + 1] == "/":
                    in_block_comment = False
                    res.append("  ")
                    i += 2
                else:
                    res.append(" ")
                    i += 1
                continue
            if c == "/" and i + 1 < n and line[i + 1] == "/":
                res.append(" " * (n - i))
                break
            if c == "/" and i + 1 < n and line[i + 1] == "*":
                in_block_comment = True
                res.append("  ")
                i += 2
                continue
            if c == '"' or c == "'":
                # A single quote between digits is a separator, not a
                # character literal (e.g. 1'000'000).
                if (
                    c == "'"
                    and i > 0
                    and line[i - 1].isalnum()
                ):
                    res.append(c)
                    i += 1
                    continue
                quote = c
                res.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\":
                        res.append("  ")
                        i += 2
                        continue
                    if line[i] == quote:
                        res.append(quote)
                        i += 1
                        break
                    res.append(" ")
                    i += 1
                continue
            res.append(c)
            i += 1
        out.append("".join(res))
    return out


# --------------------------------------------------------------------------
# assert-side-effect: needs balanced-paren scanning across lines.
# --------------------------------------------------------------------------

ASSERT_CALL_RE = re.compile(r"(?<![\w.])(?:unizk_)?assert\s*\(")
# ++ / -- anywhere, or an assignment operator: '=' that is not part of
# ==, !=, <=, >= and not preceded by another '=' (compound assignments
# += -= *= /= %= &= |= ^= <<= >>= all end in a bare '=' preceded by an
# operator character, which we *do* want to flag).
SIDE_EFFECT_RE = re.compile(
    r"\+\+|--|(?<![=!<>])(?:[-+*/%&|^]|<<|>>)?=(?!=)"
)


def check_assert_side_effects(
    stripped: Sequence[str],
) -> Iterable[Tuple[int, str]]:
    for lineno, line in enumerate(stripped, start=1):
        for m in ASSERT_CALL_RE.finditer(line):
            # Collect the balanced-paren argument text, possibly spanning
            # a few following lines.
            depth = 0
            arg_chars: List[str] = []
            row = lineno - 1
            col = m.end() - 1  # position of '('
            scanned_rows = 0
            done = False
            while row < len(stripped) and scanned_rows < 16 and not done:
                text = stripped[row]
                start = col if row == lineno - 1 else 0
                for ch in text[start:]:
                    if ch == "(":
                        depth += 1
                    elif ch == ")":
                        depth -= 1
                        if depth == 0:
                            done = True
                            break
                    if depth >= 1:
                        arg_chars.append(ch)
                row += 1
                scanned_rows += 1
                arg_chars.append("\n")
            arg = "".join(arg_chars)
            sem = SIDE_EFFECT_RE.search(arg)
            if sem:
                yield lineno, f"offending token {sem.group(0)!r}"


# --------------------------------------------------------------------------
# unguarded-mutex-member: a unizk::Mutex declaration must be named by at
# least one UNIZK_GUARDED_BY / UNIZK_PT_GUARDED_BY annotation in the
# same file, otherwise the thread-safety analysis cannot check anything
# about it.
# --------------------------------------------------------------------------

# A plain Mutex declaration: optional mutable/static, optional unizk::,
# the declared name, then either the terminating ';' or an UNIZK_*
# annotation macro (e.g. UNIZK_ACQUIRED_BEFORE). References, pointers
# and function parameters deliberately do not match.
MUTEX_DECL_RE = re.compile(
    r"\b(?:unizk::)?Mutex\s+([A-Za-z_]\w*)\s*(?:;|UNIZK_)"
)


def check_unguarded_mutex_members(
    stripped: Sequence[str],
) -> Iterable[Tuple[int, str]]:
    text = "\n".join(stripped)
    for lineno, line in enumerate(stripped, start=1):
        for m in MUTEX_DECL_RE.finditer(line):
            name = m.group(1)
            guard_re = re.compile(
                r"UNIZK_(?:PT_)?GUARDED_BY\(\s*(?:[A-Za-z_]\w*\.)?"
                + re.escape(name)
                + r"\s*\)"
            )
            if not guard_re.search(text):
                yield lineno, f"mutex '{name}' guards no annotated member"


# --------------------------------------------------------------------------
# Rule table.
# --------------------------------------------------------------------------

RULES: Tuple[Rule, ...] = (
    Rule(
        name="fp-raw-arith",
        summary="raw arithmetic on Fp::value() outside src/field/",
        message=(
            "raw uint64_t arithmetic on an Fp::value() result; do modular "
            "math through Fp operators or field/goldilocks.h helpers "
            "(fpIndexBelow, fpHighBits) so reduction stays in src/field/"
        ),
        pattern=re.compile(
            r"\.value\(\)\s*(?:%|\+|\*|<<|>>|(?<!&)&(?!&)|(?<!\|)\|(?!\|)"
            r"|\^|-(?!>))"
            r"|(?:%|\+|\*|<<|>>|(?<!&)&(?!&)|(?<!\|)\|(?!\|)|\^|-)=?\s*"
            r"[A-Za-z_][\w:.\[\]]*\.value\(\)"
        ),
        exclude=("src/field/",),
    ),
    Rule(
        name="nondet-container",
        summary="nondeterminism sources in prover paths",
        message=(
            "nondeterministic container or RNG in a prover path; iteration "
            "order / seeding would break the byte-identical-proof "
            "guarantee. Use std::map/std::set/sorted vectors and the "
            "deterministic SplitMix64 from common/rng.h"
        ),
        pattern=re.compile(
            r"\bstd::unordered_(?:map|set|multimap|multiset)\b"
            r"|\bstd::(?:mt19937(?:_64)?|minstd_rand0?|random_device)\b"
            r"|(?<![\w:])s?rand\s*\("
        ),
        include=PROVER_PATHS,
    ),
    Rule(
        name="assert-side-effect",
        summary="assert()/unizk_assert() with side effects",
        message=(
            "assertion condition contains a side effect (++/--/assignment); "
            "assertions must be pure so behaviour cannot depend on them"
        ),
        checker=check_assert_side_effects,
    ),
    Rule(
        name="unguarded-shift",
        summary="int-typed literal shifted by a variable",
        message=(
            "integer literal of type int/unsigned shifted by a non-literal "
            "amount; this is UB once the amount reaches 32 (NTT/bit-reverse "
            "index math reaches 32+). Write uint64_t{1} << n or 1ULL << n"
        ),
        pattern=re.compile(
            r"(?<![\w.}\)])\d+[uU]?\s*<<\s*[A-Za-z_(]"
        ),
    ),
    Rule(
        name="ntt-core-outside",
        summary="hand-rolled NTT butterfly core outside src/ntt/",
        message=(
            "inline NTT butterfly core (difTabled/difButterfly/ditButterfly "
            "call or a sequential `w_len` twiddle chain) outside src/ntt/; "
            "per-call root recomputation forfeits the twiddle cache and "
            "the pool-parallel decomposition. Call the src/ntt/ntt.h entry "
            "points (nttNR, lowDegreeExtension, inttBatchNN, ldeBatch, "
            "cosetInttRN) instead"
        ),
        pattern=re.compile(
            r"\b(?:difTabled|difButterfly|ditButterfly)\s*\("
            r"|\bw_len\b"
        ),
        exclude=("src/ntt/",),
    ),
    Rule(
        name="float-in-core",
        summary="float/double in exact-arithmetic directories",
        message=(
            "float/double in src/field, src/ntt or src/hash; these layers "
            "are exact modular arithmetic and floating point silently "
            "destroys soundness"
        ),
        pattern=re.compile(r"\b(?:float|double|long\s+double)\b"),
        include=EXACT_ARITHMETIC_PATHS,
    ),
    Rule(
        name="raw-chrono",
        summary="raw std::chrono timing in prover/kernel paths",
        message=(
            "raw std::chrono timing in a prover/kernel path; time kernels "
            "through KernelScope (trace/kernel_class.h), anything else "
            "through Stopwatch (common/stats.h) or obs spans (UNIZK_SPAN "
            "from obs/obs.h) so timing stays centralized"
        ),
        pattern=re.compile(
            r"\bstd::chrono\b"
            r"|\b(?:steady|system|high_resolution)_clock\b"
            r"|#\s*include\s*<chrono>"
        ),
        include=TIMED_KERNEL_PATHS,
    ),
    Rule(
        name="raw-simd-intrinsic",
        summary="raw vector intrinsics outside src/field/goldilocks_simd*",
        message=(
            "raw vector intrinsic outside src/field/goldilocks_simd*; go "
            "through laneKernels(), Poseidon::permuteBatch or the hashing.h "
            "batch entry points so UNIZK_SIMD runtime dispatch stays the only "
            "arbiter of the executed backend (and no TU built without "
            "-mavx2 can emit AVX2 instructions)"
        ),
        pattern=re.compile(
            r"\b_mm(?:\d+)?_\w+\s*\("
            r"|\b__m(?:64|128|256|512)[id]?\b"
            r"|#\s*include\s*<(?:immintrin|emmintrin|smmintrin"
            r"|tmmintrin|nmmintrin|wmmintrin|xmmintrin|pmmintrin"
            r"|avx\w*intrin|x86intrin)\.h>"
        ),
        exclude=("src/field/goldilocks_simd",),
    ),
    Rule(
        name="raw-sync-primitive",
        summary="bare std sync primitive outside src/common/sync.h",
        message=(
            "bare std synchronization primitive; use the "
            "capability-annotated wrappers from common/sync.h "
            "(unizk::Mutex, unizk::CondVar, MutexLock, "
            "ReleasableMutexLock) so -Werror=thread-safety can check "
            "the locking contract at compile time"
        ),
        pattern=re.compile(
            r"\bstd::(?:mutex|recursive_mutex|timed_mutex"
            r"|recursive_timed_mutex|shared_mutex|shared_timed_mutex"
            r"|condition_variable(?:_any)?|lock_guard|unique_lock"
            r"|scoped_lock|shared_lock)\b"
            r"|#\s*include\s*<(?:mutex|condition_variable"
            r"|shared_mutex)>"
        ),
        exclude=("src/common/sync.h",),
    ),
    Rule(
        name="unguarded-mutex-member",
        summary="unizk::Mutex with no UNIZK_GUARDED_BY member",
        message=(
            "this unizk::Mutex guards no annotated data: no sibling "
            "declaration carries UNIZK_GUARDED_BY on it, so the "
            "thread-safety analysis cannot check anything it protects. "
            "Annotate the protected members, or suppress with a "
            "comment explaining what the mutex orders instead"
        ),
        checker=check_unguarded_mutex_members,
        include=("src/",),
    ),
    Rule(
        name="obs-registry-direct",
        summary="direct obs registry access outside src/obs/",
        message=(
            "direct access to the obs registry internals outside "
            "src/obs; the window-rotation baselines are only "
            "consistent under obs::snapshotDelta(), so iterate "
            "snapshots (counterSnapshot, histogramSnapshot, "
            "snapshotDelta, spanBufferStats) from obs/obs.h instead "
            "of the blocks themselves"
        ),
        pattern=re.compile(
            r"#\s*include\s*\"obs/registry\.h\""
            r"|\bobs::internal\b"
            r"|\binternal::(?:Registry|SpanBuffer|CounterBlock"
            r"|HistoBlock|HistoSlot)\b"
        ),
        exclude=("src/obs/",),
    ),
)

RULE_NAMES = {r.name for r in RULES}


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------

def parse_suppressions(
    raw_lines: Sequence[str],
) -> Tuple[dict, set]:
    """Return ({line_number: set(rule_names)}, file_wide_rule_names)."""
    per_line: dict = {}
    file_wide: set = set()
    for lineno, line in enumerate(raw_lines, start=1):
        m = SUPPRESS_FILE_RE.search(line)
        if m:
            file_wide.update(m.group(1).split(","))
        m = SUPPRESS_LINE_RE.search(line)
        if m:
            per_line.setdefault(lineno, set()).update(m.group(1).split(","))
        m = SUPPRESS_NEXT_RE.search(line)
        if m:
            per_line.setdefault(lineno + 1, set()).update(
                m.group(1).split(",")
            )
    return per_line, file_wide


def repo_relative(path: str, repo_root: str) -> str:
    ap = os.path.abspath(path)
    rel = os.path.relpath(ap, repo_root)
    return rel.replace(os.sep, "/")


def lint_file(path: str, repo_root: str) -> List[Finding]:
    relpath = repo_relative(path, repo_root)
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw = f.read().splitlines()
    except OSError as e:
        return [Finding(relpath, 0, "io-error", str(e))]

    per_line_supp, file_supp = parse_suppressions(raw)
    stripped = strip_source(raw)

    findings: List[Finding] = []

    def suppressed(rule_name: str, lineno: int) -> bool:
        if rule_name in file_supp:
            return True
        return rule_name in per_line_supp.get(lineno, set())

    for rule in RULES:
        if not rule.applies_to(relpath):
            continue
        if rule.pattern is not None:
            for lineno, line in enumerate(stripped, start=1):
                if rule.pattern.search(line) and not suppressed(
                    rule.name, lineno
                ):
                    findings.append(
                        Finding(relpath, lineno, rule.name, rule.message)
                    )
        if rule.checker is not None:
            for lineno, detail in rule.checker(stripped):
                if not suppressed(rule.name, lineno):
                    findings.append(
                        Finding(
                            relpath,
                            lineno,
                            rule.name,
                            f"{rule.message} ({detail})",
                        )
                    )
    return findings


def collect_files(paths: Sequence[str]) -> List[str]:
    files: List[str] = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
        elif os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs[:] = sorted(
                    d
                    for d in dirs
                    if not d.startswith(".") and not d.startswith("build")
                )
                for name in sorted(names):
                    if os.path.splitext(name)[1] in CXX_EXTENSIONS:
                        files.append(os.path.join(root, name))
        else:
            print(f"unizk_lint: no such path: {p}", file=sys.stderr)
    return files


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="unizk_lint",
        description="repo-specific invariant linter (see module docstring)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "bench", "tests", "examples"],
        help="files or directories to lint (default: src bench tests "
        "examples)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--repo-root",
        default=None,
        help="repository root used for rule path scoping (default: "
        "two directories above this script)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            scope = (
                ", ".join(rule.include) if rule.include else "all files"
            )
            if rule.exclude:
                scope += f" (except {', '.join(rule.exclude)})"
            print(f"{rule.name:20s} {rule.summary}  [{scope}]")
        return 0

    repo_root = args.repo_root or os.path.abspath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
    )

    files = collect_files(args.paths)
    if not files:
        print("unizk_lint: no C++ sources found", file=sys.stderr)
        return 2

    findings: List[Finding] = []
    for path in files:
        findings.extend(lint_file(path, repo_root))

    for finding in findings:
        print(finding.render())
    if findings:
        print(
            f"unizk_lint: {len(findings)} finding(s) in "
            f"{len(files)} file(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
