#!/usr/bin/env python3
"""Repo-invariant lint: rules clang-tidy cannot express.

Checks (all scoped to src/):

1. hot-contract-messages — expects()/ensures() in the hot-path modules
   (src/dsp, src/ml, src/engine, src/net) must pass a *string literal*
   message (the const char* overloads in common/error.hpp). Building the
   message with operator+ / std::to_string allocates on every
   evaluation, even when the check passes — on the per-window path
   (which now includes per-frame wire validation) that is a steady-state
   allocation the ZeroAllocation suites would flag far less precisely.

2. hot-loop-strings — no std::string construction (std::string(...),
   std::to_string, std::string locals) inside for/while loop bodies in
   src/dsp and src/ml, unless the line throws (error paths are cold by
   definition). Cold setup loops may carry an explicit
   `// lint: allow-string(<why>)` suppression.

3. lock-discipline — no naked std::mutex / std::condition_variable /
   std::lock_guard / std::unique_lock / std::scoped_lock (nor the
   C++20 blocking primitives: semaphores, latches, barriers) outside
   src/common/annotations.hpp. Everything that blocks goes through
   esl::Mutex / esl::MutexLock / esl::CondVar so Clang's
   -Wthread-safety analysis sees every acquisition (a naked std::mutex
   is invisible to it). std::atomic is allowed for standalone flags
   and counters: atomics are outside the analysis's lock model by
   design, so TSan checks them instead.

4. one-spelling-per-transform — a header in src/common, src/dsp,
   src/entropy or src/features that declares `name_into(` must not also
   declare `name(`. The workspace/scratch `_into` form is the only way
   to compute a window: a second, allocating spelling beside it is a
   parallel implementation that only tests and benches end up calling.
   Tests call the `_into` form with a local dsp::Workspace or scratch.

5. no-blocking-send-in-net — no `send_all(` call and no raw
   `::send`/`::write` family syscall in src/net. A ShardServer stops
   reading a connection whose queued output is over its cap until the
   client reads, so a client blocked in a send that cannot read
   deadlocks against it. Sends in src/net go through
   `platform::Socket::send_some` and, while the buffer is full, wait
   on readable-or-writable and read.

6. no-test-only-surface — a function declared at column 0 (namespace
   scope; class members are indented) in a src/ header must be used
   somewhere outside tests/: in src/, bench/, examples/, perfbench/ or
   fuzz/, by a line other than its own declaration or definition head.
   Uses inside its own header or .cpp count, so a helper that only a
   sibling calls passes; one whose only caller was deleted shows up on
   the next run. A function only tests reach is a parallel library the
   detection loop never runs, whose tests get ported at every refactor:
   delete it with its tests. The few that stay are listed in
   TEST_ONLY_ALLOWLIST, each with the test it is an oracle for or the
   ROADMAP item that decides it; an entry that is no longer declared,
   or that gained a caller, is reported as stale.

Exit status 0 when clean; 1 with file:line diagnostics otherwise.
Run from anywhere: paths resolve relative to the repo root (parent of
this script's directory). CI runs this alongside clang-tidy.
"""
from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

HOT_CONTRACT_DIRS = ("dsp", "ml", "engine", "net")
HOT_LOOP_DIRS = ("dsp", "ml")
ONE_SPELLING_DIRS = ("common", "dsp", "entropy", "features")
NO_BLOCKING_SEND_DIRS = ("net",)
# Trees whose code counts as a real caller for no-test-only-surface.
NON_TEST_DIRS = ("src", "bench", "examples", "perfbench", "fuzz")

# Header functions that nothing outside tests/ calls, kept on purpose.
TEST_ONLY_ALLOWLIST = {
    "dft_reference": "O(n^2) oracle of dsp.Sizes/FftAgainstDftTest and "
    "dsp.SimdParity.EvenLengthRfftSplitMatchesDftOracle",
    "fft_radix2_inplace": "scalar reference that "
    "dsp.WorkspaceParity.FftMatchesAllocatingPath holds fft_into to",
    "ifft_into": "inverse half of the dsp.Sizes/FftAgainstDftTest round "
    "trip and of dsp.SimdParity.FftAndInverseBitIdenticalAcrossLevels",
    "peak_frequency": "per-statistic oracle of "
    "features.EglassFeatures.RowMatchesPerStatisticReference and "
    "ConsistencySeedTest.EglassSpectralBlockMatchesDsp",
    "spectral_edge_frequency": "per-statistic oracle of "
    "features.EglassFeatures.RowMatchesPerStatisticReference and "
    "ConsistencySeedTest.EglassSpectralBlockMatchesDsp",
    "waverec": "perfect-reconstruction oracle of "
    "dsp.Levels/MultiLevelTest.WavedecWaverecRoundTripPeriodic",
    "shannon": "alpha -> 1 reference of "
    "entropy.Renyi.ConvergesToShannonAsAlphaApproachesOne",
    "write_edf_file": "writes the files the signal.Edf reader tests read",
    "record_usable": "ROADMAP 'Gate the self-learning relabel on signal "
    "quality, or delete signal/quality'",
    "add_muscle_artifact": "ROADMAP 'Gate the self-learning relabel on "
    "signal quality': injects the bad windows",
    "add_blink_artifact": "ROADMAP 'Gate the self-learning relabel on "
    "signal quality': injects the bad windows",
}

ALLOW_STRING = re.compile(r"//\s*lint:\s*allow-string\(")
CONTRACT_CALL = re.compile(r"\b(expects|ensures)\s*\(")
STRING_BUILD = re.compile(
    r"std::to_string\s*\(|std::string\s*[({]|\bstd::string\s+\w+\s*[=;({]"
)
LOOP_HEAD = re.compile(r"\b(for|while)\s*\(")
# A function declaration: a return type (possibly qualified/templated,
# with pointer/reference) followed by the declared name and its paren.
DECLARATION = re.compile(r"[\w:>]\s*[*&]?\s+[*&]?(\w+)\s*\(")
BLOCKING_SEND = re.compile(
    r"\bsend_all\s*\(|::(send|sendto|sendmsg|write|writev)\s*\("
)
NOT_A_RETURN_TYPE = {"return", "else", "new", "throw", "co_return", "delete"}
# Column-0 lines that open something other than a function declaration.
NOT_A_FUNCTION_LINE = (
    "namespace", "class", "struct", "enum", "union", "using", "typedef",
    "template", "static_assert", "friend", "#", "//", "/*", "*", "}", "{",
)
# An identifier not reached through `.` or `->` (member access).
IDENTIFIER = re.compile(r"(?<![\w.>])([A-Za-z_]\w*)")
NAKED_LOCK = re.compile(
    r"\bstd::(mutex|condition_variable|lock_guard|unique_lock|scoped_lock"
    r"|recursive_mutex|shared_mutex|timed_mutex"
    r"|binary_semaphore|counting_semaphore|latch|barrier)\b"
)


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and the *contents* of string literals, so
    pattern hits inside either do not count (quotes are kept as markers)."""
    out = []
    i, n = 0, len(line)
    in_string = False
    while i < n:
        c = line[i]
        if in_string:
            if c == "\\":
                i += 2
                continue
            if c == '"':
                in_string = False
                out.append('"')
            i += 1
            continue
        if c == '"':
            in_string = True
            out.append('"')
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def source_files(root: Path) -> list[Path]:
    return sorted(
        p for p in root.rglob("*") if p.suffix in {".hpp", ".cpp"}
    )


def balanced_call(lines: list[str], start: int, column: int) -> tuple[str, int]:
    """The full text of a call whose opening paren is at lines[start][column:],
    plus the index of the line the call ends on."""
    depth = 0
    collected = []
    for index in range(start, len(lines)):
        text = strip_comments_and_strings(lines[index])
        begin = column if index == start else 0
        for offset in range(begin, len(text)):
            c = text[offset]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    collected.append(text[begin : offset + 1])
                    return " ".join(collected), index
        collected.append(text[begin:])
    return " ".join(collected), len(lines) - 1


def check_hot_contract_messages(violations: list[str]) -> None:
    for module in HOT_CONTRACT_DIRS:
        for path in source_files(SRC / module):
            raw = path.read_text().splitlines()
            for lineno, line in enumerate(raw, 1):
                stripped = strip_comments_and_strings(line)
                match = CONTRACT_CALL.search(stripped)
                if not match:
                    continue
                call, _ = balanced_call(raw, lineno - 1, match.end() - 1)
                # A `+` only counts when it touches a string literal
                # (concatenation); bare arithmetic in the condition is
                # fine.
                concatenates = re.search(r'"\s*\+|\+\s*"', call)
                if concatenates or "std::to_string" in call or \
                        "std::string" in call:
                    rel = path.relative_to(REPO_ROOT)
                    violations.append(
                        f"{rel}:{lineno}: [hot-contract-messages] "
                        f"{match.group(1)}() message must be a string "
                        f"literal (const char* overload); building it "
                        f"allocates on every call"
                    )


def check_hot_loop_strings(violations: list[str]) -> None:
    for module in HOT_LOOP_DIRS:
        for path in source_files(SRC / module):
            loop_depths: list[int] = []  # brace depth at each open loop body
            brace_depth = 0
            pending_loop = False
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                stripped = strip_comments_and_strings(line)
                in_loop = bool(loop_depths)
                if (
                    in_loop
                    and STRING_BUILD.search(stripped)
                    and "throw" not in stripped
                    and not ALLOW_STRING.search(line)
                ):
                    rel = path.relative_to(REPO_ROOT)
                    violations.append(
                        f"{rel}:{lineno}: [hot-loop-strings] std::string "
                        f"construction inside a loop body (allocates per "
                        f"iteration); hoist it, throw, or annotate "
                        f"`// lint: allow-string(<why>)`"
                    )
                if LOOP_HEAD.search(stripped):
                    pending_loop = True
                for c in stripped:
                    if c == "{":
                        if pending_loop:
                            loop_depths.append(brace_depth)
                            pending_loop = False
                        brace_depth += 1
                    elif c == "}":
                        brace_depth -= 1
                        if loop_depths and brace_depth == loop_depths[-1]:
                            loop_depths.pop()
                if pending_loop and stripped.rstrip().endswith(";"):
                    pending_loop = False  # single-statement loop body
    # (single-statement loop bodies without braces are rare in this
    # codebase and covered by review; the brace tracker is intentionally
    # simple rather than a C++ parser)


def check_lock_discipline(violations: list[str]) -> None:
    annotations = SRC / "common" / "annotations.hpp"
    for path in source_files(SRC):
        if path == annotations:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            stripped = strip_comments_and_strings(line)
            match = NAKED_LOCK.search(stripped)
            if match:
                rel = path.relative_to(REPO_ROOT)
                violations.append(
                    f"{rel}:{lineno}: [lock-discipline] naked std::"
                    f"{match.group(1)}; use esl::Mutex / esl::MutexLock / "
                    f"esl::CondVar (common/annotations.hpp) so "
                    f"-Wthread-safety sees the acquisition"
                )


def declared_functions(path: Path) -> dict[str, int]:
    """Names of functions the header declares, with their first line."""
    declared: dict[str, int] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        stripped = strip_comments_and_strings(line)
        for match in DECLARATION.finditer(stripped):
            prefix = stripped[: match.start(1)].split()
            if prefix and prefix[-1].lstrip("*&") in NOT_A_RETURN_TYPE:
                continue
            declared.setdefault(match.group(1), lineno)
    return declared


def check_one_spelling_per_transform(violations: list[str]) -> None:
    for module in ONE_SPELLING_DIRS:
        for path in sorted((SRC / module).glob("*.hpp")):
            declared = declared_functions(path)
            for name in sorted(declared):
                if not name.endswith("_into"):
                    continue
                twin = name[: -len("_into")]
                if twin in declared:
                    rel = path.relative_to(REPO_ROOT)
                    violations.append(
                        f"{rel}:{declared[twin]}: [one-spelling-per-"
                        f"transform] {twin}() is declared beside {name}(); "
                        f"keep only the workspace form"
                    )


def check_no_blocking_send(violations: list[str]) -> None:
    for module in NO_BLOCKING_SEND_DIRS:
        for path in source_files(SRC / module):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if BLOCKING_SEND.search(strip_comments_and_strings(line)):
                    rel = path.relative_to(REPO_ROOT)
                    violations.append(
                        f"{rel}:{lineno}: [no-blocking-send-in-net] "
                        f"this send can block without reading; a server "
                        f"holding back a capped connection waits for this "
                        f"side to read. Use Socket::send_some and read "
                        f"while the send buffer is full"
                    )


def column0_function(line: str) -> str | None:
    """The function a column-0 declaration or definition head names."""
    if not line or line[0].isspace() or line.startswith(NOT_A_FUNCTION_LINE):
        return None
    stripped = strip_comments_and_strings(line)
    match = DECLARATION.search(stripped)
    if match is None or "operator" in stripped[: match.end(1)]:
        return None
    prefix = stripped[: match.start(1)].split()
    if prefix and prefix[-1].lstrip("*&") in NOT_A_RETURN_TYPE:
        return None
    return match.group(1)


def check_no_test_only_surface(violations: list[str]) -> None:
    declared: dict[str, tuple[Path, int]] = {}
    for path in sorted(SRC.rglob("*.hpp")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            name = column0_function(line)
            if name is not None:
                declared.setdefault(name, (path, lineno))
    used: set[str] = set()
    for tree in NON_TEST_DIRS:
        for path in source_files(REPO_ROOT / tree):
            for line in path.read_text().splitlines():
                head = column0_function(line)
                for match in IDENTIFIER.finditer(
                        strip_comments_and_strings(line)):
                    if match.group(1) != head:
                        used.add(match.group(1))
    for name, (path, lineno) in sorted(declared.items()):
        if name in used or name in TEST_ONLY_ALLOWLIST:
            continue
        rel = path.relative_to(REPO_ROOT)
        violations.append(
            f"{rel}:{lineno}: [no-test-only-surface] {name}() is declared "
            f"here but nothing outside tests/ uses it; delete it with its "
            f"tests, or allowlist it in TEST_ONLY_ALLOWLIST with the test "
            f"it is an oracle for or the ROADMAP item that decides it"
        )
    for name in sorted(TEST_ONLY_ALLOWLIST):
        if name not in declared or name in used:
            why = "is no longer declared" if name not in declared else \
                "is now used outside tests/"
            violations.append(
                f"tools/lint_invariants.py: [no-test-only-surface] "
                f"allowlisted {name}() {why}; drop its TEST_ONLY_ALLOWLIST "
                f"entry"
            )


def main() -> int:
    violations: list[str] = []
    check_hot_contract_messages(violations)
    check_hot_loop_strings(violations)
    check_lock_discipline(violations)
    check_one_spelling_per_transform(violations)
    check_no_blocking_send(violations)
    check_no_test_only_surface(violations)
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)")
        for v in violations:
            print(f"  {v}")
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
