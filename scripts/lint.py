#!/usr/bin/env python3
"""Repo-specific invariant linter for the Pincer-Search codebase.

Enforces project rules that clang-tidy cannot express (CI job
`lint-and-format`):

  naked-new        `new` / `malloc`-family in C++ sources outside src/util/.
                   Ownership lives in containers and unique_ptr; the few
                   intentional leaks (function-local statics, bench fixtures
                   measured without teardown) carry a
                   `// lint: allow-new(<reason>)` suppression.
  std-endl         `std::endl` anywhere under src/ — counting loops and the
                   JSON logger write through streams, and an accidental
                   flush per line is a real slowdown; use '\\n'.
  nondeterminism   rand()/srand()/std::random_device/std::mt19937/
                   std::default_random_engine outside src/gen/ and
                   src/util/prng.h. Reproducibility is a core guarantee
                   (differential harness, checkpoint resume bit-identity),
                   so all randomness flows through the seeded SplitMix64
                   PRNG.
  raw-mutex        std::mutex / std::lock_guard / std::unique_lock /
                   std::condition_variable (and friends) anywhere outside
                   src/util/sync.h. Lock protocols are compiler-checked via
                   the annotated Mutex/MutexLock/CondVar wrappers (Clang
                   -Wthread-safety); a raw primitive is invisible to that
                   analysis. Suppress (e.g. in a test that needs a bare
                   std::mutex on purpose) with
                   `// lint: allow-raw-mutex(<reason>)`.
  run-plumbing     under src/apriori/, src/core/, src/extensions/ and
                   src/mining/, only the run context
                   (src/mining/mining_run.{h,cc}) constructs a ThreadPool,
                   calls CreateCounter, or attaches counter sinks
                   (set_metrics / set_scan_budget). Every driver gets its
                   pool, counter, budget and pass cap from MiningRun, so the
                   run semantics live in one place instead of drifting
                   apart in copies.
  basket-parse     no std::getline or std::istringstream under src/ outside
                   the basket reader (src/data/basket_reader.{h,cc}). Every
                   path reads basket files through that one reader, so the
                   format rules (header, comments, tokens, positions,
                   malformed-row policy) cannot drift apart in copies.
  subset-scan      `.IsSubsetOf(` under src/ only in src/itemset/, src/core/
                   and src/testing/. The miners, serve and orchestrate
                   cover through Mfs / MaximalOf (src/core/mfs.h), so
                   maximality is computed by one routine and no caller
                   grows its own hand-rolled cover scan.
  checkpoint-sink  `checkpoint_sink` under src/ only in src/mining/ and
                   src/orchestrate/worker.cc, the resume writers. A run's
                   supports come back as MaximalSetResult::supports, so the
                   per-pass snapshot never becomes a result channel again.
  popcount         `std::popcount` and `__builtin_popcount*` under src/ only
                   in src/itemset/dynamic_bitset.cc. The default x86-64
                   target has no POPCNT instruction, so a popcount loop
                   anywhere else calls libgcc once per word; the bitset's
                   word loops are compiled for POPCNT and picked per CPU.
  include-guard    every header uses a PINCER_<PATH>_H_ include guard whose
                   name matches its path (src/ prefix stripped), so moves
                   and copies cannot silently collide.
  relative-include `#include "../..."` — all project includes are rooted at
                   the repo top (e.g. "core/mfcs.h"), which keeps the
                   facade layering visible and greppable.
  todo-owner       TODO comments must name an owner: `TODO(name): ...`.
  line-length      no line of a C++ source is longer than .clang-format's
                   ColumnLimit, counted in code points (a `§` is one
                   column, as clang-format counts it, not two bytes).
                   scripts/check_format.sh checks the whole format where
                   clang-format is installed; this rule holds the limit
                   where it is not. A line that cannot be broken carries a
                   `// lint: allow-long-line(<reason>)` suppression.

Usage:
  scripts/lint.py              lint all tracked sources; exit 1 on findings
  scripts/lint.py FILE...      lint specific files
  scripts/lint.py --self-test  verify every rule fires on a seeded violation
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

CPP_SUFFIXES = {".cc", ".h"}

ALLOW_NEW = re.compile(r"//\s*lint:\s*allow-new\b")
ALLOW_LONG_LINE = re.compile(r"//\s*lint:\s*allow-long-line\b")
ALLOW_RAW_MUTEX = re.compile(r"//\s*lint:\s*allow-raw-mutex\b")
RAW_MUTEX = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable(_any)?)\b"
)
NAKED_NEW = re.compile(r"\bnew\s+[A-Za-z_:(<]")
MALLOC_FAMILY = re.compile(r"\b(malloc|calloc|realloc|free)\s*\(")
STD_ENDL = re.compile(r"\bstd::endl\b")
NONDETERMINISM = re.compile(
    r"\b(rand|srand)\s*\(|std::(random_device|mt19937(_64)?|"
    r"default_random_engine)\b"
)
RUN_PLUMBING_DIRS = ("src/apriori/", "src/core/", "src/extensions/", "src/mining/")
RUN_CONTEXT_FILES = {"src/mining/mining_run.h", "src/mining/mining_run.cc"}
RUN_PLUMBING = re.compile(
    r"make_unique\s*<\s*ThreadPool\s*>|\bThreadPool\s+[A-Za-z_]\w*\s*[({]|"
    r"\bThreadPool\s*[({]|\bCreateCounter\s*\(|"
    r"(\.|->)\s*(set_metrics|set_scan_budget)\s*\("
)
BASKET_READER_FILES = {"src/data/basket_reader.h", "src/data/basket_reader.cc"}
BASKET_PARSE = re.compile(r"\bstd::(getline|istringstream)\b")
SUBSET_SCAN_DIRS = ("src/itemset/", "src/core/", "src/testing/")
SUBSET_SCAN = re.compile(r"(\.|->)\s*IsSubsetOf\s*\(")
CHECKPOINT_SINK_FILES = ("src/mining/", "src/orchestrate/worker.cc")
CHECKPOINT_SINK = re.compile(r"\bcheckpoint_sink\b")
POPCOUNT_FILES = {"src/itemset/dynamic_bitset.cc"}
POPCOUNT = re.compile(r"\bstd::popcount\b|\b__builtin_popcount\w*")
RELATIVE_INCLUDE = re.compile(r'#\s*include\s+"\.\./')
TODO_WITHOUT_OWNER = re.compile(r"\bTODO\b(?!\([A-Za-z0-9_.\- ]+\))")


def column_limit() -> int:
    """The ColumnLimit of the repo's .clang-format (80 if it names none)."""
    try:
        text = (REPO_ROOT / ".clang-format").read_text(encoding="utf-8")
    except OSError:
        return 80
    match = re.search(r"^ColumnLimit:\s*(\d+)", text, re.MULTILINE)
    return int(match.group(1)) if match else 80


COLUMN_LIMIT = column_limit()


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and the contents of string/char literals.

    Line-local approximation (no multi-line /* */ or raw-string tracking);
    good enough for these rules because the patterns they match never span
    lines, and block comments in this codebase start the line (caught by the
    leading-* check in callers via this same stripping).
    """
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            end = line.find("*/", i + 2)
            if end == -1:
                break
            i = end + 2
            continue
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def in_block_comment_prefix(line: str) -> bool:
    stripped = line.lstrip()
    return stripped.startswith("*") or stripped.startswith("/*")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def rel(path: Path) -> str:
    try:
        return path.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return path.as_posix()


def expected_guard(relpath: str) -> str:
    trimmed = relpath[4:] if relpath.startswith("src/") else relpath
    mangled = re.sub(r"[^A-Za-z0-9]", "_", trimmed).upper()
    return f"PINCER_{mangled}_"


def lint_file(path: Path, relpath: str, text: str) -> list[Finding]:
    findings: list[Finding] = []
    lines = text.splitlines()
    is_cpp = path.suffix in CPP_SUFFIXES
    in_src = relpath.startswith("src/")
    in_util = relpath.startswith("src/util/")

    for lineno, raw in enumerate(lines, start=1):
        if in_block_comment_prefix(raw):
            code = ""
        else:
            code = strip_comments_and_strings(raw)

        # A `// lint: allow-new(...)` suppression applies to its own line or,
        # when the comment needs room, to the line after it.
        prev = lines[lineno - 2] if lineno >= 2 else ""
        suppressed = ALLOW_NEW.search(raw) or ALLOW_NEW.search(prev)
        if is_cpp and not in_util and not suppressed:
            if NAKED_NEW.search(code) or MALLOC_FAMILY.search(code):
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "naked-new",
                        "raw allocation outside src/util/ — use a container "
                        "or unique_ptr, or suppress with "
                        "// lint: allow-new(<reason>)",
                    )
                )

        raw_mutex_suppressed = ALLOW_RAW_MUTEX.search(raw) or (
            ALLOW_RAW_MUTEX.search(prev)
        )
        if (
            is_cpp
            and relpath != "src/util/sync.h"
            and not raw_mutex_suppressed
            and RAW_MUTEX.search(code)
        ):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "raw-mutex",
                    "raw synchronization primitive outside src/util/sync.h "
                    "— use the annotated Mutex/MutexLock/CondVar wrappers "
                    "(compiler-checked lock protocols), or suppress with "
                    "// lint: allow-raw-mutex(<reason>)",
                )
            )

        if is_cpp and in_src and STD_ENDL.search(code):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "std-endl",
                    "std::endl flushes per line; use '\\n'",
                )
            )

        if (
            is_cpp
            and in_src
            and not relpath.startswith("src/gen/")
            and relpath != "src/util/prng.h"
            and NONDETERMINISM.search(code)
        ):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "nondeterminism",
                    "unseeded randomness outside src/gen//src/util/prng.h "
                    "breaks reproducibility; use pincer::SplitMix64",
                )
            )

        if (
            is_cpp
            and relpath.startswith(RUN_PLUMBING_DIRS)
            and relpath not in RUN_CONTEXT_FILES
            and RUN_PLUMBING.search(code)
        ):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "run-plumbing",
                    "pool, counter and sink plumbing belongs to the run "
                    "context — use MiningRun (src/mining/mining_run.h)",
                )
            )

        if (
            is_cpp
            and in_src
            and relpath not in BASKET_READER_FILES
            and BASKET_PARSE.search(code)
        ):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "basket-parse",
                    "basket rows are parsed only by the basket reader — "
                    "use BasketReader (src/data/basket_reader.h)",
                )
            )

        if (
            is_cpp
            and in_src
            and not relpath.startswith(SUBSET_SCAN_DIRS)
            and SUBSET_SCAN.search(code)
        ):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "subset-scan",
                    "cover and maximality checks go through Mfs / MaximalOf "
                    "(src/core/mfs.h), not a hand-rolled IsSubsetOf scan",
                )
            )

        if (
            is_cpp
            and in_src
            and not relpath.startswith(CHECKPOINT_SINK_FILES)
            and CHECKPOINT_SINK.search(code)
        ):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "checkpoint-sink",
                    "checkpoints are for resuming; take a run's supports "
                    "from MaximalSetResult::supports, not from a "
                    "checkpoint_sink",
                )
            )

        if (
            is_cpp
            and in_src
            and relpath not in POPCOUNT_FILES
            and POPCOUNT.search(code)
        ):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "popcount",
                    "count bits through DynamicBitset (Count / "
                    "IntersectionCount), whose word loops use POPCNT where "
                    "the CPU has it; a popcount here calls libgcc per word",
                )
            )

        # len() of a str counts code points, the columns clang-format counts.
        long_line_suppressed = ALLOW_LONG_LINE.search(raw) or (
            ALLOW_LONG_LINE.search(prev)
        )
        if is_cpp and len(raw) > COLUMN_LIMIT and not long_line_suppressed:
            findings.append(
                Finding(
                    path,
                    lineno,
                    "line-length",
                    f"{len(raw)} columns, over .clang-format's ColumnLimit "
                    f"of {COLUMN_LIMIT} — wrap it, or suppress with "
                    "// lint: allow-long-line(<reason>)",
                )
            )

        if is_cpp and RELATIVE_INCLUDE.search(raw):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "relative-include",
                    'includes are rooted at the repo top ("core/mfcs.h"), '
                    'never relative ("../")',
                )
            )

        # The linter itself must spell out ownerless TODOs (rule docs and
        # self-test seeds), so it is exempt the same way prng.h is for the
        # nondeterminism rule.
        if relpath != "scripts/lint.py" and TODO_WITHOUT_OWNER.search(raw):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "todo-owner",
                    "TODO must name an owner: TODO(name): ...",
                )
            )

    if path.suffix == ".h" and (in_src or relpath.startswith("fuzz/")):
        guard = expected_guard(relpath)
        if f"#ifndef {guard}" not in text or f"#define {guard}" not in text:
            findings.append(
                Finding(
                    path,
                    1,
                    "include-guard",
                    f"header must use include guard {guard} "
                    "(matching its path)",
                )
            )

    return findings


def tracked_files() -> list[Path]:
    out = subprocess.run(
        ["git", "ls-files"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    lintable: list[Path] = []
    for name in out.splitlines():
        p = REPO_ROOT / name
        if p.suffix in CPP_SUFFIXES or p.suffix in {".py", ".sh", ".cmake"}:
            lintable.append(p)
        elif p.name == "CMakeLists.txt":
            lintable.append(p)
    return lintable


def run(paths: list[Path]) -> int:
    findings: list[Finding] = []
    for path in paths:
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            print(f"{path}: unreadable: {err}", file=sys.stderr)
            return 2
        findings.extend(lint_file(path, rel(path), text))
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint.py: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


SELF_TEST_CASES = {
    "naked-new": ("src/core/x.cc", "int* p = new int(3);\n"),
    "naked-new-suppressed-ok": (
        "src/core/x.cc",
        "int* p = new int(3);  // lint: allow-new(test fixture)\n",
    ),
    "naked-new-util-ok": ("src/util/x.cc", "int* p = new int(3);\n"),
    "naked-new-comment-ok": ("src/core/x.cc", "// without a new read\n"),
    "malloc": ("src/core/x.cc", "void* p = malloc(8);\n"),
    "std-endl": ("src/core/x.cc", "os << std::endl;\n"),
    "std-endl-tests-ok": ("tests/x.cc", "os << std::endl;\n"),
    "raw-mutex": ("src/core/x.cc", "std::mutex mu;\n"),
    "raw-mutex-lock-guard": (
        "tests/x.cc",
        "std::lock_guard<std::mutex> lock(mu);\n",
    ),
    "raw-mutex-condvar": ("src/serve/x.cc", "std::condition_variable cv;\n"),
    "raw-mutex-sync-h-ok": (
        "src/util/sync.h",
        "#ifndef PINCER_UTIL_SYNC_H_\n#define PINCER_UTIL_SYNC_H_\n"
        "std::mutex mu_;\n#endif  // PINCER_UTIL_SYNC_H_\n",
    ),
    "raw-mutex-suppressed-ok": (
        "src/core/x.cc",
        "std::mutex mu;  // lint: allow-raw-mutex(interop with external API)\n",
    ),
    "raw-mutex-comment-ok": (
        "src/core/x.cc",
        "// std::mutex is forbidden outside sync.h\n",
    ),
    "run-plumbing-pool": ("src/core/x.cc", "ThreadPool pool(threads);\n"),
    "run-plumbing-make-unique": (
        "src/extensions/x.cc",
        "auto pool = std::make_unique<ThreadPool>(threads);\n",
    ),
    "run-plumbing-counter": (
        "src/apriori/x.cc",
        "auto counter = CreateCounter(options.backend, db, &pool);\n",
    ),
    "run-plumbing-metrics": (
        "src/mining/x.cc",
        "counter->set_metrics(&stats.counting);\n",
    ),
    "run-plumbing-budget": ("src/core/x.cc", "counter.set_scan_budget(&b);\n"),
    "run-plumbing-run-context-ok": (
        "src/mining/mining_run.cc",
        "owned_pool_ = std::make_unique<ThreadPool>(threads);\n"
        "counter_ = CreateCounter(options.backend, db, pool_);\n"
        "counter_->set_scan_budget(nullptr);\n",
    ),
    "run-plumbing-serve-ok": (
        "src/serve/x.cc",
        "pool_ = std::make_unique<ThreadPool>(threads);\n",
    ),
    "run-plumbing-pointer-ok": (
        "src/core/x.cc",
        "ThreadPool* pool = run.pool();\nmfcs_.set_thread_pool(pool);\n",
    ),
    "run-plumbing-comment-ok": (
        "src/core/x.cc",
        "// only the run context calls CreateCounter(backend, db)\n",
    ),
    "basket-parse-getline": (
        "src/counting/x.cc",
        "while (std::getline(in, line)) {\n",
    ),
    "basket-parse-istringstream": (
        "src/orchestrate/x.cc",
        "std::istringstream fields(line);\n",
    ),
    "basket-parse-reader-ok": (
        "src/data/basket_reader.cc",
        "std::istringstream fields(line);\n",
    ),
    "basket-parse-tests-ok": ("tests/x.cc", "std::istringstream in(text);\n"),
    "basket-parse-ostringstream-ok": ("src/core/x.cc", "std::ostringstream os;\n"),
    "basket-parse-comment-ok": (
        "src/core/x.cc",
        "// rows never go through std::getline here\n",
    ),
    "subset-scan": (
        "src/serve/x.cc",
        "if (candidate.IsSubsetOf(max.itemset)) {\n",
    ),
    "subset-scan-pointer": (
        "src/orchestrate/x.cc",
        "if (a->IsSubsetOf(*b)) covered = true;\n",
    ),
    "subset-scan-core-ok": (
        "src/core/x.cc",
        "if (itemset.IsSubsetOf(element.itemset)) return true;\n",
    ),
    "subset-scan-itemset-ok": ("src/itemset/x.cc", "return a.IsSubsetOf(b);\n"),
    "subset-scan-testing-ok": (
        "src/testing/x.cc",
        "if (fi.itemset.IsSubsetOf(other.itemset)) {\n",
    ),
    "subset-scan-tests-ok": ("tests/x.cc", "EXPECT_TRUE(a.IsSubsetOf(b));\n"),
    "subset-scan-comment-ok": (
        "src/serve/x.cc",
        "// never a candidate.IsSubsetOf(max) scan here\n",
    ),
    "checkpoint-sink": (
        "src/serve/x.cc",
        "options.checkpoint_sink = [&](Checkpoint checkpoint) {\n",
    ),
    "checkpoint-sink-orchestrator": (
        "src/orchestrate/orchestrator.cc",
        "options.checkpoint_sink = nullptr;\n",
    ),
    "checkpoint-sink-mining-ok": (
        "src/mining/x.cc",
        "if (!options_.checkpoint_sink) return;\n",
    ),
    "checkpoint-sink-worker-ok": (
        "src/orchestrate/worker.cc",
        "options.checkpoint_sink = [&](Checkpoint checkpoint) {\n",
    ),
    "checkpoint-sink-examples-ok": (
        "examples/x.cc",
        "options.checkpoint_sink = [&](Checkpoint checkpoint) {\n",
    ),
    "checkpoint-sink-tests-ok": (
        "tests/x.cc",
        "recording.checkpoint_sink = [&](const Checkpoint& c) {\n",
    ),
    "checkpoint-sink-comment-ok": (
        "src/serve/x.cc",
        "// no checkpoint_sink capture here\n",
    ),
    "popcount": ("src/core/x.cc", "total += std::popcount(word);\n"),
    "popcount-builtin": (
        "src/counting/x.cc",
        "n += __builtin_popcountll(a[i] & b[i]);\n",
    ),
    "popcount-other-itemset-file": (
        "src/itemset/itemset.cc",
        "return static_cast<size_t>(__builtin_popcount(mask));\n",
    ),
    "popcount-bitset-ok": (
        "src/itemset/dynamic_bitset.cc",
        "return static_cast<size_t>(__builtin_popcountll(word));\n",
    ),
    "popcount-tests-ok": ("tests/x.cc", "EXPECT_EQ(std::popcount(w), 3);\n"),
    "popcount-comment-ok": (
        "src/data/x.cc",
        "// a fused intersect-and-popcount, not a std::popcount loop\n",
    ),
    "nondeterminism": ("src/core/x.cc", "int r = rand();\n"),
    "nondeterminism-gen-ok": ("src/gen/x.cc", "std::mt19937 rng;\n"),
    "relative-include": ("src/core/x.cc", '#include "../util/y.h"\n'),
    "todo-owner": ("src/core/x.cc", "// TODO: fix this\n"),
    "todo-owner-named-ok": ("src/core/x.cc", "// TODO(pincer): fix this\n"),
    "line-length": ("tests/x.cc", "int x = " + "1 + " * 20 + "1;\n"),
    "line-length-code-points-ok": (
        "src/core/x.cc",
        "// " + "\u00a7" * (COLUMN_LIMIT - 3) + "\n",
    ),
    "line-length-suppressed-ok": (
        "src/core/x.cc",
        "// lint: allow-long-line(an unbreakable URL)\n"
        "// https://example.org/" + "x" * COLUMN_LIMIT + "\n",
    ),
    "line-length-python-ok": ("scripts/x.py", "x = " + "1 + " * 30 + "1\n"),
    "include-guard": (
        "src/core/x.h",
        "#ifndef WRONG_GUARD_H_\n#define WRONG_GUARD_H_\n#endif\n",
    ),
    "include-guard-ok": (
        "src/core/x.h",
        "#ifndef PINCER_CORE_X_H_\n#define PINCER_CORE_X_H_\n"
        "#endif  // PINCER_CORE_X_H_\n",
    ),
}


def self_test() -> int:
    failures = 0
    for name, (relpath, content) in SELF_TEST_CASES.items():
        expect_clean = name.endswith("-ok")
        findings = lint_file(Path(relpath), relpath, content)
        ok = (not findings) if expect_clean else bool(findings)
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        detail = "; ".join(str(f) for f in findings) or "clean"
        print(f"[{status}] {name}: {detail}")
    # End-to-end: a seeded violation written to disk must make the CLI exit
    # nonzero, and an empty run must exit zero.
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "seeded.cc"
        bad.write_text("int* p = new int; os << std::endl; // TODO: x\n")
        proc = subprocess.run(
            [sys.executable, __file__, str(bad)], capture_output=True
        )
        if proc.returncode == 0:
            print("[FAIL] cli-seeded-violation: expected nonzero exit")
            failures += 1
        else:
            print("[PASS] cli-seeded-violation")
    if failures:
        print(f"lint.py --self-test: {failures} failure(s)", file=sys.stderr)
        return 1
    print("lint.py --self-test: all rules fire")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", type=Path)
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="seed one violation per rule and verify each fires",
    )
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    paths = args.files or tracked_files()
    return run(paths)


if __name__ == "__main__":
    sys.exit(main())
