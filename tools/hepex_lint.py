#!/usr/bin/env python3
"""hepex_lint: a static wall for the determinism, units, and error-taxonomy
contracts (docs/static-analysis.md).

The repo makes three promises that no compiler flag checks:

  * determinism -- identical inputs produce bit-identical artifacts at any
    --jobs value, so nothing result-producing may iterate a hash container,
    draw from an unseeded/global RNG, or order anything by pointer value;
  * unit discipline -- physical quantities travel as hepex::q dimensional
    types; raw `double foo_s` style members/params are confined to the
    serialization, CLI, and observability boundaries;
  * error taxonomy -- user-input failures go through util::fail_require
    (std::invalid_argument, exit 2), invariant failures through
    util::fail_assert (std::logic_error, exit 1), environment failures are
    std::runtime_error with a "hepex: " prefix; bare throw/abort/assert
    bypass the contract;
  * allocation discipline -- the simulator's event hot path performs zero
    raw heap allocations steady-state (docs/performance.md); src/sim
    allocates only through standard containers, so raw
    new/make_unique/make_shared anywhere in src/sim is an error
    (placement new into already-owned storage is fine);

plus one mechanical one: every "hepex-<kind>/<N>" schema identifier is
spelled exactly once, in src/util/schemas.hpp.

This linter enforces all of these with line-based rules over comment- and
string-stripped source (string literals are inspected separately where a
rule concerns them). It is deliberately not a compiler plugin: the rules
are textual contracts, and a regex wall that runs in milliseconds on every
ctest invocation beats a semantic one nobody runs.

Suppressions are inline and must be justified:

    std::unordered_map<K, V> idx_;  // hepex-lint: allow(unordered-container) scratch index, never iterated
    // hepex-lint: allow(raw-random) seeding the sanctioned rng plumbing
    entropy_ = std::random_device{}();

A file-wide waiver (first 40 lines) covers artifact-mirror files:

    // hepex-lint: allow-file(raw-unit-double) JSON artifact mirror; raw doubles ARE the wire format

A suppression with no justification text is itself an error
(`unjustified-suppression`) and does not suppress anything.

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable

# --------------------------------------------------------------------------
# Lexing: split a C++ source into code (comments/strings blanked), the
# comment text per line (for suppressions), and string literals (for the
# rules that inspect them). Newlines are preserved so line numbers survive.
# --------------------------------------------------------------------------


@dataclass
class Lexed:
    code: str  # comments and string/char literal bodies blanked with spaces
    comments: dict[int, str]  # line -> concatenated comment text on that line
    strings: list[tuple[int, int, str]]  # (line, column, literal body)


def lex(text: str) -> Lexed:
    out: list[str] = []
    comments: dict[int, str] = {}
    strings: list[tuple[int, int, str]] = []
    i, n = 0, len(text)
    line, col = 1, 0

    def emit(ch: str) -> None:
        nonlocal line, col
        out.append(ch)
        if ch == "\n":
            line += 1
            col = 0
        else:
            col += 1

    def blank(ch: str) -> None:
        emit("\n" if ch == "\n" else " ")

    while i < n:
        ch = text[i]
        two = text[i : i + 2]
        if two == "//":
            j = i
            while j < n and text[j] != "\n":
                j += 1
            comments[line] = comments.get(line, "") + text[i:j]
            for k in range(i, j):
                blank(text[k])
            i = j
        elif two == "/*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            # Multi-line comments attach to every line they span.
            for part_line, part in enumerate(text[i:j].split("\n")):
                comments[line + part_line] = (
                    comments.get(line + part_line, "") + part
                )
            for k in range(i, j):
                blank(text[k])
            i = j
        elif ch == '"' or (
            ch == "R" and text[i : i + 2] == 'R"'
        ):
            if ch == "R":
                m = re.match(r'R"([^()\\ \t\n]{0,16})\(', text[i:])
                if m is None:  # not actually a raw string; treat as code
                    emit(ch)
                    i += 1
                    continue
                delim = m.group(1)
                close = ")" + delim + '"'
                body_start = i + len(m.group(0))
                j = text.find(close, body_start)
                j = n if j < 0 else j
                strings.append((line, col, text[body_start:j]))
                end = min(n, j + len(close))
                for k in range(i, end):
                    blank(text[k])
                i = end
            else:
                j = i + 1
                while j < n and text[j] != '"':
                    j += 2 if text[j] == "\\" else 1
                strings.append((line, col, text[i + 1 : j]))
                end = min(n, j + 1)
                for k in range(i, end):
                    blank(text[k])
                i = end
        elif ch == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            # Keep digit separators (1'000'000) as code: a char literal is
            # at most a few chars; a tick between digits is a separator.
            prev = text[i - 1] if i > 0 else ""
            nxt = text[i + 1] if i + 1 < n else ""
            if prev.isdigit() and (nxt.isdigit() or nxt in "abcdefABCDEF"):
                emit(ch)
                i += 1
                continue
            end = min(n, j + 1)
            for k in range(i, end):
                blank(text[k])
            i = end
        else:
            emit(ch)
            i += 1
    return Lexed("".join(out), comments, strings)


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str


@dataclass
class Rule:
    name: str
    doc: str
    # Returns findings given (relpath, lexed). Scoping lives inside check.
    check: Callable[[str, Lexed], list[Finding]]


def _code_lines(lx: Lexed) -> Iterable[tuple[int, str]]:
    return enumerate(lx.code.split("\n"), start=1)


def _in(relpath: str, prefixes: tuple[str, ...]) -> bool:
    return relpath.startswith(prefixes)


# -- determinism: hash containers ------------------------------------------

_UNORDERED_RE = re.compile(r"\bstd::unordered_(?:multi)?(?:map|set)\b")


def check_unordered(relpath: str, lx: Lexed) -> list[Finding]:
    out = []
    for ln, code in _code_lines(lx):
        if _UNORDERED_RE.search(code):
            out.append(
                Finding(
                    relpath,
                    ln,
                    "unordered-container",
                    "hash-container iteration order depends on the "
                    "implementation, not the data; use std::map/std::set "
                    "(or sort before producing results)",
                )
            )
    return out


# -- determinism: random sources -------------------------------------------

_RANDOM_RES = [
    (re.compile(r"\bstd::rand\b|(?<![\w:.])rand\s*\("), "std::rand"),
    (re.compile(r"(?<![\w:.])srand\s*\("), "srand"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (
        re.compile(r"(?<![\w:.])time\s*\(\s*(?:NULL|0|nullptr)\s*\)"),
        "wall-clock seed",
    ),
]


def check_raw_random(relpath: str, lx: Lexed) -> list[Finding]:
    if _in(relpath, ("src/util/rng.",)):
        return []  # the sanctioned seed plumbing
    out = []
    for ln, code in _code_lines(lx):
        for rx, what in _RANDOM_RES:
            if rx.search(code):
                out.append(
                    Finding(
                        relpath,
                        ln,
                        "raw-random",
                        f"{what} is nondeterministic; all randomness flows "
                        "from an explicit seed through util::SplitMix64 "
                        "(src/util/rng.hpp)",
                    )
                )
    return out


# -- determinism: pointer-keyed ordering -----------------------------------

_PTRKEY_RE = re.compile(
    r"\bstd::(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?[\w:]+\s*\*"
)


def check_pointer_key(relpath: str, lx: Lexed) -> list[Finding]:
    out = []
    for ln, code in _code_lines(lx):
        if _PTRKEY_RE.search(code):
            out.append(
                Finding(
                    relpath,
                    ln,
                    "pointer-key-order",
                    "ordering keyed on a raw pointer varies run to run "
                    "(addresses are not stable); key on a value instead",
                )
            )
    return out


# -- units: raw unit-suffixed doubles outside boundary layers ---------------

_UNIT_DOUBLE_RE = re.compile(
    r"\bdouble\s+([A-Za-z_][A-Za-z0-9_]*_(?:s|j|hz|w|ms|us|ns))\b"
)

# The sanctioned raw-double boundaries: dimensional plumbing itself,
# observability/trace serialization, and out-of-library binaries.
_UNIT_ALLOWED_PREFIXES = (
    "src/util/",
    "src/obs/",
    "src/trace/",
    "tools/",
    "bench/",
    "examples/",
)


def check_unit_double(relpath: str, lx: Lexed) -> list[Finding]:
    if _in(relpath, _UNIT_ALLOWED_PREFIXES):
        return []
    out = []
    for ln, code in _code_lines(lx):
        for m in _UNIT_DOUBLE_RE.finditer(code):
            out.append(
                Finding(
                    relpath,
                    ln,
                    "raw-unit-double",
                    f"'double {m.group(1)}' carries a physical quantity as "
                    "a raw double outside a serialization/CLI/obs boundary; "
                    "use the hepex::q type (src/util/units.hpp)",
                )
            )
    return out


# -- error taxonomy ---------------------------------------------------------

_ABORT_RE = re.compile(r"(?<![\w.:])(?:std::)?abort\s*\(")
_ASSERT_RE = re.compile(r"(?<![\w.:])assert\s*\(")
_THROW_STD_RE = re.compile(r"\bthrow\s+std::([A-Za-z_]+)")


def check_bare_throw(relpath: str, lx: Lexed) -> list[Finding]:
    if relpath == "src/util/error.hpp":
        return []  # the taxonomy implementation itself
    out = []
    str_by_line: dict[int, list[tuple[int, str]]] = {}
    for sl, sc, sv in lx.strings:
        str_by_line.setdefault(sl, []).append((sc, sv))
    for ln, code in _code_lines(lx):
        if _ABORT_RE.search(code):
            out.append(
                Finding(
                    relpath,
                    ln,
                    "bare-throw",
                    "abort() bypasses the error taxonomy (no message, no "
                    "exit-code contract); use util::fail_assert",
                )
            )
        if _ASSERT_RE.search(code):
            out.append(
                Finding(
                    relpath,
                    ln,
                    "bare-throw",
                    "assert() vanishes under NDEBUG; invariants use "
                    "util::fail_assert / HEPEX_ASSERT",
                )
            )
        for m in _THROW_STD_RE.finditer(code):
            ty = m.group(1)
            if ty in ("invalid_argument", "logic_error"):
                out.append(
                    Finding(
                        relpath,
                        ln,
                        "bare-throw",
                        f"raw 'throw std::{ty}' bypasses the taxonomy; "
                        "user-input failures use util::fail_require, "
                        "invariants util::fail_assert (src/util/error.hpp)",
                    )
                )
            elif ty == "runtime_error":
                lits = [
                    sv
                    for sc, sv in str_by_line.get(ln, [])
                    if sc >= m.start()
                ]
                if lits and not lits[0].startswith("hepex"):
                    out.append(
                        Finding(
                            relpath,
                            ln,
                            "bare-throw",
                            "std::runtime_error messages must start with "
                            "'hepex: ' so operators can attribute the "
                            "failure (util/error.hpp taxonomy)",
                        )
                    )
            else:
                out.append(
                    Finding(
                        relpath,
                        ln,
                        "bare-throw",
                        f"'throw std::{ty}' is outside the error taxonomy "
                        "(fail_require / fail_assert / prefixed "
                        "runtime_error)",
                    )
                )
    return out


# -- schema literal registry ------------------------------------------------

_SCHEMA_RE = re.compile(r"hepex-[a-z0-9-]+/[0-9]+")


def check_schema_literal(relpath: str, lx: Lexed) -> list[Finding]:
    if relpath == "src/util/schemas.hpp":
        return []  # the one sanctioned spelling site
    out = []
    for sl, _sc, sv in lx.strings:
        for m in _SCHEMA_RE.finditer(sv):
            out.append(
                Finding(
                    relpath,
                    sl,
                    "schema-literal",
                    f'schema identifier "{m.group(0)}" spelled as a '
                    "literal; reference util::schemas::k* "
                    "(src/util/schemas.hpp) instead",
                )
            )
    return out


# -- sim hot path: raw heap allocation --------------------------------------

_MAKE_SMART_RE = re.compile(r"\bstd::make_(?:unique|shared)\b")
_NEW_RE = re.compile(r"\bnew\b")


def check_sim_alloc(relpath: str, lx: Lexed) -> list[Finding]:
    if not _in(relpath, ("src/sim/",)):
        return []
    out = []
    for ln, code in _code_lines(lx):
        if code.lstrip().startswith("#"):
            continue  # preprocessor (#include <new>)
        if _MAKE_SMART_RE.search(code):
            out.append(
                Finding(
                    relpath,
                    ln,
                    "sim-hot-path-alloc",
                    "std::make_unique/make_shared heap-allocates on the "
                    "simulator hot path; keep state in a standard "
                    "container that grows outside the event loop",
                )
            )
        for m in _NEW_RE.finditer(code):
            before = code[: m.start()].rstrip()
            after = code[m.end() :].lstrip()
            if before.endswith("operator"):
                # operator new call (or overload): a raw allocation.
                out.append(
                    Finding(
                        relpath,
                        ln,
                        "sim-hot-path-alloc",
                        "operator new in src/sim breaks the "
                        "zero-allocation steady-state contract; let a "
                        "standard container own the memory",
                    )
                )
            elif after.startswith("("):
                # Placement new into an existing cell -- how actions are
                # parked; allocates nothing. (new (std::nothrow) slips
                # through this textual heuristic; nobody writes it here.)
                continue
            else:
                out.append(
                    Finding(
                        relpath,
                        ln,
                        "sim-hot-path-alloc",
                        "raw new on the simulator hot path; the event "
                        "engine promises zero operator-new calls per event "
                        "-- use a standard container, or placement new "
                        "into storage it already owns",
                    )
                )
    return out


RULES: list[Rule] = [
    Rule(
        "unordered-container",
        "no std::unordered_{map,set} (iteration order nondeterminism)",
        check_unordered,
    ),
    Rule(
        "raw-random",
        "no std::rand/random_device/wall-clock seeds outside util::rng",
        check_raw_random,
    ),
    Rule(
        "pointer-key-order",
        "no std::map/std::set keyed on raw pointers",
        check_pointer_key,
    ),
    Rule(
        "raw-unit-double",
        "no unit-suffixed raw double members/params outside boundaries",
        check_unit_double,
    ),
    Rule(
        "bare-throw",
        "no abort/assert/raw std throws outside the error taxonomy",
        check_bare_throw,
    ),
    Rule(
        "schema-literal",
        'every "hepex-*/N" literal lives in src/util/schemas.hpp',
        check_schema_literal,
    ),
    Rule(
        "sim-hot-path-alloc",
        "no raw new/make_unique/make_shared in src/sim",
        check_sim_alloc,
    ),
]

RULE_NAMES = {r.name for r in RULES}

# --------------------------------------------------------------------------
# Suppressions
# --------------------------------------------------------------------------

_ALLOW_RE = re.compile(
    r"hepex-lint:\s*allow(?P<scope>-file)?\((?P<rule>[a-z-]+)\)(?P<just>.*)"
)
_FILE_WAIVER_WINDOW = 40


@dataclass
class Suppressions:
    by_line: dict[int, set[str]] = field(default_factory=dict)  # line -> rules
    file_wide: set[str] = field(default_factory=set)
    errors: list[Finding] = field(default_factory=list)


def parse_suppressions(relpath: str, lx: Lexed) -> Suppressions:
    sup = Suppressions()
    for ln, comment in sorted(lx.comments.items()):
        for m in _ALLOW_RE.finditer(comment):
            rule = m.group("rule")
            just = m.group("just").strip().rstrip("*/").strip()
            if rule not in RULE_NAMES:
                sup.errors.append(
                    Finding(
                        relpath,
                        ln,
                        "unjustified-suppression",
                        f"suppression names unknown rule '{rule}' "
                        f"(known: {', '.join(sorted(RULE_NAMES))})",
                    )
                )
                continue
            if not just:
                sup.errors.append(
                    Finding(
                        relpath,
                        ln,
                        "unjustified-suppression",
                        f"allow({rule}) without a justification; write "
                        "why the rule does not apply here — the "
                        "suppression is ignored until it says",
                    )
                )
                continue
            if m.group("scope"):
                if ln <= _FILE_WAIVER_WINDOW:
                    sup.file_wide.add(rule)
                else:
                    sup.errors.append(
                        Finding(
                            relpath,
                            ln,
                            "unjustified-suppression",
                            f"allow-file({rule}) must appear in the first "
                            f"{_FILE_WAIVER_WINDOW} lines, where readers "
                            "look for file-wide waivers",
                        )
                    )
            else:
                # Covers the comment's own line and the next code line.
                sup.by_line.setdefault(ln, set()).add(rule)
                sup.by_line.setdefault(ln + 1, set()).add(rule)
    return sup


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def lint_text(relpath: str, text: str) -> list[Finding]:
    """Lint one file's contents; relpath controls rule scoping."""
    lx = lex(text)
    sup = parse_suppressions(relpath, lx)
    findings: list[Finding] = list(sup.errors)
    for rule in RULES:
        for f in rule.check(relpath, lx):
            if f.rule in sup.file_wide:
                continue
            if f.rule in sup.by_line.get(f.line, set()):
                continue
            findings.append(f)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def lint_file(root: str, relpath: str) -> list[Finding]:
    try:
        with open(os.path.join(root, relpath), encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        return [Finding(relpath, 0, "io-error", str(e))]
    return lint_text(relpath, text)


_SCAN_DIRS = ("src", "tools", "bench", "examples")
_EXTS = (".hpp", ".cpp", ".h", ".cc")


def collect_files(root: str, build_dir: str | None) -> list[str]:
    files: set[str] = set()
    for d in _SCAN_DIRS:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, _dirs, names in os.walk(top):
            for name in names:
                if name.endswith(_EXTS):
                    files.add(
                        os.path.relpath(os.path.join(dirpath, name), root)
                    )
    if build_dir:
        # Compile-DB awareness: any TU the build actually compiles is in
        # scope even if it lives outside the conventional directories.
        db_path = os.path.join(build_dir, "compile_commands.json")
        try:
            with open(db_path, encoding="utf-8") as fh:
                db = json.load(fh)
        except FileNotFoundError:
            print(
                f"hepex_lint: error: no compile_commands.json in "
                f"{build_dir}; configure the build first "
                "(cmake -B build -S .) or drop --build-dir",
                file=sys.stderr,
            )
            raise SystemExit(2)
        except json.JSONDecodeError as e:
            print(
                f"hepex_lint: error: {db_path} is not valid JSON: {e}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        for entry in db:
            src = entry.get("file", "")
            if not os.path.isabs(src):
                src = os.path.join(entry.get("directory", ""), src)
            rel = os.path.relpath(os.path.realpath(src), root)
            if rel.startswith(("..", "tests" + os.sep)):
                continue  # outside the repo, or test code (exempt)
            if rel.startswith("build"):
                continue  # generated TUs
            if os.path.exists(os.path.join(root, rel)):
                files.add(rel)
    return sorted(files)


def run_lint(args: argparse.Namespace) -> int:
    root = os.path.abspath(args.source_dir)
    files = collect_files(root, args.build_dir)
    if not files:
        print("hepex_lint: error: nothing to lint under "
              f"{root} ({'/'.join(_SCAN_DIRS)})", file=sys.stderr)
        return 2
    findings: list[Finding] = []
    with concurrent.futures.ThreadPoolExecutor(
        max_workers=max(1, args.jobs)
    ) as pool:
        for result in pool.map(lambda p: lint_file(root, p), files):
            findings.extend(result)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    if findings:
        print(
            f"hepex_lint: {len(findings)} finding(s) in "
            f"{len({f.path for f in findings})} file(s) "
            f"({len(files)} scanned)",
            file=sys.stderr,
        )
        return 1
    if not args.quiet:
        print(f"hepex_lint: clean ({len(files)} files)")
    return 0


# --------------------------------------------------------------------------
# Self-test over the committed fixtures: every rule must fire on its
# fixture, the clean fixture must pass, justified suppressions must
# silence, unjustified ones must be rejected. Registered as a ctest so the
# wall itself is under test.
# --------------------------------------------------------------------------

_EXPECT_RE = re.compile(r"hepex-lint-fixture-expect:\s*(.*)")


def run_self_test(args: argparse.Namespace) -> int:
    root = os.path.abspath(args.source_dir)
    fixture_dir = os.path.join(root, "tests", "tools", "fixtures")
    if not os.path.isdir(fixture_dir):
        print(f"hepex_lint: error: no fixture dir {fixture_dir}",
              file=sys.stderr)
        return 2
    names = sorted(
        n for n in os.listdir(fixture_dir) if n.endswith(_EXTS)
    )
    if not names:
        print(f"hepex_lint: error: no fixtures in {fixture_dir}",
              file=sys.stderr)
        return 2
    failures = 0
    fired: set[str] = set()
    for name in names:
        path = os.path.join(fixture_dir, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        m = _EXPECT_RE.search(text)
        if m is None:
            print(f"FAIL {name}: missing 'hepex-lint-fixture-expect:' header")
            failures += 1
            continue
        spec = m.group(1).strip()
        expected = (
            set()
            if spec == "none"
            else {r.strip() for r in spec.split(",") if r.strip()}
        )
        # Fixtures are linted as-if in the strictest scope (src core
        # code); a "sim_" name prefix maps into src/sim/ so the
        # hot-path-allocation rule's scoping is exercised too.
        scope = "src/sim" if name.startswith("sim_") else "src/core"
        got_findings = lint_text(f"{scope}/{name}", text)
        got = {f.rule for f in got_findings}
        fired |= got
        if got == expected:
            print(f"ok   {name}: {spec}")
        else:
            failures += 1
            print(f"FAIL {name}: expected {{{spec or 'none'}}}, got "
                  f"{{{', '.join(sorted(got)) or 'none'}}}")
            for f in got_findings:
                print(f"     {f.path}:{f.line}: [{f.rule}] {f.message}")
    never_fired = RULE_NAMES - fired
    if never_fired:
        failures += 1
        print(f"FAIL coverage: no fixture fires {sorted(never_fired)}")
    if failures:
        print(f"hepex_lint --self-test: {failures} failure(s)",
              file=sys.stderr)
        return 1
    print(f"hepex_lint --self-test: {len(names)} fixtures, "
          f"all {len(RULE_NAMES)} rules exercised")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="hepex_lint", description=__doc__.split("\n", 1)[0]
    )
    ap.add_argument("--source-dir", default=".",
                    help="repo root (default: cwd)")
    ap.add_argument("--build-dir", default=None,
                    help="build tree; extends scope to every TU in its "
                         "compile_commands.json")
    ap.add_argument("-j", "--jobs", type=int, default=os.cpu_count() or 1,
                    help="parallel file scans (default: cpu count)")
    ap.add_argument("--quiet", action="store_true",
                    help="no output when clean")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule table and exit")
    ap.add_argument("--self-test", action="store_true",
                    help="check the committed fixtures instead of the tree")
    args = ap.parse_args(argv)
    if args.list_rules:
        for r in RULES:
            print(f"{r.name:20} {r.doc}")
        return 0
    if args.self_test:
        return run_self_test(args)
    return run_lint(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
