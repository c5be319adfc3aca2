#!/usr/bin/env python3
"""House lint for the us3d codebase. Stdlib-only, no third-party deps.

Six checks, each enforcing an invariant the compilers cannot:

  trace-literal   US3D_TRACE_SPAN / US3D_TRACE_INSTANT store their name
                  and key arguments as `const char*` without copying
                  (obs::SpanRecord), so the name (arg 0) and every key
                  (odd args) MUST be string literals with static storage,
                  and arguments must come in name + (key, value) pairs.

  event-literal   US3D_EVENT_DEBUG/INFO/WARN/ERROR store their name and
                  argument keys as `const char*` without copying
                  (obs::EventRecord), so the name (arg 0) and the two
                  optional argument keys (args 4 and 6) MUST be string
                  literals. The detail string (arg 3) only needs static
                  storage — expressions like policy_name(p) are fine —
                  but the arity must match the emit_event signature:
                  name, then optionally session, sequence, detail and up
                  to two (key, value) pairs.

  no-fma          DAS kernel translation units must not contract
                  multiply-add: bit-exactness across scalar / SSE2 /
                  AVX2 / AVX-512 / NEON backends depends on every
                  backend computing `acc += w * gather` with the same
                  two-rounding sequence. std::fma and FMA intrinsics
                  round once and would fork the backends' results. The
                  ban covers the x86 _mm*fmadd/fnmadd families AND the
                  NEON vfma*/vmla*/vmlal* mnemonics (the latter also
                  chain the accumulate past the quantized contract's
                  interleaved arithmetic shift).

  no-raw-mutex    src/ code must lock through us3d::Mutex / MutexLock /
                  CondVar (common/annotated_mutex.h) so Clang's
                  -Wthread-safety analysis sees every acquisition. Raw
                  std::mutex & friends are invisible to the analysis.

  json-contract   Any file that defines both a to_json emitter and a
                  strict from_json reader must parse every key it emits:
                  the readers reject unknown fields, so an emitted key
                  missing from the reader breaks round-tripping.

  raw-hot-path    The delay block paths (do_compute_block and
                  steer_compute_block bodies in src/delay/) run on raw
                  integer words resolved at construction (fx::Requantize,
                  fx::RoundShift, FixedPwlSqrt::evaluate_raw, SteerAdder).
                  fx::add/sub/mul, Value::from_raw and round_real_to_int
                  are the per-delay format emulation those paths replaced;
                  they belong in the per-point compute() oracles only.

Usage:
  python3 tools/lint_us3d.py [--root DIR]   # lint the repo, exit 1 on findings
  python3 tools/lint_us3d.py --self-test    # run the checks on the fixtures
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------------
# Source text preparation


def strip_comments(text):
    """Remove // and /* */ comments, preserving line structure and strings."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '"' or c == "'":
            quote = c
            out.append(c)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i : i + 2])
                    i += 2
                    continue
                out.append(text[i])
                i += 1
            if i < n:
                out.append(quote)
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_strings(text):
    """Empty out string/char literal bodies (quotes stay), keep lines."""

    def blank(match):
        return '""'

    # Handles escaped quotes; multi-line raw strings are not used in-tree.
    text = re.sub(r'"(?:[^"\\\n]|\\.)*"', blank, text)
    text = re.sub(r"'(?:[^'\\\n]|\\.)*'", "''", text)
    return text


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


# --------------------------------------------------------------------------
# Check 1: trace macro arguments

TRACE_MACRO = re.compile(r"\bUS3D_TRACE_(?:SPAN|INSTANT)\s*\(")


def split_macro_args(text, open_paren):
    """Split the balanced argument list starting after `(` at open_paren.

    Returns (args, end_index) or (None, open_paren) when unbalanced.
    """
    args, depth, i, n = [], 1, open_paren + 1, len(text)
    current = []
    while i < n and depth > 0:
        c = text[i]
        if c == '"' or c == "'":
            quote = c
            current.append(c)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    current.append(text[i : i + 2])
                    i += 2
                    continue
                current.append(text[i])
                i += 1
            if i < n:
                current.append(quote)
                i += 1
            continue
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append("".join(current).strip())
                return args, i
        elif c == "," and depth == 1:
            args.append("".join(current).strip())
            current = []
            i += 1
            continue
        current.append(c)
        i += 1
    return None, open_paren


def check_trace_literals(path, text):
    findings = []
    clean = strip_comments(text)
    for match in TRACE_MACRO.finditer(clean):
        line = line_of(clean, match.start())
        # The macro definitions themselves (#define US3D_TRACE_SPAN(...))
        # are not call sites.
        line_start = clean.rfind("\n", 0, match.start()) + 1
        if clean[line_start : match.start()].lstrip().startswith("#"):
            continue
        args, _ = split_macro_args(clean, match.end() - 1)
        if args is None:
            findings.append((path, line, "unbalanced trace macro arguments"))
            continue
        if not args or not args[0]:
            findings.append((path, line, "trace macro needs a name argument"))
            continue
        if not args[0].startswith('"'):
            findings.append(
                (path, line,
                 "trace name must be a string literal, got `%s` "
                 "(SpanRecord keeps the pointer, not a copy)" % args[0]))
        if len(args) % 2 == 0:
            findings.append(
                (path, line,
                 "trace macro takes a name plus (key, value) pairs; got %d "
                 "arguments" % len(args)))
        for k in range(1, len(args), 2):
            if not args[k].startswith('"'):
                findings.append(
                    (path, line,
                     "trace key %d must be a string literal, got `%s`" %
                     (k, args[k])))
    return findings


# --------------------------------------------------------------------------
# Check 2: event macro arguments

EVENT_MACRO = re.compile(r"\bUS3D_EVENT_(?:DEBUG|INFO|WARN|ERROR)\s*\(")

# Argument positions after the severity is folded into the macro name:
# 0 name, 1 session, 2 sequence, 3 detail, 4 key1, 5 val1, 6 key2, 7 val2.
EVENT_KEY_POSITIONS = (4, 6)
EVENT_VALID_ARITIES = (1, 2, 3, 4, 6, 8)


def check_event_literals(path, text):
    findings = []
    clean = strip_comments(text)
    for match in EVENT_MACRO.finditer(clean):
        line = line_of(clean, match.start())
        # The macro definitions themselves (#define US3D_EVENT_WARN(...))
        # are not call sites.
        line_start = clean.rfind("\n", 0, match.start()) + 1
        if clean[line_start : match.start()].lstrip().startswith("#"):
            continue
        args, _ = split_macro_args(clean, match.end() - 1)
        if args is None:
            findings.append((path, line, "unbalanced event macro arguments"))
            continue
        if not args or not args[0]:
            findings.append((path, line, "event macro needs a name argument"))
            continue
        if not args[0].startswith('"'):
            findings.append(
                (path, line,
                 "event name must be a string literal, got `%s` "
                 "(EventRecord keeps the pointer, not a copy)" % args[0]))
        if len(args) not in EVENT_VALID_ARITIES:
            findings.append(
                (path, line,
                 "event macro takes name[, session[, sequence[, detail"
                 "[, key, value[, key, value]]]]]; got %d arguments" %
                 len(args)))
        for k in EVENT_KEY_POSITIONS:
            if k < len(args) and not args[k].startswith('"'):
                findings.append(
                    (path, line,
                     "event argument key %d must be a string literal, "
                     "got `%s`" % (k, args[k])))
    return findings


# --------------------------------------------------------------------------
# Check 3: FMA contraction in DAS kernel TUs

FMA_TOKEN = re.compile(
    r"\b(?:std::fma[fl]?|fmaf?|__builtin_fma[fl]?"
    r"|_mm\d*_(?:mask_|maskz_)?fn?m(?:add|sub)[a-z0-9_]*"
    r"|vfma[a-z0-9_]*|vmla[a-z0-9_]*)\b")


def check_no_fma(path, text):
    findings = []
    clean = strip_strings(strip_comments(text))
    for match in FMA_TOKEN.finditer(clean):
        findings.append(
            (path, line_of(clean, match.start()),
             "`%s` in a DAS kernel TU: fused multiply-add rounds once and "
             "breaks cross-backend bit-exactness" % match.group(0)))
    return findings


# --------------------------------------------------------------------------
# Check 4: raw std synchronisation primitives outside annotated_mutex.h

RAW_MUTEX = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|condition_variable"
    r"|condition_variable_any|lock_guard|unique_lock|scoped_lock)\b")


def check_no_raw_mutex(path, text):
    findings = []
    clean = strip_strings(strip_comments(text))
    for match in RAW_MUTEX.finditer(clean):
        findings.append(
            (path, line_of(clean, match.start()),
             "`%s` bypasses the annotated us3d::Mutex wrappers "
             "(common/annotated_mutex.h); -Wthread-safety cannot see it" %
             match.group(0)))
    return findings


# --------------------------------------------------------------------------
# Check 5: to_json keys must round-trip through the strict from_json

EMITTED_KEY = re.compile(r"\.(?:kv(?:_raw)?|key)\(\s*\"([^\"]+)\"")
PARSED_KEY = re.compile(r"key\s*==\s*\"([^\"]+)\"")


def check_json_contract(path, text):
    clean = strip_comments(text)
    if "from_json" not in clean or "to_json" not in clean:
        return []
    parsed = set(PARSED_KEY.findall(clean))
    if not parsed:
        return []  # from_json only mentioned (a call), not implemented here
    findings = []
    for match in EMITTED_KEY.finditer(clean):
        key = match.group(1)
        if key not in parsed:
            findings.append(
                (path, line_of(clean, match.start()),
                 "to_json emits \"%s\" but the strict from_json in this "
                 "file never parses it, so the document cannot round-trip" %
                 key))
    return findings


# --------------------------------------------------------------------------
# Check 6: no fx::Value emulation inside the delay block paths

HOT_PATH_FUNCTION = re.compile(
    r"\b(?:\w+::)*(do_compute_block|steer_compute_block)\s*\(")
HOT_PATH_QUALIFIERS = re.compile(r"\s*(?:(?:const|override|final|noexcept)\b\s*)*")
EMULATION_TOKEN = re.compile(
    r"\bfx::(?:add|sub|mul)\s*\(|\bValue::from_raw\b"
    r"|\bround_real_to_int\b")


def function_bodies(clean, pattern):
    """Yield (name, body_start, body_end) for each definition matching
    `pattern` (a regex ending at the parameter list's `(`); declarations
    and calls (a `;` after the parameter list) are skipped."""
    for match in pattern.finditer(clean):
        _, close = split_macro_args(clean, match.end() - 1)
        if close == match.end() - 1:
            continue  # unbalanced
        after = HOT_PATH_QUALIFIERS.match(clean, close + 1).end()
        if after >= len(clean) or clean[after] != "{":
            continue
        depth, i = 0, after
        while i < len(clean):
            if clean[i] == "{":
                depth += 1
            elif clean[i] == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        yield match.group(1), after, i


def check_raw_hot_path(path, text):
    findings = []
    clean = strip_strings(strip_comments(text))
    for name, start, end in function_bodies(clean, HOT_PATH_FUNCTION):
        for match in EMULATION_TOKEN.finditer(clean, start, end):
            findings.append(
                (path, line_of(clean, match.start()),
                 "`%s` in %s: the delay block path runs on raw words "
                 "resolved at construction; fx::Value emulation belongs "
                 "in the per-point compute() oracle" %
                 (match.group(0).rstrip("( \t"), name)))
    return findings


# --------------------------------------------------------------------------
# Repo scanning

DAS_KERNEL_TU = re.compile(
    r"^src/(?:simd/das_[a-z0-9_]+|beamform/(?:das_kernel|quantized))\.cpp$")
RAW_MUTEX_EXEMPT = "src/common/annotated_mutex.h"


def iter_sources(root, subdirs):
    for subdir in subdirs:
        base = os.path.join(root, subdir)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp")):
                    path = os.path.join(dirpath, name)
                    yield os.path.relpath(path, root).replace(os.sep, "/")


def lint_repo(root):
    findings = []
    for rel in iter_sources(root, ["src", "tests", "bench", "examples"]):
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = f.read()
        findings.extend(check_trace_literals(rel, text))
        findings.extend(check_event_literals(rel, text))
        if DAS_KERNEL_TU.match(rel):
            findings.extend(check_no_fma(rel, text))
        if rel.startswith("src/") and rel != RAW_MUTEX_EXEMPT:
            findings.extend(check_no_raw_mutex(rel, text))
        if rel.startswith("src/"):
            findings.extend(check_json_contract(rel, text))
        if rel.startswith("src/delay/"):
            findings.extend(check_raw_hot_path(rel, text))
    return findings


# --------------------------------------------------------------------------
# Self-test: run each check against the checked-in fixtures. Fixture paths
# do not match the repo scoping rules (they live under tools/), so the
# self-test injects each fixture into the check it exercises directly.

FIXTURES = {
    # fixture file -> (check function, expects_findings)
    "bad_trace_name.cpp": (check_trace_literals, True),
    "bad_event_name.cpp": (check_event_literals, True),
    "bad_fma_kernel.cpp": (check_no_fma, True),
    "bad_neon_fma_kernel.cpp": (check_no_fma, True),
    "bad_raw_mutex.cpp": (check_no_raw_mutex, True),
    "bad_json_contract.cpp": (check_json_contract, True),
    "bad_raw_hot_path.cpp": (check_raw_hot_path, True),
}
ALL_CHECKS = (check_trace_literals, check_event_literals, check_no_fma,
              check_no_raw_mutex, check_json_contract, check_raw_hot_path)


def self_test(root):
    fixture_dir = os.path.join(root, "tools", "lint_fixtures")
    failures = []
    for name, (check, expects) in sorted(FIXTURES.items()):
        path = os.path.join(fixture_dir, name)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        found = check(name, text)
        if expects and not found:
            failures.append("%s: expected findings from %s, got none" %
                            (name, check.__name__))
        if not expects and found:
            failures.append("%s: expected clean, got %r" % (name, found))
    # The clean fixture must pass EVERY check.
    clean_path = os.path.join(fixture_dir, "good_clean.cpp")
    with open(clean_path, encoding="utf-8") as f:
        clean_text = f.read()
    for check in ALL_CHECKS:
        found = check("good_clean.cpp", clean_text)
        if found:
            failures.append("good_clean.cpp: %s flagged %r" %
                            (check.__name__, found))
    if failures:
        for f in failures:
            print("SELF-TEST FAIL:", f)
        return 1
    print("lint_us3d self-test: %d fixtures, all checks behave" %
          (len(FIXTURES) + 1))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the checks against tools/lint_fixtures/")
    opts = parser.parse_args(argv)
    root = opts.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if opts.self_test:
        return self_test(root)
    findings = lint_repo(root)
    for path, line, message in findings:
        print("%s:%d: %s" % (path, line, message))
    if findings:
        print("lint_us3d: %d finding(s)" % len(findings))
        return 1
    print("lint_us3d: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
