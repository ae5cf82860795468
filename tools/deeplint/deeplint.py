#!/usr/bin/env python3
"""deeplint: the repo's one C++ lint driver.

deeplint resolves scopes and (with the libclang backend) types for every
translation unit listed in compile_commands.json, and enforces the repo's
lifetime, deferred-execution and determinism contracts (rule semantics:
DESIGN.md §17, tools/deeplint/rules.py, tools/deeplint/textrules.py):

  view-lifetime     no string_view/span into a temporary or into a
                    container that reallocates while the view is live
  dangling-capture  no by-reference capture of frame locals in callables
                    handed to the event scheduler
  inline-budget     scheduled callables must fit the 192 B inline arena
                    slab (pairs with sim::assert_inline<F>() at the site)
  epoch-fence       SetApMap/WriteApMap only via bump-then-write helpers
  wall-clock        no wall-clock time source; use the simulated clock
  raw-random        no randomness outside splitft::Rng (src/common/rng.*)
  unordered-iter    no range-for over an unordered container
  metric-name       metric/span name literals follow layer.component.metric
  status-discard    no bare (void) cast of a call; use
                    DiscardStatus(obs, expr, "where") or CHECK_OK(expr)
  stale-allow       a suppression whose rule no longer fires on that line
                    is itself a finding

The first four rules read the IR; the five determinism rules read only
the comment/literal-stripped text, so both backends report them alike.

Backends:

  clang   clang.cindex over compile_commands.json — full type resolution.
          Used automatically when the clang Python bindings and a
          libclang shared object are importable.
  lite    a self-contained token/scope micro-frontend (tools/deeplint/
          model.py). No dependencies beyond Python 3. The rule engine is
          shared, so both backends enforce identical contracts; the
          fixture self-test pins the lite backend's behavior.

Suppressions (reason text mandatory by convention):

  // deeplint: allow(rule) reason        -- same line or the line above
  // deeplint: allow-file(rule) reason   -- whole file, any line

Usage:

  tools/deeplint/deeplint.py [--compile-commands build/compile_commands.json]
                             [--json FILE] [--backend auto|lite|clang]
                             [path...]
  tools/deeplint/deeplint.py --self-test

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import json
import os
import re
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(_HERE))  # allow `import deeplint.*`

from deeplint import model  # noqa: E402
from deeplint import rules  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(_HERE))
DEFAULT_ROOTS = ("src", "bench", "tests")
FIXTURE_DIR = os.path.join(REPO_ROOT, "tools", "deeplint_fixtures")
CXX_EXTENSIONS = (".cc", ".h")

_ALLOW = re.compile(r"//\s*deeplint:\s*allow\(([a-z-]+)\)")
_ALLOW_FILE = re.compile(r"//\s*deeplint:\s*allow-file\(([a-z-]+)\)")
_EXPECT = re.compile(r"//\s*deeplint-expect:\s*([a-z-]+)")

# Authoritative inline-callable capacity: read from the arena header so the
# inline-budget rule cannot drift from the simulator.
_INLINE_CONST = re.compile(r"kEventInlineBytes\s*=\s*(\d+)")


def read_inline_budget():
    path = os.path.join(REPO_ROOT, "src", "sim", "event_queue.h")
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            m = _INLINE_CONST.search(f.read())
            if m:
                return int(m.group(1))
    except OSError:
        pass
    return rules.DEFAULT_INLINE_BUDGET


class Finding:
    def __init__(self, path, line, rule, message, backend):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.backend = backend

    def __str__(self):
        rel = os.path.relpath(self.path, REPO_ROOT)
        return "%s:%d: [%s] %s" % (rel, self.line, self.rule, self.message)

    def as_json(self):
        return {
            "file": os.path.relpath(self.path, REPO_ROOT).replace(os.sep, "/"),
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "backend": self.backend,
        }


def collect_suppressions(raw_lines):
    """Returns (file_allows, line_allows, unknown-rule findings).
    file_allows: {rule: first_lineno}; line_allows: {lineno: {rule}}."""
    file_allows = {}
    line_allows = {}
    bad = []
    for lineno, line in enumerate(raw_lines, 1):
        for m in _ALLOW_FILE.finditer(line):
            if m.group(1) not in rules.RULES:
                bad.append((lineno, m.group(1)))
            else:
                file_allows.setdefault(m.group(1), lineno)
        for m in _ALLOW.finditer(line):
            if "allow-file" in m.group(0):
                continue
            if m.group(1) not in rules.RULES:
                bad.append((lineno, m.group(1)))
            else:
                line_allows.setdefault(lineno, set()).add(m.group(1))
    return file_allows, line_allows, bad


def lint_file(path, ctx, backend, text=None):
    """Lints one file. Returns a list of Finding (post-suppression,
    including stale-allow findings)."""
    if text is None:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    raw_lines = text.split("\n")
    file_allows, line_allows, bad_rules = collect_suppressions(raw_lines)

    backend_name = "lite"
    file_ir = None
    if backend.clang_index is not None:
        file_ir = backend.lower_with_clang(path, text)
        if file_ir is not None:
            backend_name = "clang"
    if file_ir is None:
        file_ir = model.lower_file(path, text)

    raw = rules.run_rules(file_ir, ctx)

    findings = []
    for lineno, rule in bad_rules:
        findings.append(Finding(
            path, lineno, "suppression",
            "unknown rule '%s' in deeplint suppression (known: %s)"
            % (rule, ", ".join(rules.RULES)), backend_name))

    def suppressed(rule, lineno):
        return rule in file_allows or any(
            rule in line_allows.get(at, ()) for at in (lineno, lineno - 1))

    fired = {}
    for f in raw:
        fired.setdefault(f.rule, set()).add(f.line)
        if not suppressed(f.rule, f.line):
            findings.append(Finding(path, f.line, f.rule, f.message,
                                    backend_name))

    # stale-allow: a suppression comment for a rule that no longer fires
    # where the comment applies. allow(r) at line A covers findings at A
    # and A+1; allow-file(r) covers the whole file. allow(stale-allow)
    # entries are themselves exempt (no recursion).
    dead = [(lineno, rule, "allow(%s) no longer matches a [%s] finding on "
             "this line") for lineno, ruleset in line_allows.items()
            for rule in ruleset
            if not fired.get(rule, set()) & {lineno, lineno + 1}]
    dead += [(lineno, rule, "allow-file(%s) no longer matches any [%s] "
              "finding in this file") for rule, lineno in file_allows.items()
             if rule not in fired]
    for lineno, rule, what in sorted(dead):
        if rule == "stale-allow" or suppressed("stale-allow", lineno):
            continue
        findings.append(Finding(
            path, lineno, "stale-allow", "deeplint suppression " +
            what % (rule, rule) + " — delete the stale allow", backend_name))
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


# ---------------------------------------------------------------------------
# TU enumeration
# ---------------------------------------------------------------------------


def repo_files_from_compile_commands(cc_path):
    """Translation units from compile_commands.json that live under the
    repo's lintable roots, plus every header under those roots (headers
    hold templates and inline hot paths; they get linted standalone)."""
    with open(cc_path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    files = set()
    for e in entries:
        p = os.path.normpath(os.path.join(e.get("directory", ""), e["file"]))
        rel = os.path.relpath(p, REPO_ROOT)
        if not rel.startswith("..") and rel.split(os.sep)[0] in DEFAULT_ROOTS:
            files.add(p)
    for root in DEFAULT_ROOTS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO_ROOT,
                                                                 root)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".h"):
                    files.add(os.path.join(dirpath, name))
    return sorted(files)


def iter_cxx_files(paths):
    for p in paths:
        if os.path.isfile(p):
            yield p
        elif os.path.isdir(p):
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(CXX_EXTENSIONS):
                        yield os.path.join(dirpath, name)
        else:
            raise FileNotFoundError(p)


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------


class Backend:
    """Holds the (optional) libclang index. lint_file falls back to the
    lite micro-frontend per file whenever clang lowering is unavailable or
    fails, so a partial clang install degrades instead of erroring."""

    def __init__(self, mode, compile_commands):
        self.mode = mode
        self.clang_index = None
        self.compile_db = None
        if mode in ("auto", "clang"):
            try:
                from deeplint import clang_backend
                self._cb = clang_backend
                self.clang_index, self.compile_db = clang_backend.load(
                    compile_commands)
            except Exception as e:  # noqa: BLE001 - any import/dlopen error
                if mode == "clang":
                    raise SystemExit(
                        "deeplint: --backend clang requested but libclang "
                        "is unavailable: %s" % e)
                self.clang_index = None

    def lower_with_clang(self, path, text):
        try:
            return self._cb.lower_file(self.clang_index, self.compile_db,
                                       path, text)
        except Exception:  # noqa: BLE001 - degrade to lite on any failure
            return None


# ---------------------------------------------------------------------------
# Self-test over tools/deeplint_fixtures/
# ---------------------------------------------------------------------------


def self_test():
    """Lints every fixture (lite backend — the one guaranteed everywhere)
    against `// deeplint-expect: rule` markers, and requires a positive
    AND a suppressed case per rule."""
    if not os.path.isdir(FIXTURE_DIR):
        print("deeplint --self-test: missing fixture dir %s" % FIXTURE_DIR)
        return 2
    ctx = rules.RuleContext(
        string_returners=frozenset(("Encode", "BuildName")),
        inline_budget=read_inline_budget())
    backend = Backend("lite", None)
    failures = []
    expected_rules_seen = set()
    suppression_rules_seen = set()
    fixtures = sorted(
        os.path.join(FIXTURE_DIR, f)
        for f in os.listdir(FIXTURE_DIR)
        if f.endswith(CXX_EXTENSIONS))
    if not fixtures:
        print("deeplint --self-test: no fixtures in %s" % FIXTURE_DIR)
        return 2
    for path in fixtures:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
        expected = set()
        for lineno, line in enumerate(text.split("\n"), 1):
            for m in _EXPECT.finditer(line):
                expected.add((lineno, m.group(1)))
                expected_rules_seen.add(m.group(1))
        for m in _ALLOW.finditer(text):
            if "allow-file" not in m.group(0):
                suppression_rules_seen.add(m.group(1))
        for m in _ALLOW_FILE.finditer(text):
            suppression_rules_seen.add(m.group(1))
        got = {(f.line, f.rule) for f in lint_file(path, ctx, backend, text)}
        rel = os.path.relpath(path, REPO_ROOT)
        for line, rule in sorted(expected - got):
            failures.append("%s:%d: expected a [%s] finding, got none"
                            % (rel, line, rule))
        for line, rule in sorted(got - expected):
            failures.append("%s:%d: unexpected [%s] finding" % (rel, line,
                                                                rule))
    for rule in rules.RULES:
        if rule not in expected_rules_seen:
            failures.append("fixtures have no positive case for rule [%s]"
                            % rule)
        if rule not in suppression_rules_seen:
            failures.append("fixtures have no suppressed case for rule [%s]"
                            % rule)
    if failures:
        print("deeplint --self-test FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print("deeplint --self-test: %d fixtures, all %d rules covered "
          "(positive + suppressed)" % (len(fixtures), len(rules.RULES)))
    return 0


# ---------------------------------------------------------------------------


def main(argv):
    ap = argparse.ArgumentParser(prog="deeplint", add_help=True)
    ap.add_argument("--compile-commands", metavar="FILE",
                    help="compile_commands.json (TU list + flags for the "
                         "clang backend); without it, src/ bench/ tests/ "
                         "are walked directly")
    ap.add_argument("--json", metavar="FILE",
                    help="also write findings as a JSON array (CI artifact)")
    ap.add_argument("--backend", choices=("auto", "lite", "clang"),
                    default="auto")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("paths", nargs="*")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()

    cc = args.compile_commands
    if cc and not os.path.exists(cc):
        print("deeplint: compile_commands not found at %s; "
              "walking default roots instead" % cc)
        cc = None

    try:
        if args.paths:
            files = sorted(set(iter_cxx_files(args.paths)))
        elif cc:
            files = repo_files_from_compile_commands(cc)
        else:
            files = sorted(set(iter_cxx_files(
                os.path.join(REPO_ROOT, r) for r in DEFAULT_ROOTS)))
    except FileNotFoundError as e:
        print("deeplint: no such file or directory: %s" % e)
        return 2

    backend = Backend(args.backend if args.backend != "lite" else "lite", cc)
    ctx = rules.RuleContext(
        string_returners=model.index_string_returners(files),
        inline_budget=read_inline_budget())

    findings = []
    for path in files:
        findings.extend(lint_file(path, ctx, backend))

    for f in findings:
        print(f)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump({"tool": "deeplint", "findings":
                       [f.as_json() for f in findings]}, out, indent=2,
                      sort_keys=True)
            out.write("\n")
    mode = "clang" if backend.clang_index is not None else "lite"
    if findings:
        print("deeplint[%s]: %d finding(s) in %d file(s) checked"
              % (mode, len(findings), len(files)))
        return 1
    print("deeplint[%s]: clean (%d files checked)" % (mode, len(files)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
