#!/usr/bin/env python3
"""Project-rule linter (DESIGN.md §12).

Enforces the repo-specific correctness rules that generic tooling cannot
know about, as a ctest target (label `lint`):

  R1 stats-fold      every field of engine_stats appears in
                     engine_stats::accumulate() — a counter that dodges the
                     fold silently under-reports shard/service accounting.
  R2 poll-at-only    cancellation checkpoints in src/core go through
                     cancel_token::poll_at(site, index); a bare poll()
                     call (executor.hpp, which declares the token, is
                     exempt) would bypass the deterministic fault-site
                     machinery.
  R3 determinism     no nondeterminism sources in src/core: rand/srand,
                     random_device, mt19937, system_clock, std::time, raw
                     clock().  steady_clock is allowed (deadlines measure
                     elapsed time; they never seed decisions).
  R4 no-raw-new      no raw `new` / `delete` expressions in src/core —
                     ownership goes through containers and smart pointers
                     (`= delete` declarations are of course fine).
  R5 include-hygiene headers start with #pragma once; a .cpp includes its
                     own header first; project includes are quoted, never
                     angle-bracketed.
  R6 size-lock       engine.hpp carries the sizeof(engine_stats)
                     static_assert that makes R1 unskippable from C++.

`--self-test` seeds one violation per rule in a scratch tree and asserts
every rule fires — the linter lints itself before it is trusted.
"""

import argparse
import os
import re
import sys
import tempfile

CORE_EXCLUDED_FROM_POLL_RULE = {"executor.hpp"}

NONDETERMINISM = [
    (re.compile(r"\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(_64)?\b"), "std::mt19937"),
    (re.compile(r"\bsystem_clock\b"), "system_clock"),
    (re.compile(r"(\bstd::|[^:\w])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
     "time()"),
]


def strip_code(text):
    """Blank out comments and string/char literals, preserving line
    structure, so token rules never fire on prose or diagnostics."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line"
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                i += 2
                continue
            if c == '"':
                mode = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                mode = "chr"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif mode in ("line", "block"):
            if mode == "line" and c == "\n":
                mode = "code"
                out.append(c)
            elif mode == "block" and c == "*" and nxt == "/":
                mode = "code"
                i += 2
                continue
            elif c == "\n":
                out.append(c)
            i += 1
            continue
        else:  # str / chr
            quote = '"' if mode == "str" else "'"
            if c == "\\":
                i += 2
                continue
            if c == quote:
                mode = "code"
                out.append(c)
            elif c == "\n":
                out.append(c)
            i += 1
            continue
        i += 1
    return "".join(out)


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def core_files(root, exts=(".hpp", ".cpp")):
    core = os.path.join(root, "src", "core")
    for name in sorted(os.listdir(core)):
        if name.endswith(exts):
            yield os.path.join(core, name)


def src_files(root, exts=(".hpp", ".cpp")):
    for dirpath, _dirs, names in os.walk(os.path.join(root, "src")):
        for name in sorted(names):
            if name.endswith(exts):
                yield os.path.join(dirpath, name)


def rel(root, path):
    return os.path.relpath(path, root)


def stats_fields(engine_hpp_text):
    """Field names of struct engine_stats, parsed from the header."""
    m = re.search(r"struct\s+engine_stats\s*\{(.*?)\n\};", engine_hpp_text,
                  re.S)
    if not m:
        return None
    body = m.group(1)
    # Cut the struct body off at the first member function: fields only.
    fn = re.search(r"\n\s*(?:void|engine_stats)\s+\w+\s*\(", body)
    if fn:
        body = body[: fn.start()]
    fields = []
    for line in strip_code(body).splitlines():
        fm = re.match(
            r"\s*(?:int|double|long\s+long|std::\w+|bool|float)\s+"
            r"(\w+)\s*=", line)
        if fm:
            fields.append(fm.group(1))
    return fields


def check_stats_fold(root):
    """R1: every engine_stats field folded in accumulate()."""
    path = os.path.join(root, "src", "core", "engine.hpp")
    text = read(path)
    fields = stats_fields(text)
    if fields is None:
        return [f"{rel(root, path)}: struct engine_stats not found"]
    if not fields:
        return [f"{rel(root, path)}: no engine_stats fields parsed"]
    m = re.search(r"void\s+accumulate\s*\(.*?\)\s*\{(.*?)\n\s*\}", text, re.S)
    if not m:
        return [f"{rel(root, path)}: engine_stats::accumulate() not found"]
    fold = m.group(1)
    out = []
    for f in fields:
        if not re.search(r"\b" + re.escape(f) + r"\b", fold):
            out.append(
                f"{rel(root, path)}: engine_stats field '{f}' is not folded "
                f"in accumulate() — shard/service sums will drop it")
    return out


def check_poll_at_only(root):
    """R2: no bare poll() checkpoints in src/core outside executor.hpp."""
    out = []
    for path in core_files(root):
        if os.path.basename(path) in CORE_EXCLUDED_FROM_POLL_RULE:
            continue
        code = strip_code(read(path))
        for ln, line in enumerate(code.splitlines(), 1):
            if re.search(r"\.\s*poll\s*\(\s*\)", line):
                out.append(
                    f"{rel(root, path)}:{ln}: bare poll() checkpoint — use "
                    f"poll_at(fault_site, index) so fault injection stays "
                    f"deterministic")
    return out


def check_determinism(root):
    """R3: no nondeterminism sources in src/core."""
    out = []
    for path in core_files(root):
        code = strip_code(read(path))
        for ln, line in enumerate(code.splitlines(), 1):
            for pat, what in NONDETERMINISM:
                if pat.search(line):
                    out.append(
                        f"{rel(root, path)}:{ln}: {what} in src/core — "
                        f"results must be deterministic; derive variation "
                        f"from seeds passed in")
    return out


def check_no_raw_new(root):
    """R4: no raw new/delete expressions in src/core."""
    out = []
    for path in core_files(root):
        code = strip_code(read(path))
        for ln, line in enumerate(code.splitlines(), 1):
            if re.search(r"(^|[^\w.])new\s+[A-Za-z_:][\w:<>]*\s*[({\[]",
                         line):
                out.append(
                    f"{rel(root, path)}:{ln}: raw new expression — use "
                    f"std::make_unique / containers")
            stripped = re.sub(r"=\s*delete\b", "", line)
            if re.search(r"(^|[^\w.])delete(\s*\[\s*\])?\s+[A-Za-z_*(]",
                         stripped):
                out.append(
                    f"{rel(root, path)}:{ln}: raw delete expression — "
                    f"ownership belongs in RAII types")
    return out


def check_include_hygiene(root):
    """R5: #pragma once first; own header first in .cpp; project includes
    quoted."""
    out = []
    project_dirs = set()
    src = os.path.join(root, "src")
    for name in os.listdir(src):
        if os.path.isdir(os.path.join(src, name)):
            project_dirs.add(name)
    for path in src_files(root):
        text = read(path)
        name = os.path.basename(path)
        lines = text.splitlines()
        if name.endswith(".hpp"):
            first = next(
                (l.strip() for l in strip_code(text).splitlines()
                 if l.strip()), "")
            if first != "#pragma once":
                out.append(
                    f"{rel(root, path)}:1: header does not start with "
                    f"#pragma once")
        includes = []
        for ln, line in enumerate(lines, 1):
            im = re.match(r'\s*#\s*include\s+([<"])([^>"]+)[>"]', line)
            if im:
                includes.append((ln, im.group(1), im.group(2)))
        for ln, kind, inc in includes:
            top = inc.split("/", 1)[0]
            if kind == "<" and top in project_dirs:
                out.append(
                    f"{rel(root, path)}:{ln}: project include <{inc}> must "
                    f"be quoted")
        if name.endswith(".cpp") and includes:
            own = os.path.splitext(name)[0] + ".hpp"
            own_rel = None
            for _ln, _kind, inc in includes:
                if inc.endswith("/" + own) or inc == own:
                    own_rel = inc
                    break
            if own_rel is not None and not includes[0][2] == own_rel:
                out.append(
                    f"{rel(root, path)}:{includes[0][0]}: own header "
                    f"{own_rel} must be the first include (catches headers "
                    f"that do not stand alone)")
    return out


def check_size_lock(root):
    """R6: the sizeof(engine_stats) static_assert is present."""
    path = os.path.join(root, "src", "core", "engine.hpp")
    text = strip_code(read(path))
    if re.search(r"static_assert\s*\(\s*sizeof\s*\(\s*engine_stats\s*\)", text):
        return []
    return [
        f"{rel(root, path)}: missing static_assert(sizeof(engine_stats)) — "
        f"the size lock is what forces new counters through accumulate()"
    ]


RULES = [
    ("stats-fold", check_stats_fold),
    ("poll-at-only", check_poll_at_only),
    ("determinism", check_determinism),
    ("no-raw-new", check_no_raw_new),
    ("include-hygiene", check_include_hygiene),
    ("size-lock", check_size_lock),
]


def run_lint(root):
    failures = []
    for rule, fn in RULES:
        for msg in fn(root):
            failures.append(f"[{rule}] {msg}")
    return failures


# --------------------------------------------------------------- self-test

ENGINE_HPP_OK = """#pragma once
#include "core/executor.hpp"
struct engine_stats {
    int merges = 0;
    double snake_wire = 0.0;
    void accumulate(const engine_stats& o) {
        merges += o.merges;
        snake_wire += o.snake_wire;
    }
};
static_assert(sizeof(engine_stats) == 16, "lock");
"""


def write_tree(tmp, files):
    for relpath, text in files.items():
        path = os.path.join(tmp, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def expect(failures, rule, why):
    hits = [f for f in failures if f.startswith(f"[{rule}]")]
    if not hits:
        raise AssertionError(f"seeded {why}, but rule {rule} did not fire")
    return hits[0]


def self_test():
    """Seed one violation per rule in a scratch tree; every rule must
    fire, and a clean tree must pass."""
    with tempfile.TemporaryDirectory() as tmp:
        write_tree(tmp, {
            "src/core/engine.hpp": ENGINE_HPP_OK,
            "src/core/executor.hpp": "#pragma once\n",
            "src/core/clean.cpp": '#include "core/clean.hpp"\nint f();\n',
            "src/core/clean.hpp": "#pragma once\nint f();\n",
        })
        clean = run_lint(tmp)
        if clean:
            raise AssertionError(
                "clean scratch tree reported violations:\n  " +
                "\n  ".join(clean))

    cases = {
        "stats-fold": {
            "src/core/engine.hpp": ENGINE_HPP_OK.replace(
                "        snake_wire += o.snake_wire;\n", ""),
        },
        "poll-at-only": {
            "src/core/bad_poll.cpp":
                '#include "core/bad_poll.hpp"\n'
                "void g() { (void)tok.poll(); }\n",
        },
        "determinism": {
            "src/core/bad_rng.cpp":
                '#include "core/bad_rng.hpp"\n'
                "int g() { std::mt19937 r(7); return (int)r(); }\n",
        },
        "no-raw-new": {
            "src/core/bad_new.cpp":
                '#include "core/bad_new.hpp"\n'
                "int* g() { return new int(3); }\n",
        },
        "include-hygiene": {
            "src/core/bad_inc.hpp": "#include <core/engine.hpp>\nint h();\n",
        },
        "size-lock": {
            "src/core/engine.hpp": ENGINE_HPP_OK.replace(
                'static_assert(sizeof(engine_stats) == 16, "lock");\n', ""),
        },
    }
    for rule, seeded in cases.items():
        with tempfile.TemporaryDirectory() as tmp:
            write_tree(tmp, {
                "src/core/engine.hpp": ENGINE_HPP_OK,
                "src/core/executor.hpp": "#pragma once\n",
            })
            write_tree(tmp, seeded)
            hit = expect(run_lint(tmp), rule, f"a {rule} violation")
            print(f"self-test {rule}: fired as expected\n    {hit}")
    print("lint self-test passed: every rule fires on its seeded violation")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--self-test", action="store_true",
                    help="seed violations and assert every rule fires")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return 0
    failures = run_lint(os.path.abspath(args.root))
    if failures:
        print(f"lint: {len(failures)} violation(s)")
        for f in failures:
            print("  " + f)
        return 1
    print(f"lint: OK ({len(RULES)} rules clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
