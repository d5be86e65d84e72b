#!/usr/bin/env python3
"""Repo-invariant lint: checks the generic tools (clang-tidy, thread-safety
analysis) cannot express. Registered as a ctest test and run by the
static-analysis CI job; exits nonzero with file:line diagnostics on any
violation.

Rules (each with its rationale):

  raw-lock        No raw std::mutex / std::condition_variable /
                  std::lock_guard / std::unique_lock / std::scoped_lock /
                  std::shared_mutex (or their headers) anywhere under src/
                  except common/thread_annotations.hpp. Everything must lock
                  through the annotated epim::Mutex wrappers, or the
                  thread-safety analysis and the lockdep layer are blind to
                  it. (tests/ and bench/ may use raw primitives -- e.g. to
                  exercise the pool from outside.)

  pinned-errors   A direct `throw InvalidArgument(...)` / `throw
                  Unavailable(...)` / `throw DeadlineExceeded(...)`
                  statement in src/ -- or the same constructors wrapped in
                  std::make_exception_ptr (how a promise is failed) -- must
                  reference a pinned kErr* message constant, and every
                  kErr* constant a throw references must be DEFINED (have a
                  `kErrName = ...` site) somewhere under src/. Tests pin
                  exact messages; ad-hoc strings drift, and a typo'd
                  constant name would otherwise satisfy the textual check
                  while pinning nothing. (EPIM_CHECK is the sanctioned
                  free-form path -- it prefixes and formats uniformly; the
                  macro's own implementation in common/error.cpp is the one
                  allowed raw-throw site.)

  schema-sync     Every ServeConfig field in pipeline_config.hpp appears
                  (as `.serve.<field>`, outside comments) in the
                  PipelineConfig field template of the positional .epim
                  codec in src/serve/artifact.cpp -- one template both
                  writes and reads it -- and artifact.cpp cites the CURRENT
                  artifact.hpp kSchemaVersion in a "schema v<N>" comment
                  next to the codec. Adding a config knob without appending
                  a codec line truncates round-trips; appending codec lines
                  without bumping (and citing) kSchemaVersion lets old
                  readers misparse new artifacts.

  include-cycle   No cycle in the `#include "..."` graph of src/ headers.
                  Cycles compile accidentally (pragma once) until the day
                  they do not.

  pragma-once     Every header under src/ carries #pragma once.

  metric-names    Every telemetry family registration in src/ --
                  register_counter / register_gauge / register_histogram --
                  passes a LITERAL name matching
                  `^epim_[a-z0-9_]+(_total|_ms|_bytes|_depth)?$`, and each
                  name is registered exactly once across src/. Literal names
                  keep the exposition greppable; single-site registration
                  keeps one family from forking help text or type between
                  callers. (The Registry's own declarations/definitions in
                  src/telemetry/telemetry.{hpp,cpp} are the allowed
                  non-literal sites; tests and tools may register ad-hoc
                  epim_test_* families in their local registries.)

Run locally:  python3 tools/lint.py [--root REPO_ROOT]
"""

import argparse
import os
import re
import sys

# Files allowed to touch raw standard-library locking primitives, and why.
RAW_LOCK_ALLOWLIST = {
    # The annotated capability wrappers themselves.
    "src/common/thread_annotations.hpp",
}

# Files allowed to `throw InvalidArgument/Unavailable/DeadlineExceeded`
# without a kErr* constant, and why.
PINNED_ERROR_ALLOWLIST = {
    # Implements EPIM_CHECK itself: the uniform formatter every free-form
    # message is required to go through.
    "src/common/error.cpp",
}

RAW_LOCK_TOKENS = [
    "std::mutex",
    "std::timed_mutex",
    "std::recursive_mutex",
    "std::recursive_timed_mutex",
    "std::shared_mutex",
    "std::shared_timed_mutex",
    "std::condition_variable",
    "std::condition_variable_any",
    "std::lock_guard",
    "std::unique_lock",
    "std::scoped_lock",
    "std::shared_lock",
]

RAW_LOCK_INCLUDES = ["<mutex>", "<condition_variable>", "<shared_mutex>"]

# Files whose register_* tokens are the Registry API itself, not call sites.
METRIC_REGISTRATION_ALLOWLIST = {
    "src/telemetry/telemetry.hpp",
    "src/telemetry/telemetry.cpp",
}

METRIC_NAME_RE = re.compile(r"^epim_[a-z0-9_]+(_total|_ms|_bytes|_depth)?$")
METRIC_CALL_RE = re.compile(
    r"\bregister_(?:counter|gauge|histogram)\s*\(\s*(?P<name>\"[^\"]*\")?"
)

THROW_RE = re.compile(
    r"\b(?:throw\s+|std::make_exception_ptr\s*\(\s*)"
    r"(InvalidArgument|Unavailable|DeadlineExceeded)\s*\("
)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
LINE_COMMENT_RE = re.compile(r"//.*$")


def strip_line_comment(line):
    """Drop // comments so prose mentioning std::mutex does not trip the
    lint. (Block comments are handled by the caller's state machine.)"""
    return LINE_COMMENT_RE.sub("", line)


def iter_code_lines(text):
    """Yield (lineno, code) with // and /* */ comment spans blanked out.
    String literals are left intact: a lock-type name inside a string is
    almost certainly a lock NAME, which is fine to mention."""
    in_block = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        out = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
            else:
                start_block = line.find("/*", i)
                start_line = line.find("//", i)
                if start_line != -1 and (
                    start_block == -1 or start_line < start_block
                ):
                    out.append(line[i:start_line])
                    i = len(line)
                elif start_block != -1:
                    out.append(line[i:start_block])
                    in_block = True
                    i = start_block + 2
                else:
                    out.append(line[i:])
                    i = len(line)
        yield lineno, "".join(out)


def source_files(root, subdir, exts):
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, subdir)):
        for filename in sorted(filenames):
            if os.path.splitext(filename)[1] in exts:
                path = os.path.join(dirpath, filename)
                yield os.path.relpath(path, root).replace(os.sep, "/")


def check_raw_locks(root, findings):
    for rel in source_files(root, "src", {".hpp", ".cpp"}):
        if rel in RAW_LOCK_ALLOWLIST:
            continue
        text = open(os.path.join(root, rel), encoding="utf-8").read()
        for lineno, code in iter_code_lines(text):
            for token in RAW_LOCK_TOKENS:
                if token in code:
                    findings.append(
                        f"{rel}:{lineno}: [raw-lock] {token} outside "
                        "common/thread_annotations.hpp -- use epim::Mutex/"
                        "MutexLock/CondVar so the thread-safety analysis "
                        "and lockdep can see the lock"
                    )
            for inc in RAW_LOCK_INCLUDES:
                if re.search(r"#\s*include\s+" + re.escape(inc), code):
                    findings.append(
                        f"{rel}:{lineno}: [raw-lock] #include {inc} outside "
                        "common/thread_annotations.hpp"
                    )


def check_pinned_errors(root, findings):
    # Pass 1: collect every kErr* definition site under src/ (a `kErrName =`
    # assignment -- inline constexpr in a header or an out-of-line member
    # definition in a .cpp both match).
    defined = set()
    for rel in source_files(root, "src", {".hpp", ".cpp"}):
        text = open(os.path.join(root, rel), encoding="utf-8").read()
        code = "\n".join(c for _n, c in iter_code_lines(text))
        defined.update(ERR_DEF_RE.findall(code))

    for rel in source_files(root, "src", {".hpp", ".cpp"}):
        if rel in PINNED_ERROR_ALLOWLIST:
            continue
        text = open(os.path.join(root, rel), encoding="utf-8").read()
        # Join physical lines so a throw spanning lines is one statement.
        code = "\n".join(c for _n, c in iter_code_lines(text))
        for match in THROW_RE.finditer(code):
            stmt_end = code.find(";", match.start())
            stmt = code[match.start() : stmt_end if stmt_end != -1 else None]
            lineno = code.count("\n", 0, match.start()) + 1
            if "kErr" not in stmt:
                findings.append(
                    f"{rel}:{lineno}: [pinned-errors] throw "
                    f"{match.group(1)}(...) without a pinned kErr* message "
                    "constant -- tests pin these messages; either use "
                    "EPIM_CHECK or add a kErr* constant"
                )
                continue
            for token in set(ERR_USE_RE.findall(stmt)):
                if token not in defined:
                    findings.append(
                        f"{rel}:{lineno}: [pinned-errors] throw references "
                        f"{token} but no `{token} = ...` definition exists "
                        "under src/ -- the constant pins nothing"
                    )


# A kErr* definition site (`kErrName = ...`) vs a mere use of the token.
ERR_DEF_RE = re.compile(r"\b(kErr\w+)\s*=")
ERR_USE_RE = re.compile(r"\b(kErr\w+)\b")

# ServeConfig member declarations: `type name = default;` inside the struct.
SERVE_FIELD_RE = re.compile(
    r"^\s*(?:int|double|bool|float|std::int64_t|std::size_t|std::string)\s+"
    r"(\w+)\s*="
)


def check_schema_sync(root, findings):
    config_rel = "src/pipeline/pipeline_config.hpp"
    codec_rel = "src/serve/artifact.cpp"
    header_rel = "src/serve/artifact.hpp"
    config = open(os.path.join(root, config_rel), encoding="utf-8").read()
    codec = open(os.path.join(root, codec_rel), encoding="utf-8").read()
    header = open(os.path.join(root, header_rel), encoding="utf-8").read()

    # Extract ServeConfig's field names (comments stripped so prose cannot
    # add phantom fields).
    fields = []
    in_struct = False
    struct_line = 0
    for lineno, code in iter_code_lines(config):
        if re.search(r"\bstruct\s+ServeConfig\b", code):
            in_struct = True
            struct_line = lineno
            continue
        if in_struct:
            if re.match(r"^\s*};", code):
                break
            m = SERVE_FIELD_RE.match(code)
            if m:
                fields.append((lineno, m.group(1)))
    if not in_struct or not fields:
        findings.append(
            f"{config_rel}:{struct_line or 1}: [schema-sync] could not parse "
            "ServeConfig fields -- update tools/lint.py alongside the struct"
        )
        return

    # Each field must appear in the PipelineConfig field template, which is
    # both the codec's writer and its reader.
    template = []
    in_template = False
    for _, code in iter_code_lines(codec):
        if re.search(r"\bFieldsOf<PipelineConfig>", code):
            in_template = True
        elif in_template:
            if code.rstrip() == "}":
                break
            template.append(code)
    if not template:
        findings.append(
            f"{codec_rel}:1: [schema-sync] could not find the "
            "PipelineConfig field template (`FieldsOf<PipelineConfig>`) -- "
            "update tools/lint.py alongside the codec"
        )
        return
    body = "\n".join(template)
    for lineno, field in fields:
        if not re.search(r"\.serve\." + field + r"\b", body):
            findings.append(
                f"{config_rel}:{lineno}: [schema-sync] ServeConfig::{field} "
                f"is not round-tripped by {codec_rel} (the PipelineConfig "
                "field template has no `.serve." + field + "`) -- append a "
                "codec line and bump artifact.hpp kSchemaVersion"
            )

    # The codec must cite the CURRENT schema version in a comment, so a
    # field appended without a version bump (or a bump without its citation)
    # is caught.
    version = re.search(r"kSchemaVersion\s*=\s*(\d+)", header)
    if version is None:
        findings.append(
            f"{header_rel}:1: [schema-sync] could not parse kSchemaVersion"
        )
        return
    citation = f"schema v{version.group(1)}"
    if citation not in codec:
        findings.append(
            f"{codec_rel}:1: [schema-sync] codec does not cite the current "
            f'"{citation}" (artifact.hpp kSchemaVersion = '
            f"{version.group(1)}) -- a codec change must name the version "
            "bump that ships it"
        )


def check_metric_names(root, findings):
    seen = {}  # metric name -> first "file:line" that registered it
    for rel in source_files(root, "src", {".hpp", ".cpp"}):
        if rel in METRIC_REGISTRATION_ALLOWLIST:
            continue
        text = open(os.path.join(root, rel), encoding="utf-8").read()
        # Join lines so a call whose name literal wrapped survives.
        lines = list(iter_code_lines(text))
        code = "\n".join(c for _n, c in lines)
        for match in METRIC_CALL_RE.finditer(code):
            lineno = code.count("\n", 0, match.start()) + 1
            literal = match.group("name")
            if literal is None:
                findings.append(
                    f"{rel}:{lineno}: [metric-names] register_* with a "
                    "non-literal metric name -- names must be greppable "
                    "string literals"
                )
                continue
            name = literal[1:-1]
            if not METRIC_NAME_RE.match(name):
                findings.append(
                    f"{rel}:{lineno}: [metric-names] metric name {literal} "
                    "violates ^epim_[a-z0-9_]+(_total|_ms|_bytes|_depth)?$"
                )
            here = f"{rel}:{lineno}"
            if name in seen:
                findings.append(
                    f"{here}: [metric-names] metric {literal} already "
                    f"registered at {seen[name]} -- each family has exactly "
                    "one registration site"
                )
            else:
                seen[name] = here


def check_include_cycles(root, findings):
    graph = {}
    for rel in source_files(root, "src", {".hpp", ".cpp"}):
        text = open(os.path.join(root, rel), encoding="utf-8").read()
        deps = []
        for _lineno, code in iter_code_lines(text):
            m = INCLUDE_RE.match(code)
            if m and os.path.exists(os.path.join(root, "src", m.group(1))):
                deps.append("src/" + m.group(1))
        graph[rel] = deps

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    stack = []

    def dfs(node):
        color[node] = GRAY
        stack.append(node)
        for dep in graph.get(node, ()):  # only src files are nodes
            if color.get(dep, BLACK) == GRAY:
                cycle = stack[stack.index(dep) :] + [dep]
                findings.append(
                    "[include-cycle] " + " -> ".join(cycle)
                )
            elif color.get(dep, BLACK) == WHITE:
                dfs(dep)
        stack.pop()
        color[node] = BLACK

    for node in sorted(graph):
        if color[node] == WHITE:
            dfs(node)


def check_pragma_once(root, findings):
    for rel in source_files(root, "src", {".hpp"}):
        text = open(os.path.join(root, rel), encoding="utf-8").read()
        if "#pragma once" not in text:
            findings.append(f"{rel}:1: [pragma-once] header missing #pragma once")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)",
    )
    args = parser.parse_args()

    findings = []
    check_raw_locks(args.root, findings)
    check_pinned_errors(args.root, findings)
    check_schema_sync(args.root, findings)
    check_metric_names(args.root, findings)
    check_include_cycles(args.root, findings)
    check_pragma_once(args.root, findings)

    for finding in findings:
        print(finding)
    if findings:
        print(f"lint: {len(findings)} violation(s)", file=sys.stderr)
        return 1
    print("lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
