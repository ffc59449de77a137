#!/usr/bin/env python3
"""Memory-model and hot-path convention passes.

Three passes over the model's comment- and string-stripped code, with the
allow markers read from the raw text (see docs/static-analysis.md):

  memory-order   every atomic access names its order and every relaxed
                 order is justified; over all of src/.  Rules:
    implicit-seq-cst     an atomic load/store/RMW without an explicit
                         std::memory_order; compare_exchange must name both
                         the success and the failure order.  Call sites
                         that forward a caller-supplied order carry
                         ``// lint: allow(implicit-order): <reason>``.
    unjustified-relaxed  ``memory_order_relaxed`` without an ``// order:``
                         comment on the line or within JUSTIFY_WINDOW lines
                         above.
    atomic-operator      ++/--/+=/-= on a std::atomic member: a seq_cst
                         RMW in disguise.
  std-function   ``std::function`` in src/runtime/ (tasks use InlineFn);
                 cold-path exceptions carry
                 ``// lint: allow(std-function): <reason>``.  Scoped to the
                 runtime: it is a hot-path rule, and type erasure is fine
                 elsewhere.
  interference   a shared per-worker/per-shard struct (name matches
                 Worker|Shard, body holds atomics or a mutex) that is not
                 ``alignas(kDestructiveInterference)``; over all of src/.
                 Snapshots carry ``// lint: allow(alignment): <reason>``.
"""

from __future__ import annotations

import re

from compile_db import (ALLOW_WINDOW, JUSTIFY_WINDOW, Finding, has_marker,
                        line_of_offset)

ATOMIC_OPS = (
    "load",
    "store",
    "exchange",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange_weak",
    "compare_exchange_strong",
)
CAS_OPS = ("compare_exchange_weak", "compare_exchange_strong")

_ATOMIC_CALL = re.compile(r"[.>]\s*(" + "|".join(ATOMIC_OPS) + r")\s*\(")
_ATOMIC_DECL = re.compile(r"std::atomic<[^<>]+>\s+(\w+)")
_STRUCT_DEF = re.compile(
    r"\b(?:struct|class)\s+(alignas\s*\([^)]*\)\s*)?(\w+)\s*(?::[^&|{;]*)?\{")


def _close(code: str, open_at: int, opener: str, closer: str) -> int:
    """Offset of the bracket matching the one at `open_at`."""
    depth, j = 0, open_at
    while j < len(code):
        if code[j] == opener:
            depth += 1
        elif code[j] == closer:
            depth -= 1
            if depth == 0:
                break
        j += 1
    return j


def run_memory_order(model, raw_texts):
    findings: list[Finding] = []
    for rel in sorted(model.file_code):
        code = model.file_code[rel]
        lines = raw_texts[rel].splitlines()
        findings += [f for f in _implicit_order(rel, code)
                     if not has_marker(lines, f.line - 1,
                                       "lint: allow(implicit-order)",
                                       ALLOW_WINDOW)]
        findings += _unjustified_relaxed(rel, code, lines)
        findings += _atomic_operators(rel, code)
    return findings


def _implicit_order(rel, code):
    findings = []
    for m in _ATOMIC_CALL.finditer(code):
        op = m.group(1)
        args = code[m.end():_close(code, m.end() - 1, "(", ")")]
        line = line_of_offset(code, m.start())
        orders = args.count("memory_order")
        if orders == 0:
            findings.append(Finding(
                rel, line, "implicit-seq-cst",
                f"atomic {op}() without an explicit std::memory_order "
                "(implicit seq_cst); every order must be spelled out"))
        elif op in CAS_OPS and orders < 2:
            findings.append(Finding(
                rel, line, "implicit-seq-cst",
                f"{op}() names only the success order; the failure order "
                "must be explicit too"))
    return findings


def _unjustified_relaxed(rel, code, lines):
    findings = []
    for idx, line in enumerate(code.splitlines()):
        if "memory_order_relaxed" not in line:
            continue
        if not has_marker(lines, idx, "order:", JUSTIFY_WINDOW):
            findings.append(Finding(
                rel, idx + 1, "unjustified-relaxed",
                "memory_order_relaxed without an `// order:` justification "
                f"comment on the line or within {JUSTIFY_WINDOW} lines above"))
    return findings


def _atomic_operators(rel, code):
    names = set(_ATOMIC_DECL.findall(code))
    if not names:
        return []
    alt = "|".join(re.escape(n) for n in sorted(names))
    ops = re.compile(
        r"(?:(?:\+\+|--)\s*(?:\w+\.)*(" + alt + r")\b"
        r"|\b(" + alt + r")\s*(?:\+\+|--|\+=|-=))")
    return [Finding(
        rel, line_of_offset(code, m.start()), "atomic-operator",
        f"operator ++/--/+=/-= on std::atomic `{m.group(1) or m.group(2)}` "
        "is an implicit seq_cst RMW; use an explicit fetch_add/fetch_sub "
        "with a named order") for m in ops.finditer(code)]


def run_std_function(model, raw_texts):
    findings: list[Finding] = []
    for rel in sorted(model.file_code):
        if not rel.startswith("src/runtime/"):
            continue
        lines = raw_texts[rel].splitlines()
        for idx, line in enumerate(model.file_code[rel].splitlines()):
            if "std::function" not in line:
                continue
            if not has_marker(lines, idx, "lint: allow(std-function)",
                              ALLOW_WINDOW):
                findings.append(Finding(
                    rel, idx + 1, "std-function",
                    "std::function in src/runtime/ (hot-path callables "
                    "must be InlineFn); if this is a justified cold-path "
                    "use, add `// lint: allow(std-function): <reason>`"))
    return findings


def run_interference(model, raw_texts):
    findings: list[Finding] = []
    for rel in sorted(model.file_code):
        code = model.file_code[rel]
        lines = raw_texts[rel].splitlines()
        for m in _STRUCT_DEF.finditer(code):
            alignas_spec, name = m.group(1), m.group(2)
            if not re.search(r"Worker|Shard", name):
                continue
            body = code[m.end():_close(code, m.end() - 1, "{", "}")]
            if not re.search(r"std::atomic<|(?:^|\s)Mutex\s+\w+|std::mutex",
                             body):
                continue
            if alignas_spec and "kDestructiveInterference" in alignas_spec:
                continue
            line = line_of_offset(code, m.start())
            if has_marker(lines, line - 1, "lint: allow(alignment)",
                          ALLOW_WINDOW):
                continue
            findings.append(Finding(
                rel, line, "interference",
                f"shared mutable per-worker struct `{name}` (atomic/mutex "
                "members) must be alignas(kDestructiveInterference) so "
                "false sharing is structurally impossible, or carry "
                "`// lint: allow(alignment): <reason>`"))
    return findings
