"""Folds a gprof flat profile into host-time shares per src/<module>/ layer.

Each sampled symbol is attributed to the module whose source file defines it:
its address (from `nm`) is resolved to a file and line with `addr2line`, and
the outermost frame of the inline chain names the defining file. Symbols
defined outside src/ (the standard library, the benchmark's own harness) fold
into "other", as do symbols that cannot be resolved or whose name is defined
in more than one module.
"""

import os
import subprocess

MODULES = ("simcore", "cluster", "storage", "framework", "multitask", "monotask",
           "model", "workloads", "engine", "api", "common")
BUCKETS = MODULES + ("other",)


def flat_profile(binary, gmon, cwd):
    """Returns [(mangled symbol, self seconds)] of every sampled symbol."""
    text = subprocess.run(["gprof", "-b", "-p", "--no-demangle", binary, gmon],
                          cwd=cwd, check=True, capture_output=True, text=True,
                          timeout=120).stdout
    rows = []
    for line in text.splitlines():
        fields = line.split()
        if len(fields) < 4:
            continue
        try:
            self_seconds = float(fields[2])
            float(fields[0])
        except ValueError:
            continue  # Header lines.
        if self_seconds > 0:
            rows.append((fields[-1], self_seconds))
    return rows


def symbol_modules(binary, root, names):
    """Maps each symbol in `names` to the set of modules defining it."""
    nm = subprocess.run(["nm", "--defined-only", binary], check=True,
                        capture_output=True, text=True, timeout=120).stdout
    addresses = {}
    for line in nm.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[2] in names:
            addresses.setdefault(fields[2], []).append(fields[0])
    ordered = [(name, addr) for name, addrs in addresses.items() for addr in addrs]
    if not ordered:
        return {}
    lines = subprocess.run(
        ["addr2line", "-a", "-i", "-e", binary], input="\n".join(a for _, a in ordered),
        check=True, capture_output=True, text=True, timeout=120).stdout.splitlines()
    # Output: one "0x<address>" line per input, then its inline chain,
    # innermost first; the last frame is the function that holds the code.
    outermost = []
    for line in lines:
        if line.startswith("0x"):
            outermost.append("")
        elif outermost:
            outermost[-1] = line.split(":")[0]
    modules = {}
    for (name, _), path in zip(ordered, outermost):
        modules.setdefault(name, set()).add(module_of(path, root))
    return modules


def module_of(path, root):
    if not path or path.startswith("?"):
        return "other"
    relative = os.path.relpath(os.path.normpath(path), root).split(os.sep)
    if len(relative) >= 3 and relative[0] == "src" and relative[1] in MODULES:
        return relative[1]
    return "other"


def fold(rows, modules):
    """Sums self seconds per bucket. Returns (seconds by bucket, ambiguous
    symbol names)."""
    seconds = dict.fromkeys(BUCKETS, 0.0)
    ambiguous = []
    for name, self_seconds in rows:
        found = modules.get(name, {"other"})
        if len(found) > 1:
            ambiguous.append(name)
            found = {"other"}
        seconds[next(iter(found))] += self_seconds
    return seconds, ambiguous


def self_check(rows, seconds):
    """Every sampled symbol's time landed in exactly one bucket, and the
    shares sum to 1. Returns (shares, problems); no problems means sound."""
    problems = []
    sampled = sum(s for _, s in rows)
    folded = sum(seconds.values())
    if sampled <= 0:
        problems.append("the profile holds no samples")
    if abs(folded - sampled) > 1e-9 * max(1.0, sampled):
        problems.append("folded %.6f s of %.6f s sampled" % (folded, sampled))
    shares = {b: (s / folded if folded > 0 else 0.0) for b, s in seconds.items()}
    if sampled > 0 and abs(sum(shares.values()) - 1.0) > 1e-9:
        problems.append("shares sum to %.12f" % sum(shares.values()))
    return shares, problems


def host_shares(binary, gmon, root):
    """Returns (shares by bucket, problems, ambiguous symbol count)."""
    rows = flat_profile(binary, gmon, os.path.dirname(gmon))
    modules = symbol_modules(binary, root, {name for name, _ in rows})
    seconds, ambiguous = fold(rows, modules)
    shares, problems = self_check(rows, seconds)
    return shares, problems, len(ambiguous)
