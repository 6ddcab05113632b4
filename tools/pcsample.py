#!/usr/bin/env python3
"""Resolve pcsample dumps (tools/pcsample.cc) into a per-function profile.

Each dump holds the sampled program counters of one process and a copy of
its /proc/self/maps. Every PC is mapped back to its file and to the
file's own virtual address (through the PT_LOAD segments `readelf -lW`
lists), then attributed:

  - per function, with `nm -n -S -C`: the symbol at or below the address.
    System libraries ship without a symbol table, so libc/libm samples go
    through their dynamic symbols (`nm -D`) instead;
  - with --inline, per inline chain, with `addr2line -a -f -i -C`: the
    functions inlined at the address, innermost first. This needs debug
    info (build with -g); without it a chain is just the function.

Several dumps (say, one per run) are summed. Usage:

    python3 tools/pcsample.py pcsample.1234 [pcsample.1235 ...] \\
        [--top 30] [--inline]
"""

import argparse
import bisect
import collections
import os
import subprocess
import sys


def read_dump(path):
    """(pcs, maps): the sampled PCs and the executable file mappings as
    (start, end, file_offset, path) tuples."""
    pcs, maps = [], []
    in_maps = False
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line == "--- maps":
                in_maps = True
            elif not in_maps:
                pcs.append(int(line, 16))
            else:
                parts = line.split(None, 5)
                if len(parts) < 6 or "x" not in parts[1]:
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), parts[5]))
    return pcs, sorted(maps)


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout if proc.returncode == 0 else ""


_segments = {}


def load_segments(path):
    """The file's PT_LOAD segments as (file_offset, vaddr, file_size)."""
    if path not in _segments:
        segs = []
        for line in run(["readelf", "-lW", path]).splitlines():
            parts = line.split()
            if parts and parts[0] == "LOAD":
                segs.append((int(parts[1], 16), int(parts[2], 16),
                             int(parts[4], 16)))
        _segments[path] = segs
    return _segments[path]


def file_vaddr(path, file_offset):
    for off, vaddr, size in load_segments(path):
        if off <= file_offset < off + size:
            return file_offset - off + vaddr
    return None


_symbols = {}


def load_symbols(path):
    """Sorted (address, end or None, name) of the file's code symbols:
    the symbol table if it has one, else the dynamic symbols."""
    if path not in _symbols:
        syms = []
        for dynamic in ([], ["-D"]):
            out = run(["nm", "-n", "-S", "-C", "--defined-only"] + dynamic +
                      [path])
            for line in out.splitlines():
                parts = line.split(None, 3)
                if len(parts) == 4 and parts[2] in "tTwWi":
                    addr, size = int(parts[0], 16), int(parts[1], 16)
                    syms.append((addr, addr + size, parts[3]))
                elif len(parts) == 3 and parts[1] in "tTwWi":
                    syms.append((int(parts[0], 16), None, parts[2]))
            if syms:
                break
        syms.sort(key=lambda s: s[0])
        _symbols[path] = ([s[0] for s in syms], syms)
    return _symbols[path]


def function_at(path, vaddr):
    addrs, syms = load_symbols(path)
    i = bisect.bisect_right(addrs, vaddr) - 1
    if i < 0:
        return None
    addr, end, name = syms[i]
    if end is not None and vaddr >= end and end > addr:
        return None
    return name


def inline_chains(path, vaddrs):
    """{vaddr: 'inner < ... < outer'} from one addr2line process."""
    if not vaddrs:
        return {}
    out = run(["addr2line", "-a", "-f", "-i", "-C", "-e", path] +
              [hex(v) for v in vaddrs])
    chains, cur, frames = {}, None, []
    lines = out.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            if cur is not None:
                chains[cur] = " < ".join(frames)
            cur, frames = int(lines[i], 16), []
            i += 1
        else:
            frames.append(lines[i])
            i += 2  # function line, then its file:line
    if cur is not None:
        chains[cur] = " < ".join(frames)
    return chains


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dumps", nargs="+")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--inline", action="store_true",
                    help="also attribute per inline chain (addr2line -i)")
    args = ap.parse_args()

    funcs = collections.Counter()
    chains = collections.Counter()
    total = 0
    for dump in args.dumps:
        pcs, maps = read_dump(dump)
        starts = [m[0] for m in maps]
        per_file = collections.defaultdict(list)
        for pc in pcs:
            total += 1
            j = bisect.bisect_right(starts, pc) - 1
            if j < 0 or pc >= maps[j][1] or not maps[j][3].startswith("/"):
                name = maps[j][3] if 0 <= j and pc < maps[j][1] else "?"
                funcs[f"[{name}]"] += 1
                continue
            lo, _, off, path = maps[j]
            vaddr = file_vaddr(path, pc - lo + off)
            if vaddr is None:
                funcs[f"[{os.path.basename(path)}]"] += 1
                continue
            per_file[path].append(vaddr)
        for path, vaddrs in per_file.items():
            lib = os.path.basename(path)
            for v in vaddrs:
                name = function_at(path, v) or "?"
                funcs[f"{name}  [{lib}]"] += 1
            if args.inline:
                resolved = inline_chains(path, sorted(set(vaddrs)))
                for v in vaddrs:
                    chains[f"{resolved.get(v, '?')}  [{lib}]"] += 1

    if total == 0:
        sys.exit("no samples")
    print(f"{total} samples")
    print("\nper function:")
    for name, n in funcs.most_common(args.top):
        print(f"{100.0 * n / total:6.2f}% {n:7d}  {name}")
    if args.inline:
        print("\nper inline chain (innermost first):")
        for name, n in chains.most_common(args.top):
            print(f"{100.0 * n / total:6.2f}% {n:7d}  {name}")


if __name__ == "__main__":
    main()
