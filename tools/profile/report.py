#!/usr/bin/env python3
"""Self and inclusive CPU shares from the sampler's profiles.

    python3 tools/profile/report.py [--top N] [--file TEXT] [--json OUT] PROFILE...

Each PROFILE is a `$FLOWER_SAMPLER_OUT.<pid>` file written by
libflower_sampler.so (tools/profile/sampler.cpp); several profiles of
one binary add up. Every address in the binary is symbolized by one
`addr2line -f -i -C` call and expanded into its inline chain, so a
function inlined into its caller still gets its own frame. A sample
that stopped in a shared library (libm, libc, libstdc++) is attributed
to its first caller in the binary.

  self       the innermost frame of a sample's first in-binary address
  inclusive  every frame of the expanded stack, counted once per sample

--file TEXT adds line-level views of the source files whose path
contains TEXT: self by the innermost frame in such a file, inclusive by
every such line on the stack. --json OUT writes the tables as JSON.
"""

import argparse
import collections
import json
import os
import struct
import subprocess
import sys


def read_profile(path):
    exe, maps, samples, dropped = None, [], [], 0
    with open(path) as f:
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "s":
                samples.append([int(a, 16) for a in rest.split()])
            elif kind == "map":
                fields = rest.split(None, 5)
                if len(fields) < 6:
                    continue  # An anonymous mapping (JIT code, vdso).
                lo, hi = (int(a, 16) for a in fields[0].split("-"))
                maps.append((lo, hi, int(fields[2], 16), fields[5]))
            elif kind == "exe":
                exe = rest
            elif kind == "dropped":
                dropped = int(rest)
    if exe is None:
        sys.exit("%s: not a sampler profile" % path)
    return exe, maps, samples, dropped


def load_segments(exe):
    """(p_offset, p_filesz, p_vaddr) of each PT_LOAD of an ELF64 file."""
    with open(exe, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            sys.exit("%s: not an ELF64 binary" % exe)
        end = "<" if head[5] == 1 else ">"
        phoff, = struct.unpack_from(end + "Q", head, 32)
        phentsize, phnum = struct.unpack_from(end + "HH", head, 54)
        segments = []
        for i in range(phnum):
            f.seek(phoff + i * phentsize)
            p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack(
                end + "IIQQQQ", f.read(40))
            if p_type == 1:
                segments.append((p_offset, p_filesz, p_vaddr))
    return segments


def to_vaddr(addr, maps, exe, segments):
    """The link-time address of a run-time address in `exe`, or None."""
    for lo, hi, offset, path in maps:
        if lo <= addr < hi:
            if path != exe:
                return None
            file_offset = addr - lo + offset
            for p_offset, p_filesz, p_vaddr in segments:
                if p_offset <= file_offset < p_offset + p_filesz:
                    return p_vaddr + file_offset - p_offset
            return None
    return None


def short_name(name):
    """Drops a function's trailing parameter list and qualifiers."""
    for suffix in (" const", " &&", " &"):
        if name.endswith(suffix):
            name = name[:-len(suffix)]
    if not name.endswith(")"):
        return name
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                # "operator()" with no parameter list keeps its parens.
                if i == 0 or name[:i].endswith("operator"):
                    return name
                return name[:i]
    return name


def short_location(loc):
    loc = loc.split(" (discriminator")[0]
    path, _, line = loc.rpartition(":")
    if path.startswith("/"):
        rel = os.path.relpath(path)
        if not rel.startswith(".."):
            path = rel
    return "%s:%s" % (path, line)


def symbolize(exe, vaddrs):
    """{vaddr: [(function, location), ...]}, innermost inline frame
    first."""
    query = "".join("%x\n" % a for a in vaddrs)
    out = subprocess.run(["addr2line", "-e", exe, "-f", "-i", "-C", "-a"],
                         input=query, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    chains, current, i = {}, None, 0
    while i < len(out):
        line = out[i]
        if line.startswith("0x"):
            current = int(line, 16)
            chains[current] = []
            i += 1
            continue
        loc = out[i + 1] if i + 1 < len(out) else "??:0"
        chains[current].append((short_name(line), short_location(loc)))
        i += 2
    return chains


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profiles", nargs="+")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--file", help="line-level views of matching files")
    parser.add_argument("--json", help="write the tables here as JSON")
    args = parser.parse_args()

    exe, stacks, outside, dropped = None, [], 0, 0
    for path in args.profiles:
        p_exe, maps, samples, p_dropped = read_profile(path)
        if exe is None:
            exe, segments = p_exe, load_segments(p_exe)
        elif p_exe != exe:
            sys.exit("%s profiles %s, not %s" % (path, p_exe, exe))
        dropped += p_dropped
        for sample in samples:
            # The PC is exact; a caller's return address points after
            # its call, so its line is that of the byte before.
            frames = [to_vaddr(a if k == 0 else a - 1, maps, exe, segments)
                      for k, a in enumerate(sample)]
            inside = [v for v in frames if v is not None]
            if inside:
                stacks.append(inside)
            else:
                outside += 1
    if not stacks:
        sys.exit("no sample landed in %s" % exe)
    chains = symbolize(exe, sorted({v for s in stacks for v in s}))

    self_fn, incl_fn = collections.Counter(), collections.Counter()
    self_line, incl_line = collections.Counter(), collections.Counter()
    for stack in stacks:
        expanded = [frame for v in stack for frame in chains.get(v, [])]
        if not expanded:
            continue
        self_fn[expanded[0][0]] += 1
        incl_fn.update({name for name, _ in expanded})
        if args.file:
            lines = [loc for _, loc in expanded if args.file in loc]
            if lines:
                self_line[lines[0]] += 1
                incl_line.update(set(lines))

    total = len(stacks) + outside
    print("%s: %d samples (%d outside the binary, %d dropped)"
          % (exe, total, outside, dropped))
    tables = [("self", self_fn), ("inclusive", incl_fn)]
    if args.file:
        tables += [("self lines", self_line), ("inclusive lines", incl_line)]
    report = {"exe": exe, "samples": total, "outside": outside,
              "dropped": dropped}
    for title, counts in tables:
        top = counts.most_common(args.top)
        report[title.replace(" ", "_")] = [[n, c] for n, c in top]
        print("\n%s (top %d)" % (title, args.top))
        for name, count in top:
            print("%6.2f%% %7d  %s" % (100.0 * count / total, count, name))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
