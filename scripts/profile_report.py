#!/usr/bin/env python3
"""Symbolizes and ranks the samples scripts/profile_sampler.cpp wrote.

    scripts/profile_report.py [--top N] SAMPLES

SAMPLES is the file named by CODA_SAMPLER_OUT; SAMPLES.maps must sit beside
it. Every address is mapped to its file through the maps, then named with
`addr2line -f -i -C`, which expands inlined calls: the innermost inline
frame of the sampled instruction gets the self time, and every function on
the sample's stack, inline frames included, gets one inclusive count per
sample. Return addresses are looked up one byte back, inside the call.
Prints a self table and an inclusive table, each with percentages of all
samples.
"""
import argparse
import bisect
import collections
import os
import struct
import subprocess
import sys


def read_samples(path):
    with open(path, "rb") as f:
        data = f.read()
    words = struct.unpack(f"<{len(data) // 8}Q", data[: len(data) // 8 * 8])
    samples = []
    i = 0
    while i < len(words):
        n = words[i]
        samples.append(words[i + 1 : i + 1 + n])
        i += 1 + n
    return samples


def read_maps(path):
    """Executable file mappings: (start, end, file offset, file path)."""
    maps = []
    with open(path) as f:
        for line in f:
            parts = line.split(None, 5)
            if len(parts) < 6 or "x" not in parts[1]:
                continue
            name = parts[5].strip()
            if not name.startswith("/"):
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            maps.append((start, end, int(parts[2], 16), name))
    maps.sort()
    return maps


def load_segments(path):
    """ELF type and PT_LOAD (offset, vaddr, filesz) segments of a file."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            return None, []
        e_type = struct.unpack_from("<H", head, 16)[0]
        phoff = struct.unpack_from("<Q", head, 32)[0]
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segments = []
    for k in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, k * phentsize)
        if p_type == 1:  # PT_LOAD
            segments.append((p_offset, p_vaddr, p_filesz))
    return e_type, segments


class Resolver:
    """Maps a runtime address to (file, address addr2line understands)."""

    def __init__(self, maps):
        self.maps = maps
        self.starts = [m[0] for m in maps]
        self.elf = {}

    def resolve(self, addr):
        k = bisect.bisect_right(self.starts, addr) - 1
        if k < 0:
            return None
        start, end, offset, path = self.maps[k]
        if addr >= end:
            return None
        if path not in self.elf:
            try:
                self.elf[path] = load_segments(path)
            except OSError:
                self.elf[path] = (None, [])
        e_type, segments = self.elf[path]
        if e_type == 2:  # ET_EXEC: addresses are link-time addresses
            return path, addr
        file_off = addr - start + offset
        for p_offset, p_vaddr, p_filesz in segments:
            if p_offset <= file_off < p_offset + p_filesz:
                return path, file_off - p_offset + p_vaddr
        return path, file_off


def is_address(line):
    return line.startswith("0x") and all(
        c in "0123456789abcdef" for c in line[2:])


def symbolize(path, addrs):
    """{addr: [function, ...]} innermost inline frame first."""
    out = {}
    if not addrs:
        return out
    text = "\n".join(f"{a:#x}" for a in addrs) + "\n"
    done = subprocess.run(["addr2line", "-f", "-i", "-C", "-a", "-e", path],
                          input=text, capture_output=True, text=True,
                          check=False)
    # -a prints each address, then a (function, file:line) pair per inline
    # level; a line after a file:line row is a new address or an outer
    # inline level.
    current = None
    state = "addr"
    for line in done.stdout.splitlines():
        if state != "func" and is_address(line):
            current = int(line, 16)
            out[current] = []
            state = "func"
        elif state == "loc":
            state = "next"
        else:
            out[current].append(line)
            state = "loc"
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("samples")
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()

    samples = read_samples(args.samples)
    resolver = Resolver(read_maps(args.samples + ".maps"))
    # Leaf addresses are exact; return addresses point past the call.
    lookups = []
    wanted = collections.defaultdict(set)
    for stack in samples:
        frames = []
        for depth, addr in enumerate(stack):
            where = resolver.resolve(addr if depth == 0 else addr - 1)
            frames.append(where)
            if where is not None:
                wanted[where[0]].add(where[1])
        lookups.append(frames)
    names = {}
    for path, addrs in wanted.items():
        base = os.path.basename(path)
        for addr, chain in symbolize(path, sorted(addrs)).items():
            names[(path, addr)] = [
                f if f != "??" else f"{base}+{addr:#x}" for f in chain
            ] or [f"{base}+{addr:#x}"]

    self_counts = collections.Counter()
    incl_counts = collections.Counter()
    for frames in lookups:
        seen = set()
        for depth, where in enumerate(frames):
            chain = names.get(where, ["[unknown]"]) if where else ["[unknown]"]
            if depth == 0:
                self_counts[chain[0]] += 1
            seen.update(chain)
        incl_counts.update(seen)

    total = len(samples)
    print(f"{total} samples")
    for title, counts in (("self", self_counts),
                          ("inclusive (inline-aware)", incl_counts)):
        print(f"\n== top {args.top} by {title} ==")
        print(f"{'share':>7} {'samples':>8}  function")
        for name, count in counts.most_common(args.top):
            print(f"{100.0 * count / max(total, 1):6.2f}% {count:8d}  {name}")
    return 0 if total > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
