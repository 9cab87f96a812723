#!/usr/bin/env python3
"""Turn a sampler.c dump into flat self-time profiles.

    symbolise.py prof.<pid>.out BINARY [SYMBOL]

Prints the share of samples per symbol (`nm -C`), then per source line
(`addr2line`: build with CARGO_PROFILE_RELEASE_DEBUG=line-tables-only),
and, given SYMBOL (a substring of a demangled name), the `objdump` listing
of the hottest matching symbol with the samples each instruction took.
Inlined code counts for the function it was inlined into; samples outside
BINARY count for the file they fell in."""
import bisect, collections, os, re, struct, subprocess, sys

def run(*cmd, stdin=None):
    return subprocess.run(cmd, input=stdin, capture_output=True, text=True, check=True).stdout

def top(title, counts, total, n=25):
    print(f"\n{title} ({total} samples)")
    for name, c in counts.most_common(n):
        print(f"{100 * c / total:6.2f}% {c:7d}  {name}")

dump, binary = sys.argv[1], os.path.realpath(sys.argv[2])
data = open(dump, "rb").read()
cut = data.index(b"PCS\n")
pcs = struct.unpack(f"<{(len(data) - cut - 4) // 8}Q", data[cut + 4:])
if not pcs:
    sys.exit("no samples in " + dump)
pie = open(binary, "rb").read(18)[16] == 3  # ELF e_type ET_DYN
regions, base = [], None
for f in (line.split() for line in data[:cut].decode().splitlines()):
    lo, hi = (int(x, 16) for x in f[0].split("-"))
    regions.append((lo, hi, f[5] if len(f) > 5 else "[anon]"))
    if regions[-1][2] == binary and int(f[2], 16) == 0 and base is None:
        base = lo if pie else 0
syms = [(int(f[0], 16), re.sub(r"::h[0-9a-f]{16}$", "", f[2]))
        for f in (l.split(" ", 2) for l in run("nm", "-C", "-n", "--defined-only", binary).splitlines())
        if len(f) == 3 and f[1] in "tTwW"]
addrs = [a for a, _ in syms]
by_sym, by_off = collections.Counter(), collections.Counter()
for pc in pcs:
    path = next((p for lo, hi, p in regions if lo <= pc < hi), "[unmapped]")
    if path != binary or base is None or pc - base < addrs[0]:
        by_sym[os.path.basename(path)] += 1
        continue
    by_off[pc - base] += 1
    by_sym[syms[bisect.bisect_right(addrs, pc - base) - 1][1]] += 1
top("self time by symbol", by_sym, len(pcs))
offs, by_line = sorted(by_off), collections.Counter()
for o, where in zip(offs, run("addr2line", "-e", binary, stdin="".join(f"{o:x}\n" for o in offs)).split("\n")):
    by_line[re.sub(r" \(discriminator \d+\)", "", where)] += by_off[o]
top("self time by source line", by_line, len(pcs))
if len(sys.argv) > 3:
    span = lambda i: (addrs[i], addrs[i + 1] if i + 1 < len(addrs) else addrs[i] + 4096)
    hits = [i for i, (_, s) in enumerate(syms) if sys.argv[3] in s] or sys.exit(f"no symbol {sys.argv[3]!r}")
    i = max(hits, key=lambda i: sum(c for o, c in by_off.items() if span(i)[0] <= o < span(i)[1]))
    print(f"\n{syms[i][1]}: samples per instruction")
    for line in run("objdump", "-d", "-C", "--no-show-raw-insn", f"--start-address={span(i)[0]}",
                    f"--stop-address={span(i)[1]}", binary).splitlines():
        m = re.match(r"\s*([0-9a-f]+):", line)
        print(f"{by_off.get(int(m.group(1), 16), '') if m else '':>7} {line}")
