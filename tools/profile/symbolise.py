#!/usr/bin/env python3
"""Turn a sampler.c dump into flat self-time profiles, or an allocs.c dump
into an allocation profile by layer.

    symbolise.py prof.<pid>.out BINARY [SYMBOL]
    symbolise.py --allocs allocs.<pid>.out BINARY [WITHIN...]

Prints the share of samples per symbol (`nm -C`), then per source line
(`addr2line`: build with CARGO_PROFILE_RELEASE_DEBUG=line-tables-only),
and, given SYMBOL (a substring of a demangled name), the `objdump` listing
of the hottest matching symbol with the samples each instruction took.
Inlined code counts for the function it was inlined into; samples outside
BINARY count for the file they fell in.

With --allocs, each call chain is charged to its first frame (inlined
frames included, innermost first) whose source file belongs to this
workspace rather than to the standard library, a registry crate or the
global allocator (a counting one is the measuring tape, not a layer): calls
and bytes by that file (the layer, one module each) and by its function
and line (the site). Given WITHIN arguments, only the chains with a
frame naming each (a substring of a function name) count: `"Churn as"
pass` selects deploy_churn's measured passes. Build BINARY with frame
pointers and line tables."""
import bisect, collections, os, re, struct, subprocess, sys

def run(*cmd, stdin=None):
    return subprocess.run(cmd, input=stdin, capture_output=True, text=True, check=True).stdout

def top(title, counts, total, n=25, unit="samples"):
    print(f"\n{title} ({total} {unit})")
    for name, c in counts.most_common(n):
        print(f"{100 * c / total:6.2f}% {c:7d}  {name}")

allocs = sys.argv[1] == "--allocs"
dump, binary = sys.argv[1 + allocs], os.path.realpath(sys.argv[2 + allocs])
data = open(dump, "rb").read()
cut = data.index(b"ALLOCS " if allocs else b"PCS\n")
pie = open(binary, "rb").read(18)[16] == 3  # ELF e_type ET_DYN
regions, base = [], None
for f in (line.split() for line in data[:cut].decode().splitlines()):
    lo, hi = (int(x, 16) for x in f[0].split("-"))
    regions.append((lo, hi, f[5] if len(f) > 5 else "[anon]"))
    if regions[-1][2] == binary and int(f[2], 16) == 0 and base is None:
        base = lo if pie else 0
region_of = lambda pc: next((p for lo, hi, p in regions if lo <= pc < hi), "[unmapped]")

if allocs:
    head = data.index(b"\n", cut) + 1
    depth = int(data[cut:head].split()[1])
    chains = [(calls, size, [pc for pc in pcs if pc])
              for calls, size, *pcs in struct.iter_unpack(f"<{depth + 2}Q", data[head:])]
    if not chains or base is None:
        sys.exit("no allocations from BINARY in " + dump)
    # Each return address minus one names its call instruction.
    ours = sorted({pc - base - 1 for _, _, pcs in chains for pc in pcs if region_of(pc) == binary})
    frames = collections.defaultdict(list)  # call address -> [(function, file:line)], innermost first
    lines = run("addr2line", "-a", "-i", "-f", "-C", "-e", binary,
                stdin="".join(f"{o:x}\n" for o in ours)).splitlines()
    at, i = None, 0
    while i < len(lines):
        if re.fullmatch(r"0x[0-9a-f]+", lines[i]):
            at, i = int(lines[i], 16), i + 1
            continue
        frames[at].append((re.sub(r"::h[0-9a-f]{16}$", "", lines[i]), lines[i + 1]))
        i += 2
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.realpath(__file__))))
    def site(pcs):
        for pc in pcs:
            chain = frames.get(pc - base - 1, []) if region_of(pc) == binary else []
            if any(fn.startswith(("__rg_", "__rust_", "__rdl_")) for fn, _ in chain):
                continue  # the global allocator: the measuring tape, not a layer
            for fn, where in chain:
                if where.startswith("??"):
                    continue  # no line tables
                path = os.path.normpath(os.path.join(root, re.sub(r":(\d+|\?).*$", "", where)))
                if path.startswith(root + os.sep) and "/target/" not in path and os.path.isfile(path):
                    return os.path.relpath(path, root), fn, where
        return os.path.basename(region_of(pcs[0])) if pcs else "[no frames]", "", ""
    within = sys.argv[4:]
    def inside(pcs):
        names = [fn for pc in pcs for fn, _ in frames.get(pc - base - 1, [])]
        return all(any(w in fn for fn in names) for w in within)
    by_layer, by_site, layer_bytes = collections.Counter(), collections.Counter(), collections.Counter()
    for calls, size, pcs in filter(lambda c: inside(c[2]), chains):
        layer, fn, where = site(pcs)
        by_layer[layer] += calls
        layer_bytes[layer] += size
        by_site[f"{fn}  {os.path.basename(where)}" if fn else layer] += calls
    total = sum(by_layer.values())
    if not total:
        sys.exit(f"no chains through {within} in {dump}")
    top("allocator calls by layer", by_layer, total, n=40, unit="calls")
    print(f"\nbytes requested by layer ({sum(layer_bytes.values())} bytes)")
    for layer, _ in by_layer.most_common(40):
        print(f"{layer_bytes[layer]:12d}  {layer}")
    top("allocator calls by site", by_site, total, n=60, unit="calls")
    sys.exit(0)

pcs = struct.unpack(f"<{(len(data) - cut - 4) // 8}Q", data[cut + 4:])
if not pcs:
    sys.exit("no samples in " + dump)
syms = [(int(f[0], 16), re.sub(r"::h[0-9a-f]{16}$", "", f[2]))
        for f in (l.split(" ", 2) for l in run("nm", "-C", "-n", "--defined-only", binary).splitlines())
        if len(f) == 3 and f[1] in "tTwW"]
addrs = [a for a, _ in syms]
by_sym, by_off = collections.Counter(), collections.Counter()
for pc in pcs:
    path = region_of(pc)
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
