#!/usr/bin/env python3
"""Flat sampling profile of one command, standard library only.

    python3 tools/flat_profile.py [-f HZ] [-n TOP] [--lines SUBSTR]... [--inner] [--passes N] -- <executable> [args...]

For machines with no `perf`/`gdb`: samples the user-space instruction
pointer of <executable> (and every thread it starts) on the kernel's
software CPU clock through perf_event_open(2), resolves addresses with
`nm -C -n`, and prints the functions by share of samples. Needs Linux,
`nm`, and /proc/sys/kernel/perf_event_paranoid <= 2. A flat profile says
where time goes, not why: inlined callees count under their caller.

`--lines SUBSTR` (repeatable) adds, for every function whose demangled
name contains SUBSTR, the share of samples per source line of that
function's own body: each sample is resolved with `addr2line -i -e
<executable>` and charged to the outermost frame, so an inlined callee
counts on the line that calls it. That needs line tables, which the
release profile leaves out; build a second executable for it, e.g.
`CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR=<dir>
cargo build --release ...`, in a target directory of its own so the
measured executable stays as it was.

`--inner` charges each of those samples to its *innermost* frame inside
the workspace instead, skipping standard-library (`/rustc/`), the
standard library's own dependencies (`/rust/deps/`: `hashbrown`, so a
hash probe counts on the table line that made it) and vendored
(`vendor/`) frames; a sample with no workspace frame keeps its
outermost one. Where the event loop inlines whole subsystems into one
function, the outermost view reports them as a single calling line;
the innermost view says which kernel line inside them the time is on.

The yardstick row: `agbench` brackets every timed segment with a fixed
loop (`agbench/src/calib.rs`, on the frozen `ag_sim::reference` heap),
so the samples in functions named after those two are a measure of the
host's speed, not of the code under test. After the function table the
tool prints them per pass (`--passes N`: the run's passes, `attempted /
24` on `paper_sweep`) as a normaliser row, with everything else per
pass and per yardstick sample beneath; with `--lines`, every sampled
source file follows the same way. Compare two profiles per yardstick
sample: on a shared host the yardstick's own samples per pass moved by
14 % from one profile to the next, enough to hide a 10 % gain in raw
per-pass counts.

Samples outside the executable's image (libc's `memmove`/`malloc`, the
vDSO) are one row in the table, then broken down by shared object: the
tool reads /proc/<pid>/maps while the command runs and charges each such
sample to the mapping that held its address. Beside each object it
names the nearest *exported* symbol below the sampled addresses
(`nm -D`); libc's internal variants (`__memmove_avx_unaligned_erms`)
are not exported, so that name is a hint, marked `≈`, not an attribution.
"""
import argparse, bisect, collections, ctypes, mmap, os, platform, struct, subprocess, sys, time

SYS_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}[platform.machine()]
PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CPU_CLOCK = 1, 0
PERF_SAMPLE_IP, PERF_RECORD_SAMPLE = 1, 9
# perf_event_attr flag bits.
DISABLED, INHERIT, EXCLUDE_KERNEL, EXCLUDE_HV, FREQ, ENABLE_ON_EXEC = 1, 2, 1 << 5, 1 << 6, 1 << 10, 1 << 12
PAGE = mmap.PAGESIZE
RING_PAGES = 128  # data pages per CPU; a power of two
HEAD, TAIL = 1024, 1032  # perf_event_mmap_page.data_head / data_tail
OUTSIDE = "[outside the executable]"
YARDSTICK = ("agbench::calib::", "ag_sim::reference::")  # agbench's calibration loops


def open_rings(pid, hz):
    """One inherited event and ring per CPU (an inherited event cannot be mapped with cpu = -1)."""
    flags = DISABLED | INHERIT | EXCLUDE_KERNEL | EXCLUDE_HV | FREQ | ENABLE_ON_EXEC
    # PERF_ATTR_SIZE_VER0: type, size, config, sample_freq, sample_type, read_format, flags, wakeup, bp_type, config1
    attr = struct.pack("IIQQQQQIIQ", PERF_TYPE_SOFTWARE, 64, PERF_COUNT_SW_CPU_CLOCK, hz, PERF_SAMPLE_IP, 0, flags, 0, 0, 0)
    libc = ctypes.CDLL(None, use_errno=True)
    rings = []
    for cpu in sorted(os.sched_getaffinity(0)):
        fd = libc.syscall(SYS_PERF_EVENT_OPEN, ctypes.c_char_p(attr), pid, cpu, -1, 0)
        if fd < 0:
            err = ctypes.get_errno()
            sys.exit(f"perf_event_open: {os.strerror(err)} (perf_event_paranoid must be <= 2)")
        rings.append(mmap.mmap(fd, (1 + RING_PAGES) * PAGE, mmap.MAP_SHARED, mmap.PROT_READ | mmap.PROT_WRITE))
    return rings


def drain(ring, counts):
    """Counts the sampled addresses between the ring's tail and head, then releases them."""
    size = RING_PAGES * PAGE
    head, tail = struct.unpack_from("QQ", ring, HEAD)
    while tail < head:  # records are 8-byte aligned, so no 8-byte field straddles the ring's end
        kind, _misc, length = struct.unpack_from("IHH", ring, PAGE + tail % size)
        if kind == PERF_RECORD_SAMPLE:
            counts[struct.unpack_from("Q", ring, PAGE + (tail + 8) % size)[0]] += 1
        tail += length
    struct.pack_into("Q", ring, TAIL, tail)


def load_base(pid, exe):
    """Where the executable's first segment is mapped (0 for a non-PIE one)."""
    with open(exe, "rb") as f:
        pie = struct.unpack_from("H", f.read(18), 16)[0] == 3  # e_type == ET_DYN
    if not pie:
        return 0
    while True:  # the mapping appears at exec
        with open(f"/proc/{pid}/maps") as maps:
            for line in maps:
                if line.rstrip().endswith(exe):
                    return int(line.split("-")[0], 16)
        time.sleep(0.001)


def read_maps(pid, exe, maps):
    """Adds the command's executable mappings to `maps` ({(start, end): (offset, path)}); python's own, before the exec, are skipped."""
    try:
        with open(f"/proc/{pid}/maps") as f:
            lines = f.read().splitlines()
    except OSError:  # the command has exited
        return
    if not any(line.endswith(exe) for line in lines):
        return
    for line in lines:
        fields = line.split(maxsplit=5)
        if "x" in fields[1]:
            start, end = (int(a, 16) for a in fields[0].split("-"))
            maps[(start, end)] = (int(fields[2], 16), fields[5] if len(fields) > 5 else "[anon]")


def exported(path):
    """A shared object's defined dynamic symbols by ascending address (empty if `nm` cannot read it)."""
    out = subprocess.run(["nm", "-D", "--defined-only", "-n", path], capture_output=True, text=True).stdout
    table = [(int(f[0], 16), f[2]) for f in (l.split() for l in out.splitlines()) if len(f) == 3 and f[1] in "TtWiI"]
    return [a for a, _ in table], [n for _, n in table]


def print_outside(samples, maps, total):
    """`samples`: Counter of addresses outside the executable's image."""
    objects = collections.defaultdict(collections.Counter)  # object -> Counter of (hint)
    spans = sorted(maps.items())
    starts = [s for (s, _), _ in spans]
    nm_cache = {}
    for ip, n in samples.items():
        i = bisect.bisect_right(starts, ip) - 1
        if i < 0 or ip >= spans[i][0][1]:
            objects["[unmapped]"]["?"] += n
            continue
        (start, _), (offset, path) = spans[i]
        name = os.path.basename(path) if path.startswith("/") else path
        hint = "?"
        if path.startswith("/"):
            addrs, names = nm_cache.setdefault(path, exported(path))
            j = bisect.bisect_right(addrs, ip - start + offset) - 1
            hint = f"≈ {names[j]}" if j >= 0 else "?"
        objects[name][hint] += n
    print(f"\n{OUTSIDE} by shared object (≈ = nearest exported symbol below the address, approximate):")
    for name, hints in sorted(objects.items(), key=lambda kv: -sum(kv[1].values())):
        print(f"{100 * sum(hints.values()) / total:6.2f}%  {sum(hints.values()):8d}  {name}")
        for hint, n in hints.most_common(5):
            print(f"  {100 * n / total:6.2f}%  {n:8d}  {hint}")


def symbols(exe):
    """The executable's functions by ascending address, closed by the end of its image."""
    out = subprocess.run(["nm", "-C", "-n", exe], capture_output=True, text=True, check=True).stdout
    defined = [l.split(" ", 2) for l in out.splitlines() if l[0] != " "]
    table = [(int(a, 16), name.strip()) for a, kind, name in defined if kind in "tTwW"]
    table.append((int(defined[-1][0], 16) + 1, OUTSIDE))  # past `_end`: libc, the vDSO
    return [a for a, _ in table], [n for _, n in table]


def in_workspace(frame):
    """`True` for a `file:line` frame of the workspace's own sources (not the standard library or its dependencies, a vendored crate or unknown)."""
    return not (frame.startswith("??") or "/rustc/" in frame or "/rust/deps/" in frame or "vendor/" in frame)


def source_lines(exe, offsets, inner):
    """Maps each file offset to the `file:line` of the outermost frame `addr2line -i` prints for it or, with `inner`, of the innermost workspace frame (the outermost if none is)."""
    asked = "".join(f"{o:#x}\n" for o in offsets)
    out = subprocess.run(["addr2line", "-a", "-i", "-e", exe], input=asked, capture_output=True, text=True, check=True).stdout
    frames, key = collections.defaultdict(list), None
    for line in out.splitlines():  # per offset: `0x…`, then one `file:line` per frame, innermost first
        if line.startswith("0x"):
            key = int(line, 16)
        else:
            frames[key].append(line.split(" (discriminator")[0])
    if not inner:
        return {key: fs[-1] for key, fs in frames.items()}
    return {key: next((f for f in fs if in_workspace(f)), fs[-1]) for key, fs in frames.items()}


def print_lines(exe, picked, total, inner):
    """`picked`: function name -> Counter of file offsets sampled inside it. Returns the samples by source file."""
    by_file = collections.Counter()
    for name, offsets in sorted(picked.items(), key=lambda kv: -sum(kv[1].values())):
        where = source_lines(exe, sorted(offsets), inner)
        by_line = collections.Counter()
        for off, n in offsets.items():
            by_line[where.get(off, "??:0")] += n
        print(f"\n{100 * sum(offsets.values()) / total:6.2f}%  {name}")
        for line, n in by_line.most_common():
            print(f"  {100 * n / total:6.2f}%  {n:8d}  {line}")
            by_file[line.rsplit(":", 1)[0]] += n
    return by_file


def print_normalised(by_fn, by_file, total, passes, top):
    """The yardstick's samples per pass as the normaliser row, then everything else and each sampled source file per pass and per yardstick sample."""
    yard = sum(n for name, n in by_fn.items() if any(s in name for s in YARDSTICK))
    if not yard:
        return
    print(f"\nper pass ({passes} passes) and per yardstick sample:")
    print(f"{yard / passes:10.0f}  {1:8.3f}  [yardstick: {', '.join(YARDSTICK)}]")
    print(f"{(total - yard) / passes:10.0f}  {(total - yard) / yard:8.3f}  [everything else]")
    for path, n in by_file.most_common(top):
        print(f"{n / passes:10.0f}  {n / yard:8.3f}  {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("-f", "--hz", type=int, default=5000, help="samples per second of CPU time (default 5000)")
    ap.add_argument("-n", "--top", type=int, default=40, help="rows to print (default 40)")
    ap.add_argument("--lines", action="append", default=[], metavar="SUBSTR", help="also print per-source-line shares of functions whose name contains SUBSTR (repeatable)")
    ap.add_argument("--inner", action="store_true", help="charge each --lines sample to its innermost workspace frame, not its outermost")
    ap.add_argument("--passes", type=float, default=1, help="the run's passes, dividing the normaliser rows (default 1)")
    ap.add_argument("cmd", nargs="+", help="executable and its arguments")
    args = ap.parse_args()
    exe = os.path.realpath(args.cmd[0])
    if not os.access(exe, os.X_OK):
        sys.exit(f"{exe}: not an executable file")
    go_r, go_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: wait until the events exist, then become the command
        os.close(go_w)
        os.read(go_r, 1)
        os.execv(exe, args.cmd)
    rings = open_rings(pid, args.hz)
    os.write(go_w, b"x")
    base = load_base(pid, exe)
    counts, maps = collections.Counter(), {}
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        read_maps(pid, exe, maps)
        for ring in rings:
            drain(ring, counts)
        time.sleep(0.05)
    for ring in rings:
        drain(ring, counts)
    addrs, names = symbols(exe)
    by_fn, picked, outside = collections.Counter(), collections.defaultdict(collections.Counter), collections.Counter()
    for ip, n in counts.items():
        i = bisect.bisect_right(addrs, ip - base) - 1
        name = names[i] if 0 <= i and ip >= base else OUTSIDE
        by_fn[name] += n
        if name == OUTSIDE:
            outside[ip] += n
        elif any(s in name for s in args.lines):
            picked[name][ip - base] += n
    total = sum(by_fn.values())
    print(f"{total} samples at {args.hz} Hz of CPU time", file=sys.stderr)
    for name, n in by_fn.most_common(args.top):
        print(f"{100 * n / total:6.2f}%  {n:8d}  {name}")
    if outside:
        print_outside(outside, maps, total)
    by_file = print_lines(exe, picked, total, args.inner)
    print_normalised(by_fn, by_file, total, args.passes, args.top)


if __name__ == "__main__":
    main()
