#!/usr/bin/env python3
"""Sample one process's call stacks by frame-pointer walking under ptrace.

    tools/profile.py [--under FRAME | --children FRAME] [--top N] -- <command> [args...]

Starts <command>, attaches to its main thread with PTRACE_SEIZE, and
about HZ (1000) times a second stops it with PTRACE_INTERRUPT,
reads rip/rbp and follows the saved-frame-pointer chain up the stack,
then lets it run on. The walk is only as good as the frame pointers: build
the program with `-C force-frame-pointers=yes` (tools/profile.sh does). A
frame without one (libc, the allocator) hides its direct caller; the
sample still counts for everything further up.

When the command exits, every sampled address is symbolized with `nm`
against the object mapped at it (the executable's own symbol table,
libc's dynamic one), and three tables are printed: self (the sampled
frame), inclusive (every function on the stack, once per sample) and
owner (the innermost frame in one of the crates named by OWNERS, so an
allocation or a hash charges the library function that asked for it). With
--under, only the samples whose stack holds a function whose name
contains FRAME count, and shares are of those. --children FRAME counts
the same samples and prints one table instead: each sample charged to
the frame directly below the outermost frame whose name contains FRAME
(its callee; `(self)` when the sample is in that frame itself) — what a
function's time splits into. The exit status is the command's own when
that is not 0 (128 + the signal when one killed it), else 1 when --under
or --children was given and no sample landed under FRAME, else 0.
The command's stdout goes to stderr.

Standard library plus `nm`; x86-64 Linux only.
"""

import argparse
import bisect
import collections
import ctypes
import os
import re
import struct
import subprocess
import sys
import time

PTRACE_CONT, PTRACE_GETREGS, PTRACE_DETACH = 7, 12, 17
PTRACE_SEIZE, PTRACE_INTERRUPT = 0x4206, 0x4207
PTRACE_EVENT_STOP = 128
WALL = 0x40000000
MAX_DEPTH = 256
HZ = 1000.0
OWNERS = re.compile(r"^<?idivm_(core|reldb|ingest|sched|exec)::")

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


class Regs(ctypes.Structure):
    """`struct user_regs_struct` of x86-64, in kernel order."""

    _fields_ = [(n, ctypes.c_ulonglong) for n in (
        "r15 r14 r13 r12 rbp rbx r11 r10 r9 r8 rax rcx rdx rsi rdi orig_rax "
        "rip cs eflags rsp ss fs_base gs_base ds es fs gs").split()]


def ptrace(req, pid, addr=0, data=0):
    if libc.ptrace(req, pid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, f"ptrace({req:#x}): {os.strerror(err)}")


def stack(pid, mem):
    """The interrupted thread's return addresses, innermost first."""
    regs = Regs()
    ptrace(PTRACE_GETREGS, pid, 0, ctypes.addressof(regs))
    out, fp = [regs.rip], regs.rbp
    while fp and fp % 8 == 0 and len(out) < MAX_DEPTH:
        try:
            nxt, ret = struct.unpack("<QQ", os.pread(mem, 16, fp))
        except OSError:
            break
        if not ret:
            break
        out.append(ret - 1)  # inside the call instruction, not after it
        if nxt <= fp:
            break
        fp = nxt
    return tuple(out)


def mappings(pid):
    """(start, end, load base, path) of every file-backed executable mapping."""
    regions, bases = [], {}
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split()
            if len(parts) < 6 or not parts[5].startswith("/"):
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            path = parts[5]
            if int(parts[2], 16) == 0:
                bases.setdefault(path, start)
            if "x" in parts[1]:
                regions.append((start, end, path))
    return [(s, e, load_base(p, bases.get(p, 0)), p) for s, e, p in regions]


def load_base(path, first_mapping):
    """Where the object's link-time address 0 sits: its first mapping for
    a position-independent object, 0 for a fixed-address executable."""
    with open(path, "rb") as f:
        header = f.read(18)
    return first_mapping if header[16:18] == b"\x03\x00" else 0  # ET_DYN


def symbols(path):
    """Sorted (address, name) of the object's functions, per `nm`."""
    out = []
    for dynamic in ([], ["-D"]):
        listing = subprocess.run(["nm", "--defined-only", "-C", *dynamic, path],
                                 capture_output=True, text=True).stdout
        for line in listing.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "TtWwi":
                out.append((int(parts[0], 16), re.sub(r"::h[0-9a-f]{16}$", "", parts[2])))
        if out:
            break  # the static table when there is one, else the dynamic one
    out.sort()
    return out


class Symbolizer:
    def __init__(self, regions):
        self.regions = sorted(regions)
        self.tables = {}

    def name(self, addr):
        i = bisect.bisect_right(self.regions, (addr, float("inf"))) - 1
        if i < 0 or not self.regions[i][0] <= addr < self.regions[i][1]:
            return f"[unknown {addr:#x}]"
        _, _, base, path = self.regions[i]
        if path not in self.tables:
            table = symbols(path)
            self.tables[path] = ([a for a, _ in table], [n for _, n in table])
        addrs, names = self.tables[path]
        j = bisect.bisect_right(addrs, addr - base) - 1
        return names[j] if j >= 0 else f"[{os.path.basename(path)}]"


def sample(cmd):
    """Run `cmd` to its end; the count of each sampled stack, the
    mappings seen, and the command's exit status."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    pid = proc.pid
    ptrace(PTRACE_SEIZE, pid)
    mem = os.open(f"/proc/{pid}/mem", os.O_RDONLY)
    stacks, regions, status = collections.Counter(), None, None
    while status is None:
        time.sleep(1.0 / HZ)
        try:
            ptrace(PTRACE_INTERRUPT, pid)
        except OSError:
            pass  # exiting: the wait below says so
        while True:
            _, st = os.waitpid(pid, WALL)
            if os.WIFEXITED(st) or os.WIFSIGNALED(st):
                status = os.waitstatus_to_exitcode(st)
                break
            if (st >> 16) == PTRACE_EVENT_STOP:
                try:
                    stacks[stack(pid, mem)] += 1
                    if regions is None or not any("libc" in r[3] for r in regions):
                        regions = mappings(pid)
                except OSError:
                    pass
                ptrace(PTRACE_CONT, pid)
                break
            # A signal on its way to the program: deliver it, then wait
            # for the interrupt still owed.
            ptrace(PTRACE_CONT, pid, 0, os.WSTOPSIG(st))
    os.close(mem)
    return stacks, regions or [], status


def table(title, counts, total, top):
    print(f"\n{title}")
    print(f"{'share':>7} {'samples':>8}  function")
    for name, n in counts.most_common(top):
        print(f"{100.0 * n / total:6.1f}% {n:8d}  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    frame = ap.add_mutually_exclusive_group()
    frame.add_argument("--under", help="count only stacks through a function whose name contains this")
    frame.add_argument("--children", help="as --under, then split the samples by the callee "
                       "of the outermost such frame")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("cmd", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no command")
    stacks, regions, status = sample(cmd)
    sym = Symbolizer(regions)
    self_counts, incl_counts, owner_counts, child_counts = (
        collections.Counter() for _ in range(4))
    frame = args.under or args.children
    total = under = 0
    for addrs, n in stacks.items():
        names = [sym.name(a) for a in addrs]
        total += n
        hits = [i for i, f in enumerate(names) if frame in f] if frame else [len(names)]
        if not hits:
            continue
        under += n
        outermost = hits[-1]  # names run innermost first
        child_counts[names[outermost - 1] if outermost else "(self)"] += n
        self_counts[names[0]] += n
        for f in set(names):
            incl_counts[f] += n
        owner_counts[next((f for f in names if OWNERS.match(f)), "(no idivm frame)")] += n
    print(f"command exit status {status}; {total} samples", end="")
    print(f", {under} under `{frame}`" if frame else "")
    if under and args.children:
        table(f"children (the callee of the outermost `{frame}` frame)",
              child_counts, under, args.top)
    elif under:
        table("self (the sampled frame)", self_counts, under, args.top)
        table("inclusive (anywhere on the stack)", incl_counts, under, args.top)
        table("owner (the first idivm_{core,reldb,ingest,sched,exec} frame)",
              owner_counts, under, args.top)
    if status:
        sys.exit(status if status > 0 else 128 - status)  # killed by signal -status
    sys.exit(1 if frame and not under else 0)


if __name__ == "__main__":
    main()
