#!/usr/bin/env python3
"""Where does a process spend its time, by source line, on a host without perf?

    scripts/hotlines.py N INTERVAL_MS -- CMD ARGS...

    RAYON_NUM_THREADS=1 scripts/hotlines.py 3000 2 -- \\
        target/release/fig1 default --arch smp --csv

Starts CMD, attaches to it with ptrace (PTRACE_SEIZE, so it is never stopped
except to be sampled) and, every INTERVAL_MS of wall time, interrupts it,
reads its program counter and lets it go, N times or until it exits. CMD is
then killed if it still runs. The counters are symbolised once at the end
with `addr2line -f -C -e CMD` (the workspace's release profile carries
`debug = "line-tables-only"`, which is all this needs) and printed as shares
by function, by file:line and by address.

Only CMD's main thread is sampled, so pin it to one (RAYON_NUM_THREADS=1).
A sample taken while the thread waits in the kernel lands on the instruction
after the system call. A sample taken while a load waits for memory lands on
the first instruction that *needs* the loaded value, which is often a line or
two below the load itself: read the by-address table beside `objdump -d`.

Python 3 standard library only; Linux on x86-64 only. CMD's own output goes
to stderr, the report to stdout. Exits 1 when the attach is refused (a
seccomp profile or ptrace_scope >= 2), 2 on a usage error.
"""

import collections
import ctypes
import os
import platform
import signal
import subprocess
import sys
import time

PTRACE_CONT, PTRACE_GETREGS, PTRACE_SEIZE, PTRACE_INTERRUPT = 7, 12, 0x4206, 0x4207
PTRACE_EVENT_STOP = 128
RIP = 16  # index of rip in x86-64's user_regs_struct, 27 words
TOP_FUNCTIONS, TOP_LINES, TOP_ADDRESSES = 15, 40, 40

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]


def ptrace(request, pid, data=None):
    if libc.ptrace(request, pid, None, data) == -1:
        raise OSError(ctypes.get_errno(), os.strerror(ctypes.get_errno()))


def mappings(pid):
    """(start, end, path) of every file-backed or named mapping of `pid`."""
    out = []
    with open(f"/proc/{pid}/maps") as maps:
        for line in maps:
            f = line.split(None, 5)
            if len(f) == 6:
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                out.append((lo, hi, f[5].strip()))
    return out


def stop(pid):
    """Stop `pid` and return its program counter, or None once it has exited.
    The caller resumes it with PTRACE_CONT."""
    ptrace(PTRACE_INTERRUPT, pid)
    while True:
        _, status = os.waitpid(pid, 0)
        if not os.WIFSTOPPED(status):
            return None
        if status >> 16 == PTRACE_EVENT_STOP:
            break
        # A signal of CMD's own arrived first: deliver it and keep waiting.
        ptrace(PTRACE_CONT, pid, os.WSTOPSIG(status))
    regs = (ctypes.c_ulonglong * 27)()
    ptrace(PTRACE_GETREGS, pid, ctypes.addressof(regs))
    return regs[RIP]


def symbolise(exe, addresses):
    """{address: (function, file:line)} from one addr2line run."""
    out = subprocess.run(
        ["addr2line", "-f", "-C", "-e", exe],
        input="".join(f"{a:#x}\n" for a in addresses),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    return {a: (out[2 * i], out[2 * i + 1]) for i, a in enumerate(addresses)}


def short(location):
    """crate/src/file.rs:line of addr2line's absolute path."""
    return "/".join(location.split("/")[-3:])


def table(title, counts, total, top):
    print(f"\n{title} (top {min(top, len(counts))} of {len(counts)}):")
    for key, n in counts.most_common(top):
        print(f"  {100 * n / total:5.1f} %  {n:6d}  {key}")


def main(argv):
    if len(argv) < 5 or argv[3] != "--" or platform.machine() != "x86_64":
        sys.stderr.write(__doc__)
        return 2
    try:
        wanted, interval = int(argv[1]), float(argv[2]) / 1000
    except ValueError:
        sys.stderr.write(__doc__)
        return 2

    child = subprocess.Popen(argv[4:], stdout=sys.stderr)
    pid = child.pid
    try:
        ptrace(PTRACE_SEIZE, pid)
    except OSError as e:
        child.kill()
        child.wait()
        sys.stderr.write(f"hotlines: cannot attach to {argv[4]} (pid {pid}): {e}\n")
        return 1

    exe = os.readlink(f"/proc/{pid}/exe")
    with open(exe, "rb") as f:
        # ET_DYN (3): position-independent, so file addresses are offsets
        # from the first mapping; ET_EXEC (2) is mapped where it was linked.
        relocated = f.read(18)[16] == 3
    own = []  # CMD's own mappings, read at the first stop: exec is over by then
    inside, outside = collections.Counter(), collections.Counter()
    exited = False
    for _ in range(wanted):
        time.sleep(interval)
        pc = stop(pid)
        if pc is None:
            exited = True
            break
        if not own:
            own = [(lo, hi) for lo, hi, path in mappings(pid) if path == exe]
        if any(lo <= pc < hi for lo, hi in own):
            inside[pc - own[0][0] if relocated else pc] += 1
        else:
            # Rare (libc, vdso): name the mapping while the process is stopped.
            outside[next((path for lo, hi, path in mappings(pid) if lo <= pc < hi),
                         "unmapped")] += 1
        ptrace(PTRACE_CONT, pid, 0)
    if exited:
        child.returncode = 0  # reaped by stop(); nothing left to wait for
    else:
        child.send_signal(signal.SIGKILL)
        while os.WIFSTOPPED(os.waitpid(pid, 0)[1]):
            pass
        child.returncode = -signal.SIGKILL

    total = sum(inside.values()) + sum(outside.values())
    if total == 0:
        sys.stderr.write("hotlines: CMD exited before the first sample\n")
        return 1
    names = symbolise(exe, sorted(inside))
    functions, lines, addresses = (collections.Counter() for _ in range(3))
    for addr, n in inside.items():
        function, line = names[addr]
        functions[function] += n
        lines[f"{short(line)}  ({function})"] += n
        addresses[f"{addr:#x}  {short(line)}"] += n
    for path, n in outside.items():
        functions[f"[{path}]"] += n
        lines[f"[{path}]"] += n
    print(f"{total} samples of {' '.join(argv[4:])}, one every {argv[2]} ms"
          + (", until it exited" if exited else ", then killed"))
    table("by function", functions, total, TOP_FUNCTIONS)
    table("by file:line", lines, total, TOP_LINES)
    table("by address in " + os.path.basename(exe), addresses, total, TOP_ADDRESSES)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
