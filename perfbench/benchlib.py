"""Statistics, /proc readers and span arithmetic for perfbench.

Everything here is pure or reads one /proc file, so `test_benchlib.py`
can check it without a daemon.
"""

import os

# The tail percentile reported beside a median is the highest one, at
# most TAIL_CAP, with at least TAIL_BEYOND samples beyond it. Above p90
# a shared host's slow spells and disk stalls decide the value: p97 and
# p99 step tails spread 25-53% (IQR over median) between runs of
# identical code, twice the spread of p90.
TAIL_BEYOND = 10
TAIL_CAP = 90


def median(values):
    """Median of a non-empty sequence (mean of the middle pair if even)."""
    s = sorted(values)
    if not s:
        raise ValueError("median of no samples")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def percentile(values, p):
    """Nearest-rank percentile (p whole): the smallest sample with at
    least p% of the samples at or below it."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no samples")
    return s[rank(len(s), p) - 1]


def rank(n, p):
    """1-based nearest rank of the p-th percentile (p whole) of n samples."""
    return max(1, -(-p * n // 100))


def beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - rank(n, p)


def tail_percentile(n, cap=TAIL_CAP):
    """The highest whole percentile, at most `cap`, with at least
    TAIL_BEYOND of n samples beyond it; None if even the median lacks
    them."""
    for p in range(cap, 49, -1):
        if beyond(n, p) >= TAIL_BEYOND:
            return p
    return None


def parse_cpu_times(text):
    """(steal, total) jiffies of the aggregate `cpu` line of /proc/stat
    text. Total is user..steal; guest time is already inside user."""
    for line in text.splitlines():
        if line.startswith("cpu "):
            fields = [int(x) for x in line.split()[1:]]
            fields += [0] * (8 - len(fields))
            return fields[7], sum(fields[:8])
    raise ValueError("no aggregate cpu line")


def read_cpu_times():
    with open("/proc/stat") as f:
        return parse_cpu_times(f.read())


def steal_share(before, after):
    """Share of CPU time the hypervisor stole between two read_cpu_times
    readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def parse_proc_stat_cpu(text, ticks_per_s):
    """utime + stime, in seconds, from the text of /proc/<pid>/stat. The
    command name may hold spaces and parentheses, so fields are counted
    from the last ')'."""
    rest = text[text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    return (int(rest[11]) + int(rest[12])) / ticks_per_s


def process_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        return parse_proc_stat_cpu(f.read(), os.sysconf("SC_CLK_TCK"))


def parse_vm_hwm_kb(text):
    """Peak resident set size (VmHWM, kB) from /proc/<pid>/status text."""
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise ValueError("no VmHWM line")


def process_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        return parse_vm_hwm_kb(f.read()) / 1024


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "request")

    def __init__(self, id, parent, name, start, end, request):
        self.id, self.parent, self.name = id, parent, name
        self.start, self.end, self.request = start, end, request

    @property
    def duration(self):
        return self.end - self.start


def parse_spans(text):
    """Spans from the tracer's TSV: id parent name start end request."""
    spans = []
    for line in text.splitlines():
        if line:
            i, parent, name, start, end, request = line.split("\t")
            spans.append(Span(int(i), int(parent), name, int(start), int(end), int(request)))
    return spans


def children_of(spans):
    """Map span id -> list of its child spans."""
    kids = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    return kids


def covered(start, end, intervals):
    """Length of [start, end) covered by the union of intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total, cur_a, cur_b = 0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(span, kids):
    """A span's duration minus the part of it its children cover."""
    mine = kids.get(span.id, [])
    return span.duration - covered(span.start, span.end, [(c.start, c.end) for c in mine])
