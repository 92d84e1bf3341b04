"""Writing your own traced workload.

The library's five built-in workloads model the paper's C programs, but
the same machinery profiles any program you write against the traced
runtime.  This example builds a small log-session analyzer — the kind of
report extractor the paper's PERL rows represent — following the workload
conventions:

* a class holding the heap as ``self.heap``, methods decorated with
  ``@traced`` so allocations carry real call chains;
* an ``xalloc`` wrapper layer (like C's ``xmalloc``), which is why
  length-1 chains predict nothing;
* explicit ``free`` at the program's real ownership boundaries;
* ``touch`` at the algorithm's natural access points.

It then runs the full pipeline: profile on Monday's log, predict on
Tuesday's, and check the true-prediction score.

Run:  python examples/custom_workload.py
"""

import random

from repro import (
    AllocatorSpec,
    TracedHeap,
    evaluate,
    simulate_spec,
    train_site_predictor,
)
from repro.runtime.heap import traced


class LogAnalyzer:
    """Sessionizes a web log and reports per-user hit counts.

    Short-lived: per-line field buffers and parse temporaries.
    Medium-lived: session records (die when the session times out).
    Long-lived: the per-user statistics table (lives to the end).
    """

    SESSION_GAP = 5  # lines of inactivity before a session closes

    def __init__(self, heap: TracedHeap):
        self.heap = heap
        self.sessions = {}  # user -> (record, last_seen, hits)
        self.stats = {}  # user -> stats handle (never freed: the report)
        self.closed_sessions = 0

    @traced
    def xalloc(self, size):
        """Checked allocation wrapper: the xmalloc layer."""
        return self.heap.malloc(size)

    @traced
    def parse_line(self, line, lineno):
        """Split one log line into (user, url), via traced field buffers."""
        fields = line.split()
        buffers = [self.xalloc(16 + len(field)) for field in fields]
        for buf in buffers:
            self.heap.touch(buf, 2)
        user, url = fields[0], fields[1]
        for buf in buffers:
            self.heap.free(buf)
        return user, url

    @traced
    def open_session(self, user, lineno):
        """Allocate a session record (medium-lived)."""
        record = self.xalloc(48)
        self.heap.touch(record, 3)
        self.sessions[user] = [record, lineno, 0]

    @traced
    def close_idle_sessions(self, lineno):
        """Retire sessions idle longer than the gap."""
        for user in list(self.sessions):
            record, last_seen, hits = self.sessions[user]
            if lineno - last_seen > self.SESSION_GAP:
                self.account(user, hits)
                self.heap.free(record)
                del self.sessions[user]
                self.closed_sessions += 1

    @traced
    def account(self, user, hits):
        """Fold a finished session into the (long-lived) stats table."""
        handle = self.stats.get(user)
        if handle is None:
            handle = self.stats[user] = self.xalloc(32 + len(user))
        self.heap.touch(handle, 2)
        handle.payload = (handle.payload or 0) + hits

    @traced
    def run(self, lines):
        for lineno, line in enumerate(lines):
            user, url = self.parse_line(line, lineno)
            if user not in self.sessions:
                self.open_session(user, lineno)
            self.sessions[user][1] = lineno
            self.sessions[user][2] += 1
            self.close_idle_sessions(lineno)
        self.close_idle_sessions(10**9)  # drain


def make_log(seed, lines=3000, users=40):
    rng = random.Random(seed)
    urls = [f"/page/{i}" for i in range(25)]
    return [
        f"user{rng.randint(0, users - 1)} {rng.choice(urls)} 200"
        for _ in range(lines)
    ]


def run_day(name, seed):
    heap = TracedHeap("loganalyzer", dataset=name)
    analyzer = LogAnalyzer(heap)
    analyzer.run(make_log(seed))
    print(f"  {name}: {analyzer.closed_sessions} sessions, "
          f"{len(analyzer.stats)} users, heap clock {heap.clock} bytes")
    return heap.finish()


def main():
    print("running the analyzer on two days of logs...")
    monday = run_day("monday", seed=11)
    tuesday = run_day("tuesday", seed=22)

    predictor = train_site_predictor(monday, threshold=8192)
    print(f"trained on monday: {predictor.site_count} short-lived sites")

    score = evaluate(predictor, tuesday)
    print(f"true prediction on tuesday: {score.predicted_pct:.1f}% of bytes "
          f"(oracle: {score.actual_pct:.1f}%), error {score.error_pct:.2f}%")

    sim = simulate_spec(
        tuesday, AllocatorSpec(threshold=predictor.threshold), predictor
    )
    print(f"arena allocator: {sim.arena_alloc_pct:.1f}% of allocations in "
          f"arenas, {sim.cost.per_pair:.0f} instructions per alloc+free")


if __name__ == "__main__":
    main()
