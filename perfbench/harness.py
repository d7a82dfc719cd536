"""Shared machinery of the benchmark: statistics, memory sampling,
set-up probes, provenance and digests.

Nothing here imports :mod:`repro`; the workload modules do, after
``run.py`` has put the checkout's ``src`` on the path.
"""

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy

#: Fresh processes launched per run to time the workload's set-up; the
#: reported ``setup_s`` is their median.
SETUP_PROBES = 3

#: Printed by a set-up probe when its set-up is complete.
SETUP_DONE = "perfbench-setup-done"


def median(values):
    values = sorted(values)
    if not values:
        return 0.0
    middle = len(values) // 2
    if len(values) % 2:
        return float(values[middle])
    return (values[middle - 1] + values[middle]) / 2.0


def percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..100)."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    return values[rank - 1]


def beyond(values, q):
    """How many samples lie strictly above the ``q`` percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def rep_seed(seed, repetition):
    """The input seed of one repetition.  Each repetition of a run
    draws its own inputs, so a run's median covers many inputs rather
    than one; all of them follow from the workload ``seed``."""
    state = numpy.random.SeedSequence([seed, repetition]).generate_state(1)
    return int(state[0])


def digest(document):
    """SHA-256 of a JSON-canonical rendering of ``document``."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Memory: peak resident set of this process plus its live descendants.
# ----------------------------------------------------------------------

def _rss_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _children():
    """``{parent pid: [child pids]}`` over every visible process."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1:
            children.setdefault(int(fields[1]), []).append(int(entry))
    return children


class RssSampler:
    """Samples the summed RSS of this process tree every ``period_s``.

    Pool workers and the service subprocess live inside the tree, so
    their memory counts; set-up probes have exited before the sampler
    starts, so theirs does not.
    """

    def __init__(self, period_s=0.1):
        self.period_s = period_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self):
        children = _children()
        total, stack = 0, [os.getpid()]
        while stack:
            pid = stack.pop()
            total += _rss_kb(pid)
            stack.extend(children.get(pid, ()))
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self):
        while not self._stop.wait(self.period_s):
            self.sample()

    def __enter__(self):
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()
        self.sample()

    @property
    def peak_mb(self):
        return self.peak_kb / 1024.0


# ----------------------------------------------------------------------
# Set-up time: several fresh processes, timed from launch to ready.
# ----------------------------------------------------------------------

def probe_setup(script, workload, seed, env, count=SETUP_PROBES,
                timeout_s=120.0):
    """Launch ``count`` set-up probes one after another; returns each
    one's seconds from process launch to the end of its set-up."""
    times = []
    for _ in range(count):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(script), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        ready = None
        try:
            for line in proc.stdout:
                if line.strip() == SETUP_DONE:
                    ready = time.perf_counter() - started
                    break
            proc.stdout.read()
            proc.wait(timeout=timeout_s)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if ready is None or proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe for {workload} failed "
                f"(exit {proc.returncode})"
            )
        times.append(ready)
    return times


# ----------------------------------------------------------------------
# Provenance.
# ----------------------------------------------------------------------

def _git_revision(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root):
    """SHA-256 over the package sources, a revision id that also works
    in a checkout that is not a git repository."""
    sha = hashlib.sha256()
    src = Path(root) / "src"
    for path in sorted(src.rglob("*.py")):
        sha.update(str(path.relative_to(src)).encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()


def provenance(root, seed):
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": _git_revision(Path(root)),
        "source_sha256": source_digest(root),
    }
