#!/usr/bin/env python3
"""Integration tests for the affsched_served sweep daemon.

Four scenarios, each driving the real daemon binary through the real
reference client (tools/affsched_client.py), so the wire protocol, the
content-addressed cache, and the crash/shard recovery paths are all
exercised end to end:

  cache-twice   Submit the same spec twice against a fresh cache: the second
                run must be >= 95% cache hits and its saved document byte-
                identical to the first (and to `simctl --sweep` when
                --simctl is given).

  kill-resume   Run the sweep once uninterrupted for a golden document. Then
                start a throttled daemon on a fresh cache, SIGKILL it after
                some cells have checkpointed, restart on the same cache, and
                resubmit: the completed cells must carry over as hits, only
                the missing ones re-simulate, and the final document must be
                byte-identical to the golden.

  shard         One coordinator (--no-local-execution) plus two --worker
                processes sharing a spool and cache: every cell must be
                resolved remotely and the document must still be golden.

  bad-spec      Submit hostile specs (non-finite, trailing-garbage and out-of-
                range numbers): each must come back as an "error" event, and
                the daemon must still answer ping and complete a good submit.

Usage:
  tools/serve_integration_test.py --served BIN --mode cache-twice \
      [--simctl BIN] [--client tools/affsched_client.py] [--spec SPEC]
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

DEFAULT_SPEC = "smoke;reps=2"


class Harness:
    def __init__(self, args, workdir):
        self.args = args
        self.workdir = pathlib.Path(workdir)
        self.procs = []

    def path(self, name):
        return str(self.workdir / name)

    def start_daemon(self, *extra, socket_name="daemon.sock", cache="cache"):
        cmd = [self.args.served, "--socket", self.path(socket_name),
               "--cache-dir", self.path(cache), "--jobs", "2"] + list(extra)
        proc = subprocess.Popen(cmd, stderr=subprocess.PIPE)
        self.procs.append(proc)
        self.wait_for_socket(self.path(socket_name), proc)
        return proc

    def start_worker(self, *extra, cache="cache", spool="spool"):
        cmd = [self.args.served, "--worker", "--spool", self.path(spool),
               "--cache-dir", self.path(cache), "--worker-idle-ms", "10000"] + list(extra)
        proc = subprocess.Popen(cmd, stderr=subprocess.PIPE)
        self.procs.append(proc)
        return proc

    def wait_for_socket(self, path, proc, timeout=30.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            if os.path.exists(path):
                return
            if proc.poll() is not None:
                fail("daemon exited before listening: %s" % proc.stderr.read().decode())
            time.sleep(0.05)
        fail("daemon socket %s never appeared" % path)

    def client(self, socket_name, *argv, check=True):
        cmd = [sys.executable, self.args.client, "--socket", self.path(socket_name)] + list(argv)
        result = subprocess.run(cmd, capture_output=True, text=True)
        if check and result.returncode != 0:
            fail("client %s failed:\n%s\n%s" % (argv, result.stdout, result.stderr))
        return result

    def submit(self, socket_name, out_name, spec=None):
        """Submits and returns the summary dict {cells, hits, executed, remote}."""
        result = self.client(socket_name, "submit", spec or self.args.spec,
                             "--quiet", "--out", self.path(out_name))
        return json.loads(result.stdout.strip().splitlines()[-1])

    def shutdown(self, socket_name):
        self.client(socket_name, "shutdown")

    def cleanup(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def fail(message):
    print("FAIL: %s" % message, file=sys.stderr)
    sys.exit(1)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def cell_count(cache_dir):
    if not os.path.isdir(cache_dir):
        return 0
    return sum(1 for name in os.listdir(cache_dir) if name.endswith(".cell"))


def batch_golden(harness, out_name):
    """Runs `simctl --sweep` for the same spec; returns the document bytes."""
    out = harness.path(out_name)
    subprocess.run([harness.args.simctl, "--sweep=" + harness.args.spec,
                    "--jobs=2", "--out=" + out],
                   check=True, capture_output=True)
    return read_bytes(out)


def mode_cache_twice(harness):
    harness.start_daemon()
    first = harness.submit("daemon.sock", "r1.json")
    if first["hits"] != 0:
        fail("fresh cache reported hits: %s" % first)
    second = harness.submit("daemon.sock", "r2.json")
    if second["cells"] == 0 or second["hits"] < 0.95 * second["cells"]:
        fail("resubmission not served from cache: %s" % second)
    stats = json.loads(harness.client("daemon.sock", "stats").stdout)
    harness.shutdown("daemon.sock")
    r1, r2 = read_bytes(harness.path("r1.json")), read_bytes(harness.path("r2.json"))
    if r1 != r2:
        fail("resubmission document differs from first run")
    if harness.args.simctl:
        if r1 != batch_golden(harness, "batch.json"):
            fail("served document differs from simctl --sweep")
    print("cache-twice: %d/%d cells from cache, documents byte-identical"
          % (second["hits"], second["cells"]))
    print(json.dumps(stats["cache"]))


def mode_kill_resume(harness):
    # Golden, uninterrupted run on its own cache.
    harness.start_daemon(socket_name="golden.sock", cache="cache-golden")
    golden_summary = harness.submit("golden.sock", "golden.json")
    harness.shutdown("golden.sock")
    golden = read_bytes(harness.path("golden.json"))
    total = golden_summary["cells"]

    # Throttled run on a fresh cache, killed after some cells checkpoint.
    daemon = harness.start_daemon("--cell-delay-ms", "200",
                                  socket_name="victim.sock", cache="cache")
    victim = subprocess.Popen(
        [sys.executable, harness.args.client, "--socket", harness.path("victim.sock"),
         "submit", harness.args.spec, "--quiet"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    harness.procs.append(victim)
    deadline = time.time() + 60
    while cell_count(harness.path("cache")) < 3:
        if time.time() > deadline:
            fail("no cells checkpointed before the kill window")
        if daemon.poll() is not None:
            fail("daemon exited before it could be killed")
        time.sleep(0.02)
    daemon.send_signal(signal.SIGKILL)
    daemon.wait()
    victim.wait()
    survivors = cell_count(harness.path("cache"))
    if survivors == 0 or survivors >= total:
        fail("kill window missed: %d/%d cells survived" % (survivors, total))

    # Resume on the surviving cache: only the missing cells may re-simulate.
    harness.start_daemon(socket_name="resume.sock", cache="cache")
    resumed = harness.submit("resume.sock", "resumed.json")
    harness.shutdown("resume.sock")
    if resumed["hits"] < survivors:
        fail("resume re-simulated checkpointed cells: %d survivors, summary %s"
             % (survivors, resumed))
    if resumed["executed"] != total - resumed["hits"]:
        fail("resume cell accounting off: %s (total %d)" % (resumed, total))
    if read_bytes(harness.path("resumed.json")) != golden:
        fail("resumed document differs from uninterrupted golden")
    print("kill-resume: %d/%d cells survived the kill, %d re-simulated, "
          "document matches golden" % (survivors, total, resumed["executed"]))


def mode_shard(harness):
    workers = [harness.start_worker(), harness.start_worker()]
    harness.start_daemon("--spool", harness.path("spool"), "--no-local-execution")
    summary = harness.submit("daemon.sock", "sharded.json")
    if summary["remote"] != summary["cells"] or summary["executed"] != 0:
        fail("coordinator simulated cells itself: %s" % summary)
    second = harness.submit("daemon.sock", "sharded2.json")
    if second["hits"] != second["cells"]:
        fail("sharded results not cached: %s" % second)
    harness.shutdown("daemon.sock")
    if read_bytes(harness.path("sharded.json")) != read_bytes(harness.path("sharded2.json")):
        fail("sharded document not stable across submissions")
    if harness.args.simctl:
        if read_bytes(harness.path("sharded.json")) != batch_golden(harness, "batch.json"):
            fail("sharded document differs from simctl --sweep")
    for worker in workers:
        if worker.wait(timeout=60) != 0:
            fail("worker exited nonzero: %s" % worker.stderr.read().decode())
    print("shard: %d/%d cells executed by workers, document golden"
          % (summary["remote"], summary["cells"]))


BAD_SPECS = [
    "speed=nan",
    "procs=4x",
    "topology=cmp-2x10,llc-factor=nan",
    "topology=numa-4x8,remote=1e20",
    "speed=1e-9",
    "procs=100000",
]


def mode_bad_spec(harness):
    daemon = harness.start_daemon()
    for override in BAD_SPECS:
        spec = "smoke;mixes=1;policies=equi;reps=1;" + override
        result = harness.client("daemon.sock", "submit", spec, "--quiet", check=False)
        if result.returncode == 0 or "server error: bad spec:" not in result.stderr:
            fail("hostile spec %r was not answered with an error event:\n%s%s"
                 % (spec, result.stdout, result.stderr))
        if daemon.poll() is not None:
            fail("daemon died on hostile spec %r: %s" % (spec, daemon.stderr.read().decode()))
    pong = harness.client("daemon.sock", "ping")
    if json.loads(pong.stdout).get("event") != "pong":
        fail("daemon did not answer ping after hostile specs: %s" % pong.stdout)
    summary = harness.submit("daemon.sock", "good.json", spec="smoke;reps=1")
    if summary["cells"] == 0:
        fail("good submit after hostile specs ran no cells: %s" % summary)
    harness.shutdown("daemon.sock")
    print("bad-spec: %d hostile specs rejected, daemon still serving (%d cells)"
          % (len(BAD_SPECS), summary["cells"]))


MODES = {
    "bad-spec": mode_bad_spec,
    "cache-twice": mode_cache_twice,
    "kill-resume": mode_kill_resume,
    "shard": mode_shard,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--served", required=True, help="affsched_served binary")
    parser.add_argument("--simctl", help="simctl binary (enables batch golden comparison)")
    parser.add_argument("--client",
                        default=str(pathlib.Path(__file__).parent / "affsched_client.py"),
                        help="reference client script")
    parser.add_argument("--mode", required=True, choices=sorted(MODES))
    parser.add_argument("--spec", default=DEFAULT_SPEC, help="sweep spec to submit")
    args = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix="affserve-%s-" % args.mode)
    harness = Harness(args, workdir)
    try:
        MODES[args.mode](harness)
        print("PASS: %s" % args.mode)
        return 0
    finally:
        harness.cleanup()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
