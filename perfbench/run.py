#!/usr/bin/env python3
"""The repository benchmark: batch and served mining.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run builds the library, the
three shipped programs (mine_cli, pincer_serve, pincer_shard) and
perfbench_helper into .bench_build/. A run generates its inputs from the
seed, drives the programs the way users run them, checks every answer
against an independent reference, and prints one JSON object as the last
line of stdout: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. perfbench/README.md describes the workloads and
metrics.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join('.bench_build', 'cmake')
PROGRAMS = {
    'mine_cli': 'pincer/examples/mine_cli',
    'pincer_serve': 'pincer/examples/pincer_serve',
    'pincer_shard': 'pincer/examples/pincer_shard',
    'helper': 'perfbench_helper',
}
TARGETS = ['example_mine_cli', 'example_pincer_serve', 'example_pincer_shard',
           'perfbench_helper']

WORKLOADS = {
    'scattered': ['scattered'],
    'serve': ['scattered', 'concentrated'],
}
# A run is a warm-up round, then rounds of the same work until --seconds
# have passed, at least MIN_ROUNDS of them. A round on `scattered` is
# JOBS_PER_ROUND mine_cli jobs and then one window of the served probe; on
# `serve`, one window. A window boots a daemon (the setup sample), runs one
# cycle of the mining connection's queries with hits and filters
# alongside, and stops the daemon, so the served mines are spread over as
# many daemon processes as there are rounds, as the jobs are over job
# processes: two daemons booted one after the other mined up to 29% apart
# for as long as they ran. Every round does the same work, so the served
# percentiles are taken over the measured rounds' answers pooled, and
# setup_s is the median of the rounds' boots.
MIN_ROUNDS = 5
JOBS_PER_ROUND = 2

END_TO_END = {
    'job_s': 's', 'setup_s': 's', 'qps': '1/s',
    'hit_ms_p50': 'ms', 'hit_ms_p90': 'ms',
    'filter_ms_p50': 'ms', 'filter_ms_p90': 'ms',
    'miss_ms_p50': 'ms', 'miss_ms_p90': 'ms',
    'peak_rss_mb': 'MB', 'db_passes': 'count', 'candidates': 'count',
}
PER_LAYER = {
    'data.read_ms': 'ms', 'data.read_mb_s': 'MB/s', 'data.bitsets_ms': 'ms',
    'counting.build_ms': 'ms', 'counting.count_ms': 'ms',
    'counting.calls': 'count', 'counting.candidates': 'count',
    'counting.us_per_candidate': 'us', 'counting.fastpath_ms': 'ms',
    'counting.frequent_ratio': 'fraction',
    'counting.vertical_share': 'fraction',
    'core.mine_ms': 'ms', 'core.self_ms': 'ms', 'core.gen_ms': 'ms',
    'core.mfcs_ms': 'ms', 'core.unattributed_ms': 'ms',
    'core.bottom_up_frequent': 'count', 'core.mfcs_candidates': 'count',
    'core.mfcs_yield': 'fraction', 'core.mfcs_off_pass': 'count',
    'apriori.mine_ms': 'ms',
    'serve.init_ms': 'ms', 'serve.hit_handle_ms': 'ms',
    'serve.filter_handle_ms': 'ms', 'serve.miss_handle_ms': 'ms',
    'serve.socket_ms': 'ms', 'serve.hit_share': 'fraction',
    'serve.filter_share': 'fraction', 'serve.miss_share': 'fraction',
    'serve.filter_yield': 'fraction', 'serve.response_kb': 'KB',
    'orchestrate.run_ms': 'ms', 'orchestrate.shard_ms': 'ms',
    'orchestrate.supervise_ms': 'ms', 'orchestrate.merge_ms': 'ms',
    'orchestrate.validate_ms': 'ms', 'orchestrate.other_ms': 'ms',
    'orchestrate.union_candidates': 'count',
    'orchestrate.validate_us_per_candidate': 'us',
    'orchestrate.worker_mine_ms': 'ms', 'orchestrate.worker_attempts': 'count',
    'trace.overhead_pct': '%',
}

LIVE = []  # every process this run started and has not reaped yet


class BenchError(Exception):
    """A failure of the benchmark itself (not of an answer): no result."""


def info(message):
    print(message, flush=True)


def program(name):
    return os.path.join(BUILD_DIR, PROGRAMS[name])


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join('.bench_build', 'build.log'), 'w') as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, 'CMakeCache.txt')):
            steps.append(['cmake', '-S', BENCH_DIR, '-B', BUILD_DIR,
                          '-DCMAKE_BUILD_TYPE=Release'])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(['cmake', '--build', BUILD_DIR, '-j', jobs, '--target']
                     + TARGETS)
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                raise BenchError('build failed: ' + ' '.join(step) +
                                 ' (see .bench_build/build.log)')


def spawn(argv, **kwargs):
    proc = subprocess.Popen(argv, **kwargs)
    LIVE.append(proc)
    return proc


def reap(proc):
    """Waits for `proc`; returns (exit code, peak RSS of it and its reaped
    children in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    LIVE.remove(proc)
    return proc.returncode, usage.ru_maxrss / 1024.0


def collect(proc):
    """Reads a piped child's stdout to EOF and waits for it."""
    out, _ = proc.communicate()
    LIVE.remove(proc)
    return out, proc.returncode


def stop_all():
    for proc in list(LIVE):
        proc.kill()
        proc.wait()
        LIVE.remove(proc)


def run_job(argv, out_path, err_path):
    """One batch job, timed from spawn to exit."""
    with open(out_path, 'wb') as out, open(err_path, 'wb') as err:
        start = time.perf_counter()
        proc = spawn(argv, stdout=out, stderr=err)
        code, rss = reap(proc)
        return time.perf_counter() - start, code, rss


def helper_json(argv):
    out, code = collect(spawn([program('helper')] + argv,
                              stdout=subprocess.PIPE))
    if code != 0:
        raise BenchError('perfbench_helper %s exited with %d' % (argv[0], code))
    return json.loads(out)


def generate(run_dir, kinds, seed, drop):
    """Writes each kind's database, reference and expected mine_cli output,
    the helpers running side by side."""
    procs = {}
    for kind in kinds:
        paths = {ext: os.path.join(run_dir, kind + '.' + ext)
                 for ext in ('basket', 'ref', 'txt')}
        argv = [program('helper'), 'gen', '--kind=' + kind, '--seed=%d' % seed,
                '--out=' + paths['basket'], '--ref=' + paths['ref'],
                '--expect=' + paths['txt']] + (['--drop'] if drop else [])
        procs[kind] = (spawn(argv, stdout=subprocess.PIPE), paths)
    inputs = {}
    for kind, (proc, paths) in procs.items():
        out, code = collect(proc)
        if code != 0:
            raise BenchError('input generation failed for ' + kind)
        inputs[kind] = dict(json.loads(out), **paths)
        with open(paths['txt'], 'rb') as expected:
            inputs[kind]['expected'] = expected.read()
    return inputs


def db_spec(inputs, kinds):
    return ','.join('%s=%s@%s' % (kind, inputs[kind]['basket'],
                                  inputs[kind]['ref'])
                    for kind in kinds)


def boot(inputs, kinds, sock):
    """Starts pincer_serve; returns (process, seconds from spawn to READY)."""
    argv = [program('pincer_serve'), '--socket=' + sock] + [
        '--db=%s=%s' % (kind, inputs[kind]['basket']) for kind in kinds]
    start = time.perf_counter()
    proc = spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    ready, _, _ = select.select([proc.stdout], [], [], 120)
    line = proc.stdout.readline() if ready else b''
    elapsed = time.perf_counter() - start
    if not line.startswith(b'READY'):
        return proc, None
    return proc, elapsed


def stop(proc):
    proc.send_signal(signal.SIGTERM)
    code, rss = reap(proc)
    proc.stdout.close()
    return code, rss


def quantile(values, q):
    """The q-th percentile, interpolated between the sorted values and never
    beyond them."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method='inclusive')[q - 1]


class Client:
    """The serve traffic (perfbench_helper client), driven round by round."""

    def __init__(self, run):
        self.run = run
        self.proc = spawn(
            [program('helper'), 'client', '--socket=' + run.sock,
             '--dbs=' + db_spec(run.inputs, run.kinds)]
            + (['--drop'] if run.args.drop_reference_itemset else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.reply('start')

    def reply(self, what):
        if not self.proc.stdout.readline().startswith(b'ok'):
            raise BenchError('serve client failed on ' + what)

    def command(self, line):
        self.proc.stdin.write((line + '\n').encode())
        self.proc.stdin.flush()
        self.reply('"%s"' % line)

    def finish(self):
        """Ends the traffic; returns the client's checked tallies."""
        out, code = collect(self.proc)  # closes stdin: the client's EOF
        if code != 0:
            raise BenchError('serve client exited with %d' % code)
        result = json.loads(out)
        self.run.tally_helper(result, 'served')
        return result


class Run:
    """One benchmark run: its inputs, work directory and tallies."""

    def __init__(self, args):
        self.args = args
        self.kinds = WORKLOADS[args.workload]
        self.dir = os.path.join('.bench_build', 'runs', '%s-%d-%d' % (
            args.workload, args.seed, os.getpid()))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.sock = os.path.join(self.dir, 'd.sock')
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.peak_rss = 0.0
        self.inputs = {}
        self.jobs_run = 0

    def prepare(self):
        self.inputs = generate(self.dir, self.kinds, self.args.seed,
                               self.args.drop_reference_itemset)
        for kind in self.kinds:
            i = self.inputs[kind]
            info('input %s: %s seed=%d quest_seed=%d file_bytes=%d '
                 'base_support=%g frequent=%d mfs_size=%d mfs_max_len=%d' % (
                     kind, i['quest'], i['seed'], i['quest_seed'],
                     i['file_bytes'], i['base_support'], i['frequent'],
                     i['mfs_size'], i['mfs_max_len']))

    def tally(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def tally_helper(self, result, label):
        """Adds the operations a helper subcommand checked itself."""
        self.attempted += result['attempted']
        self.failed += result['failed']
        if result['failed']:
            self.failures.append(label + ': ' + result['first_failure'])

    def boot(self):
        proc, elapsed = boot(self.inputs, self.kinds, self.sock)
        if not self.tally(elapsed is not None, 'daemon did not print READY'):
            raise BenchError('pincer_serve did not start')
        return proc, elapsed

    def stop(self, daemon):
        code, rss = stop(daemon)
        self.tally(code == 0, 'pincer_serve exited with %d' % code)
        self.peak_rss = max(self.peak_rss, rss)

    def client(self):
        return Client(self)

    # Batch jobs -----------------------------------------------------------

    def job(self):
        """Runs one mine_cli job; returns (seconds, passes, candidates), or
        None when it failed."""
        index = self.jobs_run
        self.jobs_run += 1
        kind = self.kinds[0]
        out = os.path.join(self.dir, 'job.out')
        err = os.path.join(self.dir, 'job.err')
        seconds, code, rss = run_job(
            [program('mine_cli'), self.inputs[kind]['basket'],
             '--min-support=%r' % self.inputs[kind]['base_support'],
             '--backend=auto', '--stats'],
            out, err)
        self.peak_rss = max(self.peak_rss, rss)
        with open(out, 'rb') as f:
            matches = f.read() == self.inputs[kind]['expected']
        if not self.tally(code == 0 and matches, 'job %d: exit %d, output %s' % (
                index, code, 'matches' if matches else 'differs from the reference')):
            return None
        with open(err, 'r', errors='replace') as f:
            stats = dict(line.split(': ', 1) for line in f.read().splitlines()
                         if ': ' in line)
        return (seconds, int(stats['passes']),
                int(stats['reported candidates (>= pass 3, incl. MFCS)']))

    def rounds(self, seconds, client):
        """The warm-up round, then measured rounds until `seconds` have
        passed; returns the measured rounds as (jobs, setup seconds), the
        jobs as Run.job returns them with failed ones left out."""
        rounds = []
        start = None
        while (start is None or len(rounds) < MIN_ROUNDS or
               time.perf_counter() - start < seconds):
            jobs = []
            if self.args.workload == 'scattered':
                jobs = [self.job() for _ in range(JOBS_PER_ROUND)]
            daemon, boot = self.boot()
            client.command('window 1')
            self.stop(daemon)
            if start is None:
                start = time.perf_counter()
            else:
                rounds.append(([job for job in jobs if job is not None], boot))
        return rounds

    def finish(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def end_to_end(run, seconds):
    client = run.client()
    rounds = run.rounds(seconds, client)
    served = client.finish()
    windows = served['windows'][1:]  # the first is the warm-up round's

    def pooled(outcome, q):
        """The q-th percentile over every query answered in the measured
        rounds' windows."""
        return quantile([ms for w in windows for ms in w[outcome + '_ms']], q)

    setup_s = quantile([boot for _, boot in rounds], 50)
    if run.args.workload == 'serve':
        job_s = pooled('all', 50) / 1000
        qps = (sum(len(w['all_ms']) for w in windows) /
               sum(w['s'] for w in windows))
        passes = quantile(served['miss_passes'], 50)
        candidates = quantile(served['miss_candidates'], 50)
    else:
        jobs = [job for round_jobs, _ in rounds for job in round_jobs]
        job_s = quantile([j[0] for j in jobs], 50)
        qps = quantile([len(round_jobs) / sum(j[0] for j in round_jobs)
                        for round_jobs, _ in rounds if round_jobs], 50)
        passes = quantile([j[1] for j in jobs], 50)
        candidates = quantile([j[2] for j in jobs], 50)
        info('jobs: %d, median %.3f s' % (len(jobs), job_s))
    info('rounds: %d; served: %d queries, %d unexpected outcomes, '
         'client share %.1f%%' % (
             len(rounds), served['completed'], served['unexpected_outcomes'],
             100 * served['client_share']))
    return {
        'job_s': job_s, 'setup_s': setup_s, 'qps': qps,
        'hit_ms_p50': pooled('hit', 50),
        'hit_ms_p90': pooled('hit', 90),
        'filter_ms_p50': pooled('filter', 50),
        'filter_ms_p90': pooled('filter', 90),
        'miss_ms_p50': pooled('miss', 50),
        'miss_ms_p90': pooled('miss', 90),
        'peak_rss_mb': run.peak_rss, 'db_passes': passes,
        'candidates': candidates,
    }


def per_layer(run):
    trace_dir = os.path.join('.bench_build', 'trace')
    os.makedirs(trace_dir, exist_ok=True)
    spans = os.path.join(trace_dir, '%s-seed%d.json' % (run.args.workload,
                                                       run.args.seed))
    os.makedirs(os.path.join(run.dir, 'orchestrate'))
    t = helper_json(
        ['trace', '--dbs=' + db_spec(run.inputs, run.kinds),
         '--shard-binary=' + os.path.abspath(program('pincer_shard')),
         '--work-dir=' + os.path.join(run.dir, 'orchestrate'),
         '--spans=' + spans]
        + (['--drop'] if run.args.drop_reference_itemset else []))
    run.tally_helper(t, 'traced')

    # Untraced counterparts, for the socket share and the trace overhead.
    client = run.client()
    daemon, _ = run.boot()
    client.command('window 1')
    run.stop(daemon)
    served = client.finish()
    socket_hit_ms = quantile(served['windows'][0]['hit_ms'], 50)
    if run.args.workload == 'serve':
        traced, untraced = t['hit_handle_ms'], socket_hit_ms
    else:
        walls = [job[0] for job in (run.job() for _ in range(t['jobs']))
                 if job is not None]
        untraced = quantile(walls, 50) * 1000
        traced = t['job_ms']

    def ratio(a, b):
        return a / b if b else 0.0

    completed = served['completed']
    by_outcome = {name: served['answered'].get(name, 0)
                  for name in ('hit', 'filter', 'miss')}
    orchestrate_phases = (t['orch_shard_ms'] + t['orch_supervise_ms'] +
                          t['orch_merge_ms'] + t['orch_validate_ms'])
    return {
        'data.read_ms': t['read_ms'],
        'data.read_mb_s': ratio(t['read_bytes'] / 1e6, t['read_ms'] / 1000),
        'data.bitsets_ms': t['bitsets_ms'],
        'counting.build_ms': t['build_ms'],
        'counting.count_ms': t['count_ms'],
        'counting.calls': t['calls'],
        'counting.candidates': t['candidates'],
        'counting.us_per_candidate': ratio(t['count_ms'] * 1000, t['candidates']),
        'counting.fastpath_ms': t['pass_counting_ms'] - t['count_ms'],
        'counting.frequent_ratio': ratio(t['bottom_up_frequent'],
                                         t['bottom_up_candidates']),
        'counting.vertical_share': ratio(t['vertical_calls'], t['calls']),
        'core.mine_ms': t['mine_ms'],
        'core.self_ms': t['mine_ms'] - t['count_ms'],
        'core.gen_ms': t['gen_ms'],
        'core.mfcs_ms': t['mfcs_ms'],
        'core.unattributed_ms': t['mine_ms'] - t['phases_ms'],
        'core.bottom_up_frequent': t['bottom_up_frequent'],
        'core.mfcs_candidates': t['mfcs_candidates'],
        'core.mfcs_yield': ratio(t['mfs_found'], t['mfcs_candidates']),
        'core.mfcs_off_pass': t['mfcs_off_pass'],
        'apriori.mine_ms': t['apriori_ms'],
        'serve.init_ms': t['init_ms'],
        'serve.hit_handle_ms': t['hit_handle_ms'],
        'serve.filter_handle_ms': t['filter_handle_ms'],
        'serve.miss_handle_ms': t['miss_handle_ms'],
        'serve.socket_ms': socket_hit_ms - t['hit_handle_ms'],
        'serve.hit_share': ratio(by_outcome['hit'], completed),
        'serve.filter_share': ratio(by_outcome['filter'], completed),
        'serve.miss_share': ratio(by_outcome['miss'], completed),
        'serve.filter_yield': ratio(served['filter_answers'], served['filter_sent']),
        'serve.response_kb': ratio(served['response_bytes'] / 1024, completed),
        'orchestrate.run_ms': t['orch_run_ms'],
        'orchestrate.shard_ms': t['orch_shard_ms'],
        'orchestrate.supervise_ms': t['orch_supervise_ms'],
        'orchestrate.merge_ms': t['orch_merge_ms'],
        'orchestrate.validate_ms': t['orch_validate_ms'],
        'orchestrate.other_ms': t['orch_run_ms'] - orchestrate_phases,
        'orchestrate.union_candidates': t['union_candidates'],
        'orchestrate.validate_us_per_candidate': ratio(
            t['orch_validate_ms'] * 1000, t['union_candidates']),
        'orchestrate.worker_mine_ms': t['worker_mine_ms'],
        'orchestrate.worker_attempts': t['worker_attempts'],
        'trace.overhead_pct': 100 * ratio(traced - untraced, untraced),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True, choices=sorted(WORKLOADS))
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    # Self-test hook: checks answers against a reference missing one itemset.
    parser.add_argument('--drop-reference-itemset', action='store_true',
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    # A terminated run still stops and reaps everything it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    run = None
    try:
        build()
        run = Run(args)
        run.prepare()
        if args.trace:
            values, units = per_layer(run), PER_LAYER
        else:
            values, units = end_to_end(run, args.seconds), END_TO_END
    except BenchError as error:
        print('perfbench: ' + str(error), file=sys.stderr)
        return 1
    finally:
        stop_all()
        if run is not None:
            run.finish()
    info('fail_ratio: %d/%d%s' % (run.failed, run.attempted,
                                 ' (first: %s)' % run.failures[0] if run.failures else ''))
    print(json.dumps({
        'correct': run.failed == 0,
        'attempted': run.attempted,
        'failed': run.failed,
        'metrics': {name: {'value': values[name], 'unit': unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == '__main__':
    sys.exit(main())
