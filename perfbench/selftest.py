#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root (it builds on first use, like run.py). Checks:
  1. every metric BENCHMARK.json names is printed, with its unit, by every
     workload in the matching mode, and correct runs report no failures;
  2. answers checked against a reference with one itemset dropped are
     reported as failed operations, on `serve --trace 0` by the socket
     client's own checks;
  3. on `scattered`, read + bitsets + counter build + the per-pass phases +
     core.unattributed_ms add up to the traced job span, and the parts
     nest: every CountSupports span lies inside its MineMaximal span, the
     per-pass counting timers cover the CountSupports spans, and the
     per-pass phases fit inside the MineMaximal span.
Exits 1 if any check fails.
"""

import json
import os
import subprocess
import sys

SEED = 7
SECONDS = '1'


def bench(workload, trace, *extra):
    argv = [sys.executable, os.path.join('perfbench', 'run.py'),
            '--workload', workload, '--seed', str(SEED), '--seconds', SECONDS,
            '--trace', str(trace)] + list(extra)
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError('%s exited %d: %s' % (' '.join(argv), proc.returncode,
                                                   proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    fail_line = next((l for l in lines if l.startswith('fail_ratio:')), '')
    return json.loads(lines[-1]), fail_line


def main():
    spec = json.load(open('BENCHMARK.json'))
    failures = []

    def check(ok, message):
        print(('PASS ' if ok else 'FAIL ') + message, flush=True)
        if not ok:
            failures.append(message)

    traced = {}
    for workload in [w['name'] for w in spec['workloads']]:
        for trace, key in ((0, 'end_to_end'), (1, 'per_layer')):
            result, _ = bench(workload, trace)
            if trace:
                traced[workload] = result
            printed = {name: m['unit'] for name, m in result['metrics'].items()}
            wanted = {m['name']: m['unit'] for m in spec[key]}
            check(printed == wanted,
                  '%s --trace %d prints every %s metric with its unit' % (
                      workload, trace, key))
            check(result['correct'] and result['failed'] == 0 and
                  result['attempted'] > 0,
                  '%s --trace %d: %d operations, none failed' % (
                      workload, trace, result['attempted']))

    fail_lines = {}
    for workload, trace in (('scattered', 0), ('serve', 0), ('serve', 1)):
        result, fail_lines[workload, trace] = bench(
            workload, trace, '--drop-reference-itemset')
        check(not result['correct'] and result['failed'] > 0,
              '%s --trace %d: a reference missing one itemset fails %d of %d '
              'operations' % (workload, trace, result['failed'],
                              result['attempted']))
    # On serve --trace 0 only the socket client checks answers, so this shows
    # that its deferred checks count a wrong answer.
    check('(first: served: ' in fail_lines['serve', 0],
          'serve --trace 0: the socket client reports the failures (%s)' %
          fail_lines['serve', 0])

    m = {name: v['value'] for name, v in traced['scattered']['metrics'].items()}
    spans = json.load(open(os.path.join(
        '.bench_build', 'trace', 'scattered-seed%d.json' % SEED)))
    jobs = sorted((s for s in spans if s['name'] == 'job'),
                  key=lambda s: s['end_ms'] - s['start_ms'])
    job = jobs[len(jobs) // 2]
    job_ms = job['end_ms'] - job['start_ms']
    parts = (m['data.read_ms'] + m['data.bitsets_ms'] + m['counting.build_ms'] +
             m['counting.fastpath_ms'] + m['counting.count_ms'] +
             m['core.gen_ms'] + m['core.mfcs_ms'] + m['core.unattributed_ms'])
    check(abs(parts - job_ms) <= max(0.01 * job_ms, 2.0),
          'scattered: layer parts %.3f ms add up to the job span %.3f ms' % (
              parts, job_ms))
    check(m['counting.fastpath_ms'] >= 0,
          'scattered: per-pass counting timers cover the CountSupports spans '
          '(fastpath_ms %.3f >= 0)' % m['counting.fastpath_ms'])
    phases = (m['core.gen_ms'] + m['counting.fastpath_ms'] +
              m['counting.count_ms'] + m['core.mfcs_ms'])
    check(phases <= m['core.mine_ms'],
          'scattered: per-pass phases %.3f ms fit in core.mine_ms %.3f ms '
          '(core.unattributed_ms >= 0)' % (phases, m['core.mine_ms']))
    outside = [s for s in spans if s['name'] == 'counting.CountSupports' and not (
        spans[s['parent']]['name'].endswith('.MineMaximal') and
        spans[s['parent']]['start_ms'] <= s['start_ms'] <= s['end_ms'] <=
        spans[s['parent']]['end_ms'])]
    check(not outside, 'scattered: every CountSupports span lies inside its '
          'MineMaximal span (%d do not)' % len(outside))
    for span in jobs:
        index = spans.index(span)
        children = sum(s['end_ms'] - s['start_ms'] for s in spans
                       if s['parent'] == index)
        length = span['end_ms'] - span['start_ms']
        check(abs(length - children) <= max(0.01 * length, 2.0),
              'scattered %s: child spans cover %.3f of %.3f ms' % (
                  span['id'], children, length))

    print('%d check(s) failed' % len(failures) if failures else 'all checks passed')
    return 1 if failures else 0


if __name__ == '__main__':
    sys.exit(main())
