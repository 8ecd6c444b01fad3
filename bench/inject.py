"""Check that the host-speed correction passes a slowdown of lbk through.

    python3 bench/inject.py --spin 2000 -- --workload queries --seed 0 --seconds 20
    python3 bench/inject.py --heap-mb 64 --touch 500 -- --workload queries --seed 0 --seconds 20

Runs ``run.py`` untraced with ``Atlas.transport_point`` wrapped so that every
call also does known extra work: ``--spin`` turns of an integer loop, and
``--touch`` reads at scattered places of a list of ints that fills
``--heap-mb`` MB, built before the run, as a cache grown inside lbk would.
The probe runs in the same process, so a change that slows lbk by crowding
the heap or the CPU caches could slow the probe too, and the correction would
then cancel part of it.  The last line of output gives ops per second, raw
and corrected, and the mean probe time; runs with and without the injection,
made in turn, show whether raw and corrected times move alike.
"""
from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys

import run


def inject(lbk, spin: int, heap_mb: int, touch: int) -> None:
    heap = list(range(10**9, 10**9 + heap_mb * 2**20 // 36))  # about 36 bytes an int
    where = [0]
    original = lbk.atlas.Atlas.transport_point

    @functools.wraps(original)
    def transport_point(*args, **kwargs):
        x = 0
        for i in range(spin):
            x += i
        if touch:
            at = where[0]
            for _ in range(touch):
                at = (at + 2654435761) % len(heap)
                x += heap[at]
            where[0] = at
        return original(*args, **kwargs)

    lbk.atlas.Atlas.transport_point = transport_point


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spin", type=int, default=0)
    parser.add_argument("--heap-mb", type=int, default=0)
    parser.add_argument("--touch", type=int, default=0)
    args, bench_args = parser.parse_known_args()
    if bench_args[:1] == ["--"]:
        bench_args = bench_args[1:]
    if "--trace" in bench_args and bench_args[bench_args.index("--trace") + 1] != "0":
        parser.error("the injection is measured on untraced runs")

    import_lbk = run.import_lbk

    def injected():
        lbk = import_lbk()
        inject(lbk, args.spin, args.heap_mb, args.touch)
        return lbk

    run.import_lbk = injected
    code = run.main(bench_args)
    if code:
        return code
    newest = max(run.OUT.glob("*.json"), key=lambda path: path.stat().st_mtime)
    record = json.loads(newest.read_text())
    raw = [r for _, r, _ in record["ops"]]
    corrected = [c for _, _, c in record["ops"]]
    print(json.dumps({
        "spin": args.spin, "heap_mb": args.heap_mb, "touch": args.touch,
        "ops_per_s_raw": len(raw) / sum(raw),
        "ops_per_s": len(corrected) / sum(corrected),
        "probe_ms": statistics.mean(record["probes_s"]) * 1e3,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
