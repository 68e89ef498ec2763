"""One workload in a fresh interpreter: reference values, or the timed calls.

    worker.py reference --workload W --inputs IN.json --out REF.json
    worker.py measure --workload W --inputs IN.json --reference REF.json
                      --seed N --seconds S --trace 0|1 --work-dir DIR --out RES.json

``measure`` imports ``didbracket.cli`` (timed), then calls ``cli.main``
sequentially until the time budget is spent, checking the outputs of every
call outside the timed region. A calibration kernel runs between calls, so
each call's time is also given at reference machine speed. With
``--trace 1`` untraced and span-traced calls alternate, so the tracing
overhead is measured in the same process and the same machine state.
``run.py`` drives this; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from calibrate import at_reference, kernel
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _sha256_tree(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


class Capture:
    """Keeps the placebo results the CLI computes, for the exactness check."""

    def __init__(self, cli):
        self.cli = cli
        self.original = cli.__dict__.get("run_placebo_study")
        self.results = None

    def __enter__(self):
        if self.original is not None:
            def capture(*args, **kwargs):
                self.results = self.original(*args, **kwargs)
                return self.results
            self.cli.run_placebo_study = capture
        return self

    def __exit__(self, *exc):
        if self.original is not None:
            self.cli.run_placebo_study = self.original


def run_calls(cli, workload, inputs, ref, seed, budget, work_dir, tracer=None, edges=0):
    """Sequential calls until ``budget`` seconds of calls are spent (at least one).

    With a tracer, untraced (even index) and traced (odd index) calls
    alternate: the tracer is installed just before each traced call and
    removed right after it, so both kinds of call see the same machine
    state. On the county workloads every call has the same argv and must
    reproduce the output bytes of the first call.
    """
    calls, aggs = [], []
    first_bytes = None
    spent = 0.0
    kernel_before = kernel()
    for index in itertools.count():
        traced = tracer is not None and index % 2 == 1
        out = work_dir / f"call{index}"
        argvs = workload.argv(inputs, seed, index, str(out))
        problems = []
        gc.collect()
        if traced:
            tracer.install()
        stdout, stderr = io.StringIO(), io.StringIO()
        with Capture(cli) as captured, contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            if traced:
                tracer.begin_call()
            start = perf_counter()
            for argv in argvs:
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                if code != 0:
                    problems.append(f"{argv[0]} exited {code}: {stderr.getvalue().strip()}")
                    break
            elapsed = perf_counter() - start
            if traced:
                aggs.append(tracer.end_call(edges))
        if traced:
            tracer.uninstall()
        if not problems:
            try:
                problems = workload.check(out, ref, captured.results)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
        hashes = _sha256_tree(out) if out.is_dir() else {}
        if workload.units:
            if first_bytes is None:
                first_bytes = hashes
            elif hashes != first_bytes:
                problems.append("output bytes differ from the first call with the same inputs")
        shutil.rmtree(out, ignore_errors=True)
        kernel_after = kernel()
        calls.append({"index": index, "s": elapsed,
                      "ref_s": at_reference(elapsed, kernel_before, kernel_after),
                      "kernel_s": [kernel_before, kernel_after],
                      "traced": traced, "argv": argvs, "problems": problems,
                      "sha256": hashes, "exact_check": captured.results is not None})
        kernel_before = kernel_after
        spent += elapsed
        if len(calls) >= (2 if tracer else 1) and \
                spent + statistics.median(c["s"] for c in calls) > budget:
            return calls, aggs


def measure(args) -> dict:
    start = perf_counter()
    import didbracket
    import didbracket.cli as cli
    import_s = perf_counter() - start
    source = Path(didbracket.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"didbracket imported from {source}, not from {ROOT / 'src'}")
    import numpy

    workload = WORKLOADS[args.workload]
    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    ref = json.loads(Path(args.reference).read_text(encoding="utf-8")) if args.reference else {}
    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer(didbracket)
    kernel()  # warm-up pass, not used
    calls, aggs = run_calls(cli, workload, inputs, ref, args.seed, args.seconds,
                            Path(args.work_dir), tracer, inputs.get("edges", 0))
    result = {"import_s": import_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "numpy": numpy.__version__, "didbracket_file": str(source.relative_to(ROOT))}
    if tracer is not None:
        values, absent = layer_metrics(aggs, [c["ref_s"] for c in calls if not c["traced"]],
                                       [c["ref_s"] for c in calls if c["traced"]], tracer)
        spans_path = Path(args.out).with_suffix(".spans.csv.gz")
        result.update(layers=values, absent=absent, absent_bindings=tracer.absent,
                      spans_file=spans_path.name, spans=tracer.write_spans(spans_path))
    result["calls"] = calls
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("reference", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--reference")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.mode == "reference":
        inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
        result = WORKLOADS[args.workload].reference(inputs)
    else:
        result = measure(args)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
