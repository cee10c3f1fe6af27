#!/usr/bin/env python3
"""Paired timing of one benchmark job against another commit, in one process.

    python3 tools/pairtime.py --against HEAD~1 --workload p-above --job vi
    python3 tools/pairtime.py --against HEAD~1 --workload small-many --job mixed10 --pairs 200
    python3 tools/pairtime.py --against HEAD~1 --workload p-above --job certify
    python3 tools/pairtime.py --against HEAD~1 --workload sparse-d-zero --job cli
    python3 tools/pairtime.py --against HEAD~1 --workload p-above --job io

Run from the root of a source checkout.  The script extracts commit REF
with `digest.checkout`, imports that tree's `src/totaldp` under the
package name `totaldp_ref` (every import inside the package is
relative, so the two copies share nothing), and loads perfbench's
`jobs` module a second time with that package as its `totaldp`
(`bind_jobs`).  Each side builds every model of the workload that runs
the job with its own `jobs.build_model`, and times the job with its own
`jobs.run_job`: the seconds are the region that perfbench times (for
``pi`` the mean per solve over the model's starts, for ``certify`` the
work on the side's own mixed10 result).  A model whose job gives
either side no seconds (it raised or hit the iteration cap, or its
mixed10 solve did not converge for ``certify``) is named and left out.
Each pair runs every model once with each side, in ABBA order (REF
first in even pairs, the working tree first in odd ones), and takes the
geometric mean over the models of the time ratio working tree / REF.
It prints the median of those ratios with its quartiles and each side's
median time for one pass over the models.

The two sides' answers are compared by the job's lines of
`digest.case_lines`, each side's computed in process through its own
`jobs` module: whatever the digest covers of a result, its trace, its
certificates and the CLI's output is compared bit for bit.  The ``io``
job times the file layer of the ``cli`` job part by part, on each model
file of the workload: `parse_model` of the file's text, `model_hash` of
the model read, and `trace_to_csv` of that model's value-iteration
trace (its ``wall_time`` column zeroed).  It prints one ratio per part,
and compares what each part returns bytewise: the model read (its pair
arrays, names and rendered text, with the declared optimum), the hash
and the CSV text.  It exits 1 on any difference.

Back-to-back processes on a loaded host can differ by tens of percent
in one solve's time; pairs interleaved in one process see the same
load, so their ratio is what a small change is read from.  Times are
plain `perf_counter` seconds, not perfbench's calibrated scores, and
nothing here is a gate.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import digest  # noqa: E402  (puts src/ and perfbench/ on the path)
import jobs  # noqa: E402
import numpy as np  # noqa: E402

JOBS = jobs.ALGORITHMS + ("certify", "cli", "io")
# The parts of the io job, each timed and compared on its own.
IO_PARTS = ("parse_model", "model_hash", "trace_to_csv")


def import_tree(tree: str, name: str = "totaldp_ref"):
    """The package at ``tree``/src/totaldp, imported as ``name``."""
    pkg_dir = Path(tree, "src", "totaldp")
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def bind_jobs(pkg):
    """perfbench's `jobs` module loaded again, with ``pkg`` (and its CLI)
    in place of `totaldp`."""
    importlib.import_module(f"{pkg.__name__}.cli")
    spec = importlib.util.spec_from_file_location(f"jobs_{pkg.__name__}", jobs.__file__)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    module.totaldp = pkg
    return module


def job_call(side, kind: str, case, workdir: str):
    """A zero-argument call that runs job ``kind`` on ``case`` through the
    `run_job` of ``side`` and returns its seconds (None when it gives
    none); ``certify`` runs on the side's own mixed10 outcome."""
    model = side.build_model(case)
    mixed10 = side.run_job("mixed10", case, model, workdir) if kind == "certify" else None
    return lambda: side.run_job(kind, case, model, workdir, mixed10).seconds


def io_calls(pkg, case, workdir: str) -> tuple:
    """Zero-argument calls of the file layer of ``pkg``, one per part of
    `IO_PARTS`, on the case's model file in ``workdir``: `parse_model`
    of its text, `model_hash` of the model read from it, and
    `trace_to_csv` of that model's value-iteration trace from the case's
    start, its ``wall_time`` column zeroed."""
    modelio = digest.modelio_of(pkg)
    with open(Path(workdir, f"{case.name}.json")) as fh:
        text = fh.read()
    model, _ = modelio.parse_model(text)
    cfg = pkg.SolverConfig(algorithm="vi", tol=jobs.SOLVE_TOL, max_iter=case.max_iter)
    try:
        trace = pkg.value_iteration(model, case.J0, cfg).trace
    except pkg.SolverCapError as e:
        trace = e.result.trace
    trace = digest.timeless(trace)
    return (lambda: (modelio.parse_model(text), modelio.render_model),
            lambda: modelio.model_hash(model),
            lambda: modelio.trace_to_csv(trace))


def io_bytes(part: str, out) -> bytes | str:
    """What one io part returned, in the form compared: for `parse_model`
    the model's pair arrays, names and rendered text with the declared
    optimum, as bytes; the others as they are."""
    if part != "parse_model":
        return out
    (model, gt), render = out
    parts = [model.pair_counts().tobytes(), model.pair_costs.tobytes(),
             model.pair_probs.tobytes(), repr((model.control_names, model.state_names))]
    try:
        parts.append(render(model, gt))
    except ValueError as err:  # a probability the writer refuses
        parts.append(repr(err))
    return b"\0".join(p if isinstance(p, bytes) else p.encode() for p in parts)


def clock(call):
    """A zero-argument call that runs ``call`` and returns its seconds."""
    def run():
        t0 = time.perf_counter()
        call()
        return time.perf_counter() - t0
    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="REF", required=True)
    ap.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    ap.add_argument("--job", choices=JOBS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=100)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    runs = "cli" if args.job == "io" else args.job  # io reads the cli job's model files
    cases = [c for c in jobs.workload_cases(args.workload, args.seed) if runs in c.jobs]
    if not cases:
        ap.error(f"no model of {args.workload} runs {runs}")
    with digest.checkout(args.against) as tree, tempfile.TemporaryDirectory() as workdir:
        sides = (bind_jobs(import_tree(tree)), jobs)
        if args.job in ("cli", "io"):
            for case in cases:
                jobs.write_model_file(case, workdir)
        if args.job == "io":
            made = [[io_calls(side.totaldp, case, workdir) for case in cases]
                    for side in sides]
            # per model, the parts whose results differ
            diffs = [[part for part, a, b in zip(IO_PARTS, old, new)
                      if io_bytes(part, a()) != io_bytes(part, b())]
                     for old, new in zip(*made)]
            # per part, its timed calls per side and case
            groups = [(part, [[clock(calls[j]) for calls in side] for side in made])
                      for j, part in enumerate(IO_PARTS)]
        else:
            lines = [[list(digest.case_lines(side, args.workload, args.seed, case, workdir,
                                             {args.job}))
                      for case in cases] for side in sides]
            # per model, its differing lines by job and kind ("vi values")
            diffs = [[" ".join(b.split()[3:5]) for a, b in zip(old, new) if a != b]
                     for old, new in zip(*lines)]
            groups = [(args.job, [[job_call(side, args.job, case, workdir) for case in cases]
                                  for side in sides])]
        differ = [f"{case.name} ({', '.join(diff)})"
                  for case, diff in zip(cases, diffs) if diff]
        # one untimed pass, which finds the models that give both sides seconds
        first = [[[call() for call in side] for side in calls] for _, calls in groups]
        kept = [i for i in range(len(cases))
                if all(side[i] is not None for part in first for side in part)]
        left_out = [cases[i].name for i in range(len(cases)) if i not in kept]
        if not kept:
            ap.error(f"no {args.job} job of {args.workload} gives seconds on both sides")
        # seconds per part, pair, side and kept model
        secs = np.empty((len(groups), args.pairs, 2, len(kept)))
        for k in range(args.pairs):
            for g, (_, calls) in enumerate(groups):
                for m, i in enumerate(kept):
                    for s in ((0, 1) if k % 2 == 0 else (1, 0)):
                        secs[g, k, s, m] = calls[s][i]()
    print(f"pairtime: {args.workload} seed {args.seed}, job {args.job}, {len(kept)} models, "
          f"{args.pairs} pairs in ABBA order")
    if left_out:
        print(f"  left out, the job gave no seconds: {', '.join(left_out)}")
    for (part, _), part_secs in zip(groups, secs):
        ratios = np.exp(np.log(part_secs[:, 1] / part_secs[:, 0]).mean(axis=1))
        lo, mid, hi = statistics.quantiles(ratios.tolist(), n=4, method="inclusive")
        if len(groups) > 1:
            print(f"  {part}:")
        for name, side_secs in ((args.against, part_secs[:, 0]),
                                ("working tree", part_secs[:, 1])):
            print(f"  {name}: median {np.median(side_secs.sum(axis=1)) * 1e3:.3f} ms per "
                  "pass over the models")
        print(f"  ratio working tree / {args.against} (geometric mean over models): "
              f"median {mid:.3f}, quartiles {lo:.3f}-{hi:.3f}")
    if differ:
        print(f"  bitwise different on {len(differ)} of {len(cases)} models: "
              f"{'; '.join(differ)}")
        return 1
    same = ("model read, hash and trace CSV text" if args.job == "io" else
            f"{args.job} digest line")
    print(f"  every {same} bitwise equal ({len(cases)} models)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
