"""slope-atlas benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` and nowhere else.  Workloads (README.md says why each exists):

    batch            `slope-atlas batch` on a generated CSV
    plot-tsv         `slope-atlas plot --bounds=-16:16,1:16 --format tsv`
    plot-svg         `slope-atlas plot --bounds=-12:12,1:12 --format svg`
    cones-generated  `carried_weight_cone` on the complexes of generated
                     monodromies
    cones-free       `carried_weight_cone` on hand-built free complexes

With ``--trace 0`` the work runs in child processes and the end-to-end
metrics are reported; with ``--trace 1`` it runs in this process, untraced
and traced passes in turn, and the per-layer metrics are reported.  The
last line of stdout is the JSON result; the line before it carries the
run's metadata, which is also written, with the result, under
``benchmarks/_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
import cones_child  # noqa: E402
import gen  # noqa: E402
from spans import Tracer, percentile  # noqa: E402

MIN_REPS = 3
SETUP_SHARE = 0.15
CHILD_TIMEOUT_S = 150.0
MAX_TRACED_PASSES = 2
REF_SCRIPT = os.path.join(BENCH_DIR, "reference.py")
# `setup_s` is reported in seconds on a host where `reference.py start`
# takes this long (see measure_e2e).
SETUP_REF_S = 0.08

# Sizes of the default run; the self-test shrinks them.
DEFAULT_SIZES = {
    "batch_rows": gen.BATCH_ROWS,
    "plot_bounds": gen.PLOT_BOUNDS,
    "cones_per_k": gen.CONES_PER_K,
    "free_complexes": None,         # None: all of gen.FREE_COMPLEXES
}

# Citation tags `classify` produces at the commit that defined this
# benchmark; any other tag is counted under "other".
RULE_TAGS = (
    "non-qhs-zero-numerator", "lens-space-filling", "nonorderable-lens-or-s3",
    "lspace-threshold", "foliation-below-one", "euler-congruence",
    "orderable-from-euler-vanishing", "orderable-negative-integer-fiber",
    "nonorderable-positive-integer-lspace",
)

E2E_UNITS = {"ops_per_ref": "ops/ref", "setup_s": "s", "peak_rss_mib": "MiB"}


def _layer_units():
    units = {
        "cli.cmd_batch.self_s": "s", "cli.cmd_batch.wait_s": "s",
        "cli.parse_batch_row.busy_s": "s", "cli.grid_slopes.busy_s": "s",
        "cli.cmd_plot.self_s": "s", "cli.svg_coord.calls": "count",
        "cli.svg_coord.busy_s": "s",
        "slopes.parse_slope.calls": "count", "slopes.parse_slope.busy_s": "s",
        "slopes.parse_slope.p50_us": "us", "slopes.parse_slope.p99_us": "us",
        "slopes.Region.contains.calls": "count",
        "slopes.CircularArc.contains.calls": "count",
        "whitehead.classify.calls": "count", "whitehead.classify.busy_s": "s",
        "whitehead.classify.wait_s": "s", "whitehead.classify.p50_us": "us",
        "whitehead.classify.p99_us": "us", "whitehead.plot_class.busy_s": "s",
    }
    for tag in RULE_TAGS + ("other",):
        units[f"whitehead.rule.{tag}.count"] = "count"
    for fam in ("generated", "free"):
        base = f"branched.carried_weight_cone.{fam}"
        units.update({f"{base}.calls": "count", f"{base}.busy_s": "s",
                      f"{base}.p50_ms": "ms", f"{base}.p95_ms": "ms"})
    units.update({
        "branched.weight_systems.count": "count",
        "branched.complexes_for.busy_s": "s",
        "branched.detect_sink_discs.busy_s": "s",
        "monodromy.coherent_orientations.calls": "count",
        "monodromy.coherent_orientations.busy_s": "s",
        "trace.overhead_ratio": "ratio",
        "failed_op_ratio": "ratio",
    })
    return units


LAYER_UNITS = _layer_units()


# --- child processes ---------------------------------------------------------

def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, stdout_path=os.devnull, stderr_path=os.devnull):
    """(exit code, wall seconds, peak RSS in MiB) of one child process.
    The child is killed if it outlives CHILD_TIMEOUT_S."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _read(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


# --- workloads ---------------------------------------------------------------

class Workload:
    """Inputs, one pass of work and its checks, for one workload.

    ``prepare`` writes the inputs and sets ``ops`` (operations per pass),
    ``setup_argv`` (the command whose start-up is `setup_s`) and
    ``input_check`` (attempted, failed) for the inputs themselves.
    ``REF_PARTS`` names the parts of `reference.py` that match the work.
    ``pass_child`` runs a pass in child processes and returns (seconds of
    work, peak RSS MiB, (attempted, failed)); ``pass_inprocess`` runs it
    in this process and returns (attempted, failed).  ``corrupt`` lets the
    self-test damage an output before it is checked.
    """

    def __init__(self, name, seed, sizes, work, root, corrupt=None):
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.env = child_env(root)
        self.corrupt = corrupt or (lambda output: output)
        self.pin = seed == check.DEFAULT_SEED and sizes == DEFAULT_SIZES
        self.pinned = check.load_pinned()
        self.input_sizes = {}

    def path(self, name):
        return os.path.join(self.work, name)

    def cli_argv(self, args):
        return [sys.executable, "-m", "slope_atlas.cli", *args]

    def digest(self, name, text):
        if not self.pin:
            return 0, 0
        return check.check_digest(name, text, self.pinned)

    def setup_child(self):
        """(wall seconds,) of one start of the set-up command."""
        code, wall, _ = run_child(self.setup_argv, self.env)
        if code != 0:
            raise RuntimeError(f"set-up command failed with exit code "
                               f"{code}: {self.setup_argv}")
        return (wall,)

    def cli_inprocess(self, args):
        from slope_atlas import cli
        with open(self.path("stdout"), "w") as out, \
                open(self.path("stderr"), "w") as err, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            return cli.main(args)


class Batch(Workload):
    REF_PARTS = ("text",)

    def prepare(self):
        text, self.malformed = gen.batch_csv(self.seed,
                                             self.sizes["batch_rows"])
        self.input = self.path("batch.csv")
        with open(self.input, "w", newline="") as fh:
            fh.write(text)
        self.expected = check.expected_batch(text, self.malformed)
        self.ops = self.sizes["batch_rows"]
        self.input_sizes = {"rows": self.ops,
                            "malformed_rows": len(self.malformed)}
        self.input_check = self.digest("batch_input_csv", text)
        self.setup_argv = [sys.executable, "-c", "import slope_atlas.cli"]
        self.args = ["batch", self.input, "--out", self.path("out.csv")]

    def _check(self, code):
        out = self.corrupt(_read(self.path("out.csv")))
        stdout = _read(self.path("stdout"))
        stderr = _read(self.path("stderr"))
        attempted, failed = check.check_batch(
            self.expected, self.malformed, self.input, code, out, stdout,
            stderr)
        for name, text in (("batch_output_csv", out),
                           ("batch_stdout", stdout)):
            a, f = self.digest(name, text)
            attempted += a
            failed += f
        return attempted, failed

    def pass_child(self):
        code, wall, rss = run_child(self.cli_argv(self.args), self.env,
                                    self.path("stdout"), self.path("stderr"))
        return wall, rss, self._check(code)

    def pass_inprocess(self, tracer=None):
        return self._check(self.cli_inprocess(self.args))


class Plot(Workload):
    """`plot` in one format, ``FORMAT``; operations are pairs rendered."""
    REF_PARTS = ("text",)

    def prepare(self):
        bounds = self.sizes["plot_bounds"][self.FORMAT]
        records = check.plot_records(bounds)
        render = {"tsv": check.expected_tsv, "svg": check.expected_svg}
        self.expected = render[self.FORMAT](records)
        self.ops = len(records)
        self.input_sizes = {"slopes": len(check.grid_fractions(bounds)),
                            "pairs": len(records)}
        self.input_check = (0, 0)
        self.setup_argv = [sys.executable, "-c", "import slope_atlas.cli"]
        pmin, pmax, qmin, qmax = bounds
        # `--bounds=` keeps argparse from reading "-16:..." as an option.
        self.args = ["plot", f"--bounds={pmin}:{pmax},{qmin}:{qmax}",
                     "--format", self.FORMAT]

    def _check(self, code):
        text = self.corrupt(_read(self.path("stdout")))
        attempted, failed = check.compare_lines(self.expected,
                                                text.splitlines())
        a, f = self.digest(f"plot_{self.FORMAT}", text)
        return attempted + a + 1, failed + f + int(code != 0)

    def pass_child(self):
        code, wall, rss = run_child(self.cli_argv(self.args), self.env,
                                    self.path("stdout"), self.path("stderr"))
        return wall, rss, self._check(code)

    def pass_inprocess(self, tracer=None):
        return self._check(self.cli_inprocess(self.args))


class PlotTsv(Plot):
    FORMAT = "tsv"


class PlotSvg(Plot):
    FORMAT = "svg"


class Cones(Workload):
    """`carried_weight_cone` on one family of complexes, ``FAMILY``."""
    REF_PARTS = ("lattice", "text")

    def prepare(self):
        monos, free = [], []
        if self.FAMILY == "generated":
            monos = gen.generated_monodromies(self.seed,
                                              self.sizes["cones_per_k"])
        else:
            free = gen.free_complexes(self.seed)
            keep = self.sizes["free_complexes"]
            if keep is not None:
                free = [(n, t, b[:1]) for n, t, b in free[:keep]]
        self.spec = {"bound": gen.CONE_BOUND, "monodromies": monos,
                     "free": free}
        spec_path = self.path("cones.json")
        with open(spec_path, "w") as fh:
            json.dump(self.spec, fh)
        self.input_sizes = {"monodromies": len(monos),
                            "free_complexes": len(free)}
        self.input_check = (0, 0)
        script = os.path.join(BENCH_DIR, "cones_child.py")
        self.setup_argv = [sys.executable, script, spec_path, "--setup-only"]
        self.child_argv = [sys.executable, script, spec_path,
                           self.path("cones_out.json")]

    def pass_child(self):
        code, _, rss = run_child(self.child_argv, self.env,
                                 self.path("stdout"), self.path("stderr"))
        if code != 0:
            raise RuntimeError(f"cones child failed with exit code {code}:\n"
                               + _read(self.path("stderr")))
        with open(self.path("cones_out.json")) as fh:
            res = json.load(fh)
        # Generated complexes are search-bound: one operation per call.
        # Free complexes are output-bound: one operation per weight system.
        self.ops = res["calls" if self.FAMILY == "generated" else "systems"]
        self.input_sizes.update(calls=res["calls"], systems=res["systems"])
        return res["seconds"], rss, (res["attempted"], res["failed"])

    def pass_inprocess(self, tracer=None):
        items = cones_child.build(self.spec)
        if tracer is not None:
            tracer.label = self.FAMILY
        timed = cones_child.run_pass(items)
        timed = [(t, self.corrupt(r)) for t, r in timed]
        return cones_child.check_pass(items, timed, self.pinned)


class ConesGenerated(Cones):
    FAMILY = "generated"


class ConesFree(Cones):
    FAMILY = "free"


WORKLOADS = {"batch": Batch, "plot-tsv": PlotTsv, "plot-svg": PlotSvg,
             "cones-generated": ConesGenerated, "cones-free": ConesFree}


# --- measurement -------------------------------------------------------------

def ref_time(w, parts):
    """Wall seconds of one `reference.py` process running ``parts``."""
    code, wall, _ = run_child([sys.executable, REF_SCRIPT, *parts], w.env)
    if code != 0:
        raise RuntimeError(f"reference work {parts} failed with exit "
                           f"code {code}")
    return wall


def chained(w, parts, measure, deadline):
    """[(ratio, result)] of repeated ``measure()`` calls, whose result
    starts with its seconds, with a reference run of ``parts`` before,
    between and after them: each ratio is the call's seconds over the mean
    of the reference runs on either side.  Calls repeat while the next one
    is expected to end before ``deadline`` (a `perf_counter` time), and at
    least MIN_REPS times."""
    out = []
    before = ref_time(w, parts)
    step = 0.0
    while len(out) < MIN_REPS or time.perf_counter() + step < deadline:
        t0 = time.perf_counter()
        result = measure()
        after = ref_time(w, parts)
        out.append((result[0] / ((before + after) / 2), result))
        before = after
        step = time.perf_counter() - t0
    return out


def interquartile_mean(values):
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.mean(ordered[k:len(ordered) - k])


def measure_e2e(w, seconds):
    """End-to-end metrics with tracing off, from child processes.

    On a shared host the speed of the machine drifts by tens of percent
    within seconds, so every timed process runs between two runs of the
    fixed `reference.py` work and counts as a ratio to their mean; a metric
    is the interquartile mean of its ratios, which keeps the median's
    immunity to the odd stalled sample and averages more of the rest.
    Passes of the work (one process each) fill all but the last
    SETUP_SHARE of ``seconds``, and set-up starts, between runs of the
    reference's ``start`` part, fill the rest."""
    run_child(w.setup_argv, w.env)   # warm-up: writes the bytecode caches
    start = time.perf_counter()
    work = chained(w, w.REF_PARTS, w.pass_child,
                   start + (1 - SETUP_SHARE) * seconds)
    setup = chained(w, ("start",), w.setup_child, start + seconds)
    attempted, failed = w.input_check
    for _, (_, _, (a, f)) in work:
        attempted += a
        failed += f
    pass_s = [res[0] for _, res in work]
    metrics = {
        "ops_per_ref": w.ops / interquartile_mean(r for r, _ in work),
        "setup_s": interquartile_mean(r for r, _ in setup) * SETUP_REF_S,
        "peak_rss_mib": statistics.median(res[1] for _, res in work)}
    samples = {"passes": len(work), "setup_starts": len(setup),
               "median_pass_s": statistics.median(pass_s),
               "median_ops_per_s": w.ops / statistics.median(pass_s),
               "median_setup_s": statistics.median(
                   res[0] for _, res in setup)}
    return metrics, E2E_UNITS, samples, attempted, failed


def install_tracer():
    from slope_atlas import branched, cli, monodromy, slopes, whitehead

    tr = Tracer()

    def on_verdict(t, verdict):
        for tag in verdict.citations:
            t.count(f"rule.{tag}" if tag in RULE_TAGS else "rule.other")

    def on_cone(t, systems):
        t.count("weight_systems", len(systems))

    targets = [
        (cli, "cmd_batch", {}), (cli, "parse_batch_row", {}),
        (cli, "cmd_plot", {}), (cli, "grid_slopes", {}),
        (cli, "svg_coord", {}),
        (slopes, "parse_slope", {}),
        (whitehead, "classify", {"on_result": on_verdict}),
        (whitehead, "plot_class", {}),
        (branched, "carried_weight_cone",
         {"labelled": True, "on_result": on_cone}),
        (branched, "complexes_for", {}), (branched, "detect_sink_discs", {}),
        (monodromy, "coherent_orientations", {}),
    ]
    for mod, attr, opts in targets:
        fn = getattr(mod, attr, None)   # a later commit may remove it
        if fn is not None:
            tr.wrap(fn, f"{mod.__name__.split('.')[-1]}.{attr}", **opts)
    for cls in (slopes.Region, slopes.CircularArc):
        if "contains" in cls.__dict__:
            tr.wrap_method(cls, "contains", f"slopes.{cls.__name__}.contains")
    return tr


def layer_metrics(tr, passes, overhead, attempted, failed):
    """Per-layer metrics, per traced pass."""
    stats = tr.layer_stats()
    counts = tr.counts()
    zero = {"calls": 0, "wall_s": 0.0, "busy_s": 0.0, "wait_s": 0.0,
            "self_s": 0.0, "durations": []}
    metrics = {}
    for name in LAYER_UNITS:
        if name.startswith("whitehead.rule."):
            tag = name[len("whitehead.rule."):-len(".count")]
            metrics[name] = counts.get(f"rule.{tag}", 0) // passes
        elif name == "branched.weight_systems.count":
            metrics[name] = counts.get("weight_systems", 0) // passes
        elif name == "trace.overhead_ratio":
            metrics[name] = overhead
        elif name == "failed_op_ratio":
            metrics[name] = failed / attempted
        else:
            span, field = name.rsplit(".", 1)
            st = stats.get(span, zero)
            if field == "calls":
                metrics[name] = st["calls"] // passes
            elif field.endswith(("_us", "_ms")):
                q, unit = field[1:].split("_")
                scale = 1e6 if unit == "us" else 1e3
                metrics[name] = percentile(st["durations"], int(q)) * scale
            else:
                metrics[name] = st[field] / passes
    return metrics


def measure_traced(w, seconds, spans_path):
    """Per-layer metrics: untraced in-process passes repeat until
    ``seconds`` have elapsed, and the first MAX_TRACED_PASSES of them are
    each followed by a traced pass (spans are kept in memory)."""
    from slope_atlas import cli  # noqa: F401  (loads every module to wrap)

    attempted, failed = w.input_check
    plain, traced = [], []
    tr = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        a, f = w.pass_inprocess()
        plain.append(time.perf_counter() - t0)
        attempted += a
        failed += f
        if len(traced) == MAX_TRACED_PASSES:
            continue
        if tr is None:
            tr = install_tracer()
        else:
            tr.rewrap()
        t0 = time.perf_counter()
        try:
            a, f = w.pass_inprocess(tr)
        finally:
            traced.append(time.perf_counter() - t0)
            tr.unwrap()
        attempted += a
        failed += f
    overhead = statistics.median(traced) / statistics.median(plain)
    metrics = layer_metrics(tr, len(traced), overhead, attempted, failed)
    tr.write(spans_path, header=f"workload={w.name} seed={w.seed} "
                                f"traced_passes={len(traced)}")
    samples = {"untraced_passes": len(plain), "traced_passes": len(traced)}
    return metrics, LAYER_UNITS, samples, attempted, failed


# --- metadata and main -------------------------------------------------------

def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(root, ".git"),
                              "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(root, w, trace, seconds):
    from slope_atlas import cli
    worker_count = getattr(cli, "_worker_count", None)
    workers = worker_count() if worker_count else None
    return {
        "workload": w.name, "seed": w.seed, "trace": trace,
        "seconds": seconds, "git_sha": git_sha(root),
        "python": platform.python_version(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "batch_default_workers": workers,
        "input_sizes": w.input_sizes,
    }


def run(workload, seed, seconds, trace, root, sizes=None, corrupt=None):
    """One benchmark run; returns (metadata, result document)."""
    # The batch pool, in this process and in the children, and the worker
    # count in the metadata all use the CLI's default.
    os.environ.pop("SLOPE_ATLAS_THREADS", None)
    sizes = sizes or DEFAULT_SIZES
    results_dir = os.path.join(BENCH_DIR, "_work", "results")
    work = os.path.join(BENCH_DIR, "_work",
                        f"{workload}-{seed}-{trace}-{os.getpid()}")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    try:
        w = WORKLOADS[workload](workload, seed, sizes, work, root, corrupt)
        w.prepare()
        if trace:
            spans = os.path.join(results_dir, f"spans-{workload}.tsv.gz")
            metrics, units, samples, attempted, failed = measure_traced(
                w, seconds, spans)
        else:
            metrics, units, samples, attempted, failed = measure_e2e(
                w, seconds)
        meta = metadata(root, w, trace, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta["samples"] = samples
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    name = f"BENCH_{workload}_trace{trace}_seed{seed}.json"
    with open(os.path.join(results_dir, name), "w") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=2)
    return meta, result


def import_library(root):
    """Import slope_atlas from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "slope_atlas", "__init__.py")):
        raise SystemExit(f"error: no slope_atlas sources under {src}; run "
                         "from the root of a slope-atlas checkout")
    sys.path.insert(0, src)
    import slope_atlas
    if not os.path.abspath(slope_atlas.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: slope_atlas imported from "
                         f"{slope_atlas.__file__}, not {src}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    import_library(root)
    meta, result = run(args.workload, args.seed, args.seconds, args.trace,
                       root)
    print("meta: " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
