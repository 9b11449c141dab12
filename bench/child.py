"""One imcverify CLI invocation in a fresh process, measured from inside.

Usage (normally started by run.py, with ``src`` on PYTHONPATH):

    python3 bench/child.py RECORD SPANS plain|traced CLI_ARG...
    python3 bench/child.py RECORD SPANS setup CONFIG OUTPUT_DIR SEED

Runs ``imcverify.cli.main(CLI_ARG...)``, exits with its exit code and
writes RECORD, a JSON object with the CLOCK_MONOTONIC time at which
``main`` returned (``summary.json`` is the last thing it writes), the
process's peak RSS and the package import time. ``time.monotonic``
reads the same system-wide clock in every process, so the parent
subtracts its own spawn time from ``end`` to get the invocation's wall
time.

The ``setup`` mode is an invocation without phases: it loads and validates
the config, partitions the grid and writes ``summary.json`` through
``run_pipeline(config, phases=())``, the work every CLI invocation does
before and after its phases.

In ``traced`` mode the public functions listed in ``TARGETS`` are wrapped before
``main`` runs: every call records a span (name, start, end, parent) into
in-memory arrays, which are written to SPANS (a ``.npz`` file) only after
``main`` has returned. The wrapper replaces the attribute each caller looks
up: module globals that hold the function, in every ``imcverify`` module,
and class attributes for methods. Targets that no longer exist are skipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
import traceback
from array import array

# (span name, module, attribute). Span names are "<layer>.<function>"; the
# layer is the package module that defines the function.
TARGETS = [
    ("cli.main", "imcverify.cli", "main"),
    ("config.load_config", "imcverify.config", "load_config"),
    ("pipeline.run_pipeline", "imcverify.pipeline", "run_pipeline"),
    ("pipeline.build_context", "imcverify.pipeline", "build_context"),
    ("pipeline.phase_abstract", "imcverify.pipeline", "phase_abstract"),
    ("pipeline.load_imc", "imcverify.pipeline", "load_imc"),
    ("pipeline.phase_verify", "imcverify.pipeline", "phase_verify"),
    ("pipeline.load_results", "imcverify.pipeline", "load_results"),
    ("pipeline.phase_improve", "imcverify.pipeline", "phase_improve"),
    ("pipeline.phase_simulate", "imcverify.pipeline", "phase_simulate"),
    ("geometry.partition_domain", "imcverify.geometry", "partition_domain"),
    ("dynamics.posterior", "imcverify.dynamics", "posterior"),
    ("dynamics.posterior_f", "imcverify.dynamics", "posterior_f"),
    ("dynamics.eval_point", "imcverify.dynamics", "eval_point"),
    ("noise.cdf", "imcverify.noise", "NoiseComponent.cdf"),
    ("noise.cdf", "imcverify.noise", "Uniform.cdf"),
    ("noise.cdf", "imcverify.noise", "TruncatedGaussian.cdf"),
    ("noise.cdf", "imcverify.noise", "Mixture.cdf"),
    ("noise.interval_probability", "imcverify.noise", "NoiseComponent.interval_probability"),
    ("noise.inverse_cdf", "imcverify.noise", "NoiseComponent.inverse_cdf"),
    ("noise.inverse_cdf", "imcverify.noise", "Uniform.inverse_cdf"),
    ("noise.uniform_noise_grid", "imcverify.noise", "uniform_noise_grid"),
    ("imc.build_imc", "imcverify.imc", "build_imc"),
    ("imc.transition_bounds_structured", "imcverify.imc", "transition_bounds_structured"),
    ("imc.transition_bounds_general", "imcverify.imc", "transition_bounds_general"),
    ("imc.write_imc", "imcverify.imc", "write_imc"),
    ("imc.read_imc", "imcverify.imc", "read_imc"),
    ("verify.robust_value_iteration", "imcverify.verify", "robust_value_iteration"),
    ("verify.write_results", "imcverify.verify", "write_results"),
    ("verify.read_results", "imcverify.verify", "read_results"),
    ("cluster.cluster_improve", "imcverify.cluster", "cluster_improve"),
    ("cluster.select_cluster", "imcverify.cluster", "select_cluster"),
    ("mc.estimate_satisfaction", "imcverify.mc", "estimate_satisfaction"),
    ("mc.simulate", "imcverify.mc", "simulate"),
    ("mc.write_trajectories", "imcverify.mc", "write_trajectories"),
]

# Spans whose non-None results are counted (a proposal was found).
COUNT_RESULTS = {"cluster.select_cluster"}


class Tracer:
    """In-memory span store. Span ids are array indices in start order, so
    the descendants of span i are the ids after i that start before it ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.results: dict[str, int] = {}
        self._stack = [-1]
        self._depth: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        count_results = name in COUNT_RESULTS
        if count_results:
            self.results.setdefault(name, 0)
        names, parents, outer = self.name, self.parent, self.outer
        starts, ends, stack, depth = self.start, self.end, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            outer.append(depth[nid] == 0)
            ends.append(0.0)
            depth[nid] += 1
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                depth[nid] -= 1
            if count_results and result is not None:
                self.results[name] += 1
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; return the span names installed."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "imcverify" or key.startswith("imcverify."))
        ]
        installed = []
        for span, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                setattr(cls, meth, self.wrap(span, vars(cls)[meth]))
            else:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapped = self.wrap(span, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)
            installed.append(span)
        return installed

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            outer=np.frombuffer(self.outer, dtype=np.int8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def peak_rss_kb() -> int:
    """Peak resident set size of this process. ``ru_maxrss`` also counts the
    parent's resident size at the time of the fork, so the high-water mark
    of this process's own address space (VmHWM) is read where Linux has it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def setup_only(config_path: str, output_dir: str, seed: str) -> int:
    from pathlib import Path

    from imcverify import cli, pipeline

    config = cli.load_config(config_path)
    config.output_dir = Path(output_dir)
    config.monte_carlo.seed = int(seed)
    pipeline.run_pipeline(config, phases=())
    return 0


def main() -> int:
    record_path, spans_path, mode = sys.argv[1:4]
    args = sys.argv[4:]
    t0 = time.perf_counter()
    from imcverify import cli

    import_s = time.perf_counter() - t0
    record: dict = {"import_s": import_s}
    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        record["installed"] = tracer.install()
    try:
        code = setup_only(*args) if mode == "setup" else cli.main(args)
    except Exception:  # an uncaught error is a failed invocation, not a crash of the benchmark
        traceback.print_exc()
        code = 1
    record["end"] = time.monotonic()
    record["maxrss_kb"] = peak_rss_kb()
    if tracer is not None:
        tracer.save(spans_path)
        record["span_names"] = tracer.names
        record["results"] = tracer.results
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
