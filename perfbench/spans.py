"""Spans around the public functions of each sphere_ot module, recorded from outside.

A span is replaced where its caller looks the function up: a module
attribute (``pipeline`` calls ``solver_mod.solve_exact``, ``solver`` calls
its own ``cost_matrix`` and ``linprog``), an entry of the CLI command table,
or a property of a class. Nothing in the package changes; the wrappers are
installed only around a traced operation and removed after it.

Each span keeps (name, start, end, parent, op id). A layer metric ending in
``_s`` is self time: the span's duration minus the time its direct child
spans cover, summed over the spans mapped to that metric within one op.
"""

import contextlib
import json
import time
from collections import defaultdict

# (owner, attribute, self-time metric, call-count metric or None).
# The owner is a module of the package, a class in it, or cli._COMMANDS.
SPANS = (
    ("pipeline", "run_pipeline", "pipeline.self_s", None),
    ("pipeline", "_json_dump", "pipeline.artifacts_s", None),
    ("pipeline", "_inverse_records", "pipeline.artifacts_s", None),
    ("pipeline", "_write_beta_csv", "pipeline.artifacts_s", None),
    ("maps", "save_multimap_json", "pipeline.artifacts_s", None),
    ("cli", "main", "cli.self_s", None),
    ("cli._COMMANDS", "extract", "cli.extract_s", None),
    ("cli._COMMANDS", "diagnose", "cli.diagnose_s", None),
    ("cli._COMMANDS", "report", "cli.report_s", None),
    ("measures", "quasi_uniform_mesh", "measures.mesh_s", None),
    ("measures", "sample_density", "measures.mesh_s", None),
    ("measures.SphereMesh", "spacing", "measures.mesh_s", None),
    ("measures", "save_measure", "measures.io_s", None),
    ("measures", "load_measure", "measures.io_s", None),
    ("solver", "cost_matrix", "geometry.cost_matrix_s", "geometry.cost_matrix_calls"),
    ("solver", "solve_exact", "solver.solve_self_s", None),
    ("solver", "linprog", "solver.lp_s", "solver.path_lp_calls"),
    ("solver", "linear_sum_assignment", "solver.assignment_s", "solver.path_assignment_calls"),
    ("solver", "solve_entropic", "solver.entropic_s", None),
    ("solver", "cyclical_monotonicity_violation", "solver.cyclic_check_s", None),
    ("solver", "save_coupling_csv", "solver.io_s", None),
    ("solver", "load_coupling_csv", "solver.io_s", None),
    ("solver", "save_duals_json", "solver.io_s", None),
    ("maps", "extract_multimap", "maps.extract_s", None),
    ("maps", "classify_regions", "maps.classify_s", None),
    ("maps", "nu1_split", "maps.classify_s", None),
    ("maps", "invert_maps", "maps.invert_s", None),
    ("regularity", "holder_fit", "regularity.holder_fit_s", "regularity.holder_fit_calls"),
    ("regularity", "dichotomy_probe", "regularity.dichotomy_probe_s",
     "regularity.dichotomy_probe_calls"),
    ("regularity", "region_constants", "regularity.constants_s", None),
    ("regularity", "t_minus_bound_check", "regularity.constants_s", None),
    ("regularity", "monotonicity_check", "regularity.constants_s", None),
    ("regularity", "injectivity_lower_bound", "regularity.constants_s", None),
)

# Sizes read off a span's arguments or result; an op keeps the largest value.
PROBES = {
    "solver.linprog": lambda args, result: {"solver.lp_columns": len(args[0])},
    "solver.cyclical_monotonicity_violation":
        lambda args, result: {"solver.support_size": args[0].size},
    "maps.extract_multimap": lambda args, result: {
        "maps.images_per_atom": args[0].size / args[1].count,
        "maps.bivalent_atoms": int(result.bivalent.sum()),
    },
}

# Every per-layer metric with its unit. The ones not filled from spans come
# from the benchmark's gates and op records (see bench.py).
PER_LAYER = {
    "measures.mesh_s": "s",
    "measures.io_s": "s",
    "geometry.cost_matrix_calls": "count",
    "geometry.cost_matrix_s": "s",
    "solver.lp_s": "s",
    "solver.lp_columns": "count",
    "solver.assignment_s": "s",
    "solver.solve_self_s": "s",
    "solver.path_lp_calls": "count",
    "solver.path_assignment_calls": "count",
    "solver.entropic_s": "s",
    "solver.entropic_gap": "cost",
    "solver.cyclic_check_s": "s",
    "solver.support_size": "count",
    "solver.io_s": "s",
    "maps.extract_s": "s",
    "maps.invert_s": "s",
    "maps.classify_s": "s",
    "maps.images_per_atom": "entries/atom",
    "maps.bivalent_atoms": "count",
    "regularity.holder_fit_s": "s",
    "regularity.holder_fit_calls": "count",
    "regularity.dichotomy_probe_s": "s",
    "regularity.dichotomy_probe_calls": "count",
    "regularity.constants_s": "s",
    "pipeline.self_s": "s",
    "pipeline.artifacts_s": "s",
    "pipeline.artifact_bytes": "bytes",
    "pipeline.checks_failed": "count",
    "cli.extract_s": "s",
    "cli.diagnose_s": "s",
    "cli.report_s": "s",
    "cli.self_s": "s",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
}


def _resolve(modules: dict, owner: str):
    head, _, rest = owner.partition(".")
    obj = modules[head]
    return getattr(obj, rest) if rest else obj


class Tracer:
    """Records spans in memory while installed around one operation."""

    def __init__(self, modules: dict):
        self.spans = []  # [name, start, end, parent index, op id, probe values]
        self._stack = []
        self._op = None
        self._targets = []  # (owner object, attribute, span name)
        self._metric = {}
        self._calls = {}
        for owner, attr, self_metric, calls_metric in SPANS:
            name = f"{owner}.{attr}"
            self._targets.append((_resolve(modules, owner), attr, name))
            self._metric[name] = self_metric
            if calls_metric:
                self._calls[name] = calls_metric

    def _wrap(self, name, fn):
        probe = PROBES.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, self._op, None])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if probe:
                self.spans[index][5] = probe(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Install every wrapper for the duration of one operation."""
        saved = []
        try:
            for owner, attr, name in self._targets:
                if isinstance(owner, dict):
                    original = owner[attr]
                    owner[attr] = self._wrap(name, original)
                else:
                    original = getattr(owner, attr)
                    if isinstance(original, property):
                        setattr(owner, attr, property(self._wrap(name, original.fget)))
                    else:
                        setattr(owner, attr, self._wrap(name, original))
                saved.append((owner, attr, original))
            self._op = op_id
            yield
        finally:
            self._op = None
            for owner, attr, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)

    def op_metrics(self, op_id: int) -> dict:
        """Self times, call counts and probe sizes of one operation."""
        child_time = defaultdict(float)
        for _, start, end, parent, op, _ in self.spans:
            if op == op_id and parent >= 0:
                child_time[parent] += end - start
        metrics = defaultdict(float)
        for index, (name, start, end, _, op, probed) in enumerate(self.spans):
            if op != op_id:
                continue
            metrics[self._metric[name]] += end - start - child_time[index]
            if name in self._calls:
                metrics[self._calls[name]] += 1
            for key, value in (probed or {}).items():
                metrics[key] = max(metrics[key], value)
        return dict(metrics)

    def write(self, path) -> None:
        """Write every span as one JSON list: name, start, end, parent, op."""
        with open(path, "w") as fh:
            json.dump([span[:5] for span in self.spans], fh)
