"""Span tracing of synchan's public functions, installed from outside the program.

Each public function of each synchan module is replaced by a wrapper under
every name callers look it up by: the defining module, every other synchan
module that imported it, and the package itself.  A call records one span
(name, start, end, parent span) in memory; the spans are written out when the
round ends, as ``.npz`` arrays.  ``W_j(n)``, which a round may request
millions of times, records no span: its wrapper only counts requests and
keys and adds its time to the layer and to the time its caller's span
covers.  A layer is one module; its self time is the time of its spans minus
the time their children cover, less the wrappers' own cost, which is
measured on an empty function when the tracer is installed.  A generator
function's span covers only the creation of its generator.
"""

from __future__ import annotations

import functools
import importlib
import math
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = (
    "numerics",
    "combinatorics",
    "bounds",
    "channels",
    "oracle",
    "verification",
    "reference_tables",
    "cli",
)

WEIGHT_FUNCTION = "combinatorics.mean_pattern_log_weight"
SCAN_FUNCTION = "bounds.optimize_block_length"
REPORT_FUNCTIONS = (
    "oracle.exact_deletion_substitution_entropies",
    "oracle.exact_insertion_entropies",
)
# oracle entry points that enumerate all 2^n inputs of their first argument n
ENUMERATING_FUNCTIONS = REPORT_FUNCTIONS + (
    "oracle.exact_deletion_law",
    "oracle.deletion_output_multiplicities",
    "oracle.insertion_output_multiplicities",
    "oracle.bound_chain_check",
)
# oracle entry points that work on the one input they are given
SINGLE_INPUT_FUNCTIONS = ("oracle.exact_insertion_conditional_law", "oracle.single_insertion_law")
SCOPE_FUNCTIONS = {
    "verification.run_property_checks": "verification.properties_s",
    "verification.run_oracle_checks": "verification.oracle_s",
    "verification.run_chain_checks": "verification.chains_s",
    "verification.run_simulator_checks": "verification.simulators_s",
}

# per-layer metric: unit
METRICS = {
    "combinatorics.self_s": "s",
    "combinatorics.weight_requests": "count",
    "combinatorics.weight_repeat_share": "ratio",
    "numerics.awgn_expectation.calls": "count",
    "numerics.awgn_expectation.self_s": "s",
    "numerics.block_entropy.calls": "count",
    "bounds.self_s": "s",
    "bounds.evaluations": "count",
    "bounds.scan_lengths": "count",
    "cli.self_s": "s",
    "reference_tables.self_s": "s",
    "oracle.self_s": "s",
    "oracle.reports": "count",
    "oracle.distinct_reports": "count",
    "oracle.inputs_enumerated": "count",
    "oracle.inputs_per_s": "1/s",
    "channels.self_s": "s",
    "channels.calls": "count",
    "channels.bits": "count",
    "channels.bits_per_s": "1/s",
    "verification.properties_s": "s",
    "verification.oracle_s": "s",
    "verification.chains_s": "s",
    "verification.simulators_s": "s",
    "verification.checks": "count",
}


def _call_key(args, kwargs, result):
    return args + tuple(sorted(kwargs.items()))


def _first_argument(args, kwargs, result):
    return args[0] if args else next(iter(kwargs.values()))


def _first_length(args, kwargs, result):
    return len(_first_argument(args, kwargs, result))


def _result_length(args, kwargs, result):
    return len(result)


def _noop(*args):
    return None


def _wrapper_cost(wrap, calls: int = 50_000, repeats: int = 5) -> tuple[float, float]:
    """(inside, around): the per-call cost a wrapper adds to a function that does nothing.

    ``inside`` is the part within the interval the wrapper times, ``around``
    the rest, which lands in the caller's time.  The calls are made as the
    program makes them: inside a span, with two integer arguments from a
    small set.  Each figure is the least of ``repeats`` measurements, taken
    with a throwaway tracer.
    """
    probe = Tracer()
    probe.counted_s.append(0.0)
    probe.counted_calls.append(0)
    probe._stack.append(0)
    wrapped = wrap(probe, _noop)
    arguments = [(k % 150, 7) for k in range(calls)]
    bare = total = recorded = math.inf
    for _ in range(repeats):
        began = perf_counter()
        for args in arguments:
            _noop(*args)
        bare = min(bare, (perf_counter() - began) / calls)
        spans, counted_s = len(probe.starts), probe.weight_totals[1]
        began = perf_counter()
        for args in arguments:
            wrapped(*args)
        total = min(total, (perf_counter() - began) / calls)
        span_s = sum(probe.ends[k] - probe.starts[k] for k in range(spans, len(probe.starts)))
        recorded = min(recorded, (span_s + probe.weight_totals[1] - counted_s) / calls)
    return max(recorded - bare, 0.0), max(total - recorded, 0.0)


class Tracer:
    """In-memory span recorder for one round."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        # one entry per span: index into span_names, start, end, parent span
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        # per span: the time and the number of the counted calls it made
        self.counted_s = array("d")
        self.counted_calls = array("i")
        # per-span facts some metrics need: call arguments, sizes, result kind
        self.notes: dict[int, object] = {}
        # the counted function's requests, their time, and their distinct keys
        self.weight_totals = [0, 0.0]
        self.weight_keys: set = set()
        self.recording = True
        self._stack: list[int] = []
        # wrapper cost per call, inside the timed interval and around it
        self.span_cost = self.count_cost = (0.0, 0.0)

    def install(self) -> None:
        """Wrap every public synchan function under all the names it is bound to."""
        import synchan
        from synchan.bounds import BoundResult

        def is_bound_result(args, kwargs, result):
            return isinstance(result, BoundResult)

        self.span_cost = _wrapper_cost(lambda tracer, fn: tracer._wrap("probe", fn, None))
        self.count_cost = _wrapper_cost(lambda tracer, fn: tracer._wrap_counted(fn))
        notes = {name: _call_key for name in REPORT_FUNCTIONS}
        notes.update(
            (name, _first_argument) for name in ENUMERATING_FUNCTIONS if name not in notes
        )
        notes.update((name, _result_length) for name in SCOPE_FUNCTIONS)
        modules = {layer: importlib.import_module(f"synchan.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            public = getattr(module, "__all__", None)
            if public is None:
                public = [name for name in vars(module) if not name.startswith("_")]
            for attr in public:
                fn = getattr(module, attr)
                if isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name == WEIGHT_FUNCTION:
                    wrappers[id(fn)] = (fn, self._wrap_counted(fn))
                    continue
                note = notes.get(name)
                if note is None and layer == "bounds":
                    note = is_bound_result
                elif note is None and layer == "channels":
                    note = _first_length
                wrappers[id(fn)] = (fn, self._wrap(name, fn, note))
        for module in (synchan, *modules.values()):
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

    def _wrap(self, name, fn, note):
        name_id = len(self.span_names)
        self.span_names.append(name)
        name_ids, starts, ends, parents, notes, stack = (
            self.name_ids,
            self.starts,
            self.ends,
            self.parents,
            self.notes,
            self._stack,
        )
        counted_s, counted_calls = self.counted_s, self.counted_calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            counted_s.append(0.0)
            counted_calls.append(0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if note is not None:
                fact = note(args, kwargs, result)
                if fact is not None:
                    notes[index] = fact
            return result

        return traced

    def _wrap_counted(self, fn):
        totals, keys, stack = self.weight_totals, self.weight_keys, self._stack
        counted_s, counted_calls = self.counted_s, self.counted_calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            began = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - began
            totals[0] += 1
            totals[1] += elapsed
            keys.add(args + tuple(sorted(kwargs.items())) if kwargs else args)
            if stack:
                counted_s[stack[-1]] += elapsed
                counted_calls[stack[-1]] += 1
            return result

        return counted

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the recorded spans; 0 where a layer did not run."""
        names = [self.span_names[i] for i in self.name_ids]
        parents, notes = self.parents, self.notes
        span_inside, span_around = self.span_cost
        count_inside, count_around = self.count_cost
        # a span's time, less the wrapper's cost inside its timed interval
        duration = [end - start - span_inside for start, end in zip(self.starts, self.ends)]
        # a span's children: their time, and the wrappers' cost around them
        covered = [
            seconds + calls * (count_inside + count_around)
            for seconds, calls in zip(self.counted_s, self.counted_calls)
        ]
        for i, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += duration[i] + span_inside + span_around
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for i, name in enumerate(names):
            own = duration[i] - covered[i]
            self_time[name.split(".", 1)[0]] += own
            self_time[name] += own
            calls[name] += 1
        weight_requests, weight_s = self.weight_totals
        self_time["combinatorics"] += weight_s - weight_requests * count_inside

        def parent_name(i):
            return names[parents[i]] if parents[i] >= 0 else ""

        def outermost_in_layer(i):
            return not parent_name(i).startswith(names[i].split(".", 1)[0] + ".")

        # a call that raised has no note and is left out of the counts
        report_keys = [
            (name, notes[i])
            for i, name in enumerate(names)
            if name in REPORT_FUNCTIONS and i in notes
        ]

        # a bound evaluation is a BoundResult handed to a caller outside the
        # bound functions (deletion_awgn_bound evaluates through deletion_bound)
        bound_spans = [i for i, name in enumerate(names) if notes.get(i) is True]
        evaluations = sum(1 for i in bound_spans if notes.get(parents[i]) is not True)
        scan_lengths = sum(1 for i in bound_spans if parent_name(i) == SCAN_FUNCTION)

        inputs = 0
        enumeration_time = 0.0
        for i, name in enumerate(names):
            if not name.startswith("oracle.") or not outermost_in_layer(i) or i not in notes:
                continue
            if name in ENUMERATING_FUNCTIONS:
                n = notes[i][0] if name in REPORT_FUNCTIONS else notes[i]
                inputs += 2**n
            elif name in SINGLE_INPUT_FUNCTIONS:
                inputs += 1
            else:
                continue
            enumeration_time += duration[i]

        channel_spans = [
            i
            for i, name in enumerate(names)
            if name.startswith("channels.") and outermost_in_layer(i) and i in notes
        ]
        bits = sum(notes[i] for i in channel_spans)
        channel_time = sum(duration[i] for i in channel_spans)

        metrics = {
            "combinatorics.self_s": self_time["combinatorics"],
            "combinatorics.weight_requests": weight_requests,
            "combinatorics.weight_repeat_share": (
                (weight_requests - len(self.weight_keys)) / weight_requests
                if weight_requests
                else 0.0
            ),
            "numerics.awgn_expectation.calls": calls["numerics.awgn_expectation"],
            "numerics.awgn_expectation.self_s": self_time["numerics.awgn_expectation"],
            "numerics.block_entropy.calls": calls["numerics.block_entropy"],
            "bounds.self_s": self_time["bounds"],
            "bounds.evaluations": evaluations,
            "bounds.scan_lengths": scan_lengths,
            "cli.self_s": self_time["cli"],
            "reference_tables.self_s": self_time["reference_tables"],
            "oracle.self_s": self_time["oracle"],
            "oracle.reports": len(report_keys),
            "oracle.distinct_reports": len(set(report_keys)),
            "oracle.inputs_enumerated": inputs,
            "oracle.inputs_per_s": inputs / enumeration_time if enumeration_time > 0 else 0.0,
            "channels.self_s": self_time["channels"],
            "channels.calls": len(channel_spans),
            "channels.bits": bits,
            "channels.bits_per_s": bits / channel_time if channel_time > 0 else 0.0,
            "verification.checks": sum(
                notes.get(i, 0) for i, name in enumerate(names) if name in SCOPE_FUNCTIONS
            ),
        }
        for function, metric in SCOPE_FUNCTIONS.items():
            metrics[metric] = sum(duration[i] for i, name in enumerate(names) if name == function)
        return {name: metrics[name] for name in METRICS}

    def write(self, path) -> None:
        """Write the spans: span_names, and per span name_id, start, end, parent (-1: none)."""
        origin = self.starts[0] if self.starts else 0.0
        np.savez(
            path,
            span_names=np.array(self.span_names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64) - origin,
            end=np.frombuffer(self.ends, dtype=np.float64) - origin,
            parent=np.frombuffer(self.parents, dtype=np.int32),
        )
